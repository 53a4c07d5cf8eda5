"""Finite subsets of the punctured lattice and the truncated solve space.

The dual representation works with real-valued, finitely supported functions
on finite subsets of Z^d \\ {0}.  This module provides the canonical set
type, the member shift that defines the translation identity, and the
truncation that bounds the solve space, together with a literal enumeration
of that space for small truncations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConfigError
from .kernels import KernelAnalysis

Point = tuple


def canonical(points) -> tuple:
    """Sorted tuple-of-tuples form of a collection of lattice points."""
    return tuple(sorted(tuple(int(c) for c in p) for p in points))


def _minus(p: Point, z: Point) -> Point:
    return tuple(a - b for a, b in zip(p, z))


def _is_zero(p: Point) -> bool:
    return all(c == 0 for c in p)


def shift_set(A: tuple, z: Point) -> tuple:
    """Shift a subset by -z, exchanging the origin with -z when z is a member.

    For z outside A this is the plain translate A - z.  For z in A the
    translate contains the origin, which is exchanged with -z so the result
    stays inside the punctured lattice.
    """
    A = canonical(A)
    z = tuple(int(c) for c in z)
    if _is_zero(z):
        return A
    shifted = [_minus(p, z) for p in A]
    if z in A:
        shifted = [p for p in shifted if not _is_zero(p)]
        neg = tuple(-c for c in z)
        if neg not in shifted:
            shifted.append(neg)
        return canonical(shifted)
    return canonical(shifted)


@dataclass(frozen=True)
class TruncationParams:
    """Finite solve space: degree cap plus a spatial diameter cap.

    A set A is kept when |A| <= max_degree and the sup-norm diameter of
    A u {0} is at most `radius`.  This is the largest family of sets
    confined to the radius-`radius` cube that is closed under the
    translation identity: each degree-n set lies in a class of n + 1 kept
    sets (A and its member shifts).  The packed engine solves on one
    unknown per class, so solutions satisfy the identity by construction.
    """

    radius: int
    max_degree: int
    solver_tol: float = 1e-10
    reg: float = 1e-3
    lambda_seq: tuple = (1e-1, 1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        if self.max_degree < 2:
            raise ConfigError("max degree must be at least 2")
        if self.radius < 1:
            raise ConfigError("truncation radius must be positive")

    def check_kernel(self, analysis: KernelAnalysis):
        if self.radius < analysis.range:
            raise ConfigError("truncation radius below kernel range")

    def contains(self, A: tuple) -> bool:
        if len(A) > self.max_degree:
            return False
        if not A:
            return True
        d = len(A[0])
        for ax in range(d):
            cs = [p[ax] for p in A] + [0]
            if max(cs) - min(cs) > self.radius:
                return False
        return True


def enumerate_truncation(dimension: int, trunc: TruncationParams):
    """All sets of the truncated space, grouped by degree (small spaces only)."""
    r = trunc.radius
    pool = [p for p in itertools.product(range(-r, r + 1), repeat=dimension)
            if any(c != 0 for c in p)]
    by_degree = {}
    for n in range(1, trunc.max_degree + 1):
        sets_n = [canonical(c) for c in itertools.combinations(pool, n)]
        by_degree[n] = [A for A in sets_n if trunc.contains(A)]
    return by_degree
