"""Finite subsets of the punctured lattice and functions on them.

The dual representation works with real-valued, finitely supported functions
on finite subsets of Z^d \\ {0}.  This module provides the canonical set
type, the two set maps the operators are built from (point shift with origin
bookkeeping, and pairwise exchange), the degree-weighted inner product, the
translation identity and its checker, and the round trip between subset
functions and local-function coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kernels import KernelAnalysis

Point = tuple
EMPTY: tuple = ()


def canonical(points) -> tuple:
    """Sorted tuple-of-tuples form of a collection of lattice points."""
    return tuple(sorted(tuple(int(c) for c in p) for p in points))


def validate_subset(A: tuple, dimension: int | None = None) -> tuple:
    A = canonical(A)
    for p in A:
        if all(c == 0 for c in p):
            raise ConfigError("subset contains the origin")
        if dimension is not None and len(p) != dimension:
            raise ConfigError("point has wrong dimension")
    if len(set(A)) != len(A):
        raise ConfigError("subset has duplicate points")
    return A


def _minus(p: Point, z: Point) -> Point:
    return tuple(a - b for a, b in zip(p, z))


def _plus(p: Point, z: Point) -> Point:
    return tuple(a + b for a, b in zip(p, z))


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


def exchange_set(A: tuple, x: Point, y: Point) -> tuple:
    """Swap the membership of two points: the three-case exchange table."""
    A = canonical(A)
    x = tuple(int(c) for c in x)
    y = tuple(int(c) for c in y)
    in_x, in_y = x in A, y in A
    if in_x and not in_y:
        return canonical([p for p in A if p != x] + [y])
    if in_y and not in_x:
        return canonical([p for p in A if p != y] + [x])
    return A


@dataclass(frozen=True)
class TruncationParams:
    """Finite solve space: degree cap plus a spatial diameter cap.

    A set A is kept when |A| <= max_degree and the sup-norm diameter of
    A u {0} is at most `radius`.  This is the largest family of sets
    confined to the radius-`radius` cube that is closed under the
    translation identity: each degree-n set lies in a class of n + 1 kept
    sets (A and its member shifts).  The packed engine solves on one
    unknown per class and lifts back to sets, so solutions satisfy the
    identity by construction.

    `dense_threshold` switches the resolvent to a direct factorization of
    the class matrix when there are at most that many classes (0 keeps it
    iterative).
    """

    radius: int
    max_degree: int
    solver_tol: float = 1e-10
    reg: float = 1e-3
    lambda_seq: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    dense_threshold: int = 0

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


@dataclass
class DualFunction:
    """Finitely supported real function on finite subsets, at a fixed density.

    `values` maps canonical subsets to reals; the empty set may appear with
    key () (weight one in the inner product).  Functions arising from local
    functions carry value 0 at the empty set and satisfy the translation
    identity on their support.
    """

    alpha: float
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for A, v in self.values.items():
            key = EMPTY if len(A) == 0 else validate_subset(A)
            if v != 0.0:
                clean[key] = clean.get(key, 0.0) + float(v)
        self.values = clean

    def __call__(self, A) -> float:
        key = EMPTY if len(A) == 0 else canonical(A)
        return self.values.get(key, 0.0)

    @property
    def empty_value(self) -> float:
        return self.values.get(EMPTY, 0.0)

    def support(self):
        return [A for A in self.values if A != EMPTY]

    def max_degree(self) -> int:
        return max((len(A) for A in self.values), default=0)

    def degrees(self) -> set:
        return {len(A) for A in self.values}

    def scaled(self, c: float) -> "DualFunction":
        return DualFunction(self.alpha, {A: c * v for A, v in self.values.items()})

    def plus(self, other: "DualFunction", coef: float = 1.0) -> "DualFunction":
        out = dict(self.values)
        for A, v in other.values.items():
            out[A] = out.get(A, 0.0) + coef * v
        return DualFunction(self.alpha, out)


def dual_inner_product(f: DualFunction, g: DualFunction) -> float:
    """Degree-weighted pairing: weight 1/(n+1) on sets of n points."""
    if f.alpha != g.alpha:
        raise ConfigError("inner product requires matching densities")
    small, big = (f, g) if len(f.values) <= len(g.values) else (g, f)
    total = 0.0
    for A, v in small.values.items():
        w = big.values.get(A)
        if w is not None:
            total += v * w / (len(A) + 1)
    return total


def dual_norm_sq(f: DualFunction) -> float:
    return dual_inner_product(f, f)


def check_translation_identity(f: DualFunction) -> float:
    """Largest violation |f(A) - f(shift of A by a member)| over the support."""
    worst = 0.0
    for A in f.support():
        for z in A:
            worst = max(worst, abs(f(A) - f(shift_set(A, z))))
    return worst


def current_dual(analysis: KernelAnalysis, direction: int) -> DualFunction:
    """Dual representation of the degree-two current part in one direction.

    Supported on single points within the kernel range, value -2 z_i a(z);
    independent of the density, and exactly translation-consistent.
    """
    d = analysis.dimension
    if not 0 <= direction < d:
        raise ConfigError("direction outside dimension")
    vals = {}
    for z, a in zip(analysis.sym_offsets, analysis.asym_weights):
        if a != 0.0:
            vals[(tuple(int(c) for c in z),)] = -2.0 * float(z[direction]) * float(a)
    return DualFunction(alpha=0.0, values=vals)


def lift_dual_to_local(f: DualFunction) -> dict:
    """Coefficients of a local function whose subset transform returns f.

    Only sets containing the origin carry coefficients: the set A u {0} gets
    f(A) / (|A| + 1).  Requires f(empty) = 0 and the translation identity on
    the support (checked).
    """
    if f.empty_value != 0.0:
        raise ConfigError("lift needs zero value at the empty set")
    violation = check_translation_identity(f)
    if violation > 1e-8:
        raise ConfigError(f"translation identity violated by {violation:g}")
    origin = None
    coeffs = {}
    for A, v in f.values.items():
        if A == EMPTY:
            continue
        d = len(A[0])
        origin = tuple([0] * d)
        B = canonical(list(A) + [origin])
        coeffs[B] = v / len(B)
    return coeffs


def transform_local_to_dual(coeffs: dict, alpha: float = 0.0) -> DualFunction:
    """Collapse local-function coefficients onto subsets of the punctured lattice.

    Evaluates, for each subset A, the sum of coefficients over all translates
    of A u {0}; the value is independent of which member is used as anchor for
    functions built by `lift_dual_to_local`.
    """
    if not coeffs:
        return DualFunction(alpha, {})
    support = {canonical(B): v for B, v in coeffs.items()}
    some = next(iter(support))
    d = len(some[0])
    origin = tuple([0] * d)

    out: dict = {}
    for B, v in support.items():
        # every translate of B placing one member at the origin contributes to
        # the set (B - b) minus the origin
        for b in B:
            A = tuple(p for p in (_minus(q, b) for q in B) if not _is_zero(p))
            if len(A) != len(B) - 1:
                continue  # translate does not place exactly one point at 0
            A = canonical(A)
            out[A] = out.get(A, 0.0) + v
    return DualFunction(alpha, out)


def psi_basis_cylinder(coeffs: dict):
    """Materialize local-function coefficients as a density-parametrized function.

    Returns a CylinderFunction evaluating sum_B c_B prod_{x in B}
    (eta(x) - beta)/sqrt(beta(1-beta)) together with its exact density
    derivative.  Densities at {0, 1} are outside the domain.
    """
    from .gibbs import CylinderFunction

    support = sorted({p for B in coeffs for p in canonical(B)})
    index = {p: j for j, p in enumerate(support)}
    terms = [(canonical(B), float(c)) for B, c in coeffs.items()]

    def f(beta, occ):
        beta = np.asarray(beta, dtype=np.float64)
        chi = beta * (1.0 - beta)
        out = np.zeros(occ.shape[0])
        for B, c in terms:
            prod = np.ones(occ.shape[0])
            for p in B:
                prod = prod * (occ[:, index[p]] - beta)
            out += c * prod / chi ** (len(B) / 2.0)
        return out

    def df(beta, occ):
        beta = np.asarray(beta, dtype=np.float64)
        chi = beta * (1.0 - beta)
        out = np.zeros(occ.shape[0])
        for B, c in terms:
            prod = np.ones(occ.shape[0])
            for p in B:
                prod = prod * (occ[:, index[p]] - beta)
            dprod = np.zeros(occ.shape[0])
            for skip in B:
                term = -np.ones(occ.shape[0])
                for p in B:
                    if p != skip:
                        term = term * (occ[:, index[p]] - beta)
                dprod += term
            k = len(B)
            out += c * (dprod / chi ** (k / 2.0)
                        - prod * (k / 2.0) * (1.0 - 2.0 * beta) / chi ** (k / 2.0 + 1.0))
        return out

    return CylinderFunction(tuple(support), f, df, name="subset_lift")


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
