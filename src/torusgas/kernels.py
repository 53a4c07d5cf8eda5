"""Finite-range jump laws on Z^d and their derived static quantities.

A kernel is a short list of (offset, probability) pairs.  Everything the
rest of the package needs from it is computed here once: mean drift,
covariance matrix, the even/odd split of the weights, the reversed kernel,
and the point group the dual solve is reduced by.  The dual solve's
truncation (`TruncationParams`) lives here too, so parsing a config needs
no sparse algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_list, as_number, as_numbers, require

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionKernel:
    """Jump law: offsets (k, d) int array, weights (k,) float array."""

    dimension: int
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if offsets.ndim != 2 or offsets.shape[1] != self.dimension:
            raise ConfigError("offsets must be a (k, d) integer array")
        if weights.shape != (offsets.shape[0],):
            raise ConfigError("weights must match offsets")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def range(self) -> int:
        """Largest sup-norm of a support offset."""
        return int(np.abs(self.offsets).max())

    @classmethod
    def from_entries(cls, dimension, entries) -> "TransitionKernel":
        """Build from [{"offset": [...], "prob": p}, ...] records."""
        offsets = [as_numbers(int, require(e, "offset", "kernel entry"), "kernel offset")
                   for e in as_list(entries, "kernel.entries")]
        for z in offsets:
            if len(z) != dimension:
                raise ConfigError(f"kernel offset must have {dimension} entries, got {z!r}")
        weights = [as_number(float, require(e, "prob", "kernel entry"), "kernel prob")
                   for e in entries]
        return cls(dimension, offsets, weights)

    def to_entries(self):
        return [
            {"offset": [int(c) for c in z], "prob": float(p)}
            for z, p in zip(self.offsets, self.weights)
        ]


@dataclass(frozen=True)
class KernelAnalysis:
    """Derived static data of a validated kernel.

    drift q = sum z p(z); covariance sigma_ij = sum p(z) z_i z_j;
    even/odd parts s, a of the weights over the symmetrized support;
    adjoint = kernel with reflected offsets; group = the signed axis
    permutations (d x d matrices, identity first) that preserve p and fix
    every point of the odd support, see `point_group`.
    """

    kernel: TransitionKernel
    drift: np.ndarray
    covariance: np.ndarray
    sym_offsets: np.ndarray  # symmetrized support, (m, d)
    sym_weights: np.ndarray  # s on the symmetrized support
    asym_weights: np.ndarray  # a on the symmetrized support
    adjoint: TransitionKernel
    group: np.ndarray  # (order, d, d) signed permutation matrices

    @property
    def dimension(self) -> int:
        return self.kernel.dimension

    @property
    def range(self) -> int:
        return self.kernel.range

    @property
    def is_symmetric(self) -> bool:
        return bool(np.all(self.asym_weights == 0.0))

    def sym_of(self, offset) -> float:
        return _lookup(self.sym_offsets, self.sym_weights, offset)

    def asym_of(self, offset) -> float:
        return _lookup(self.sym_offsets, self.asym_weights, offset)


@dataclass(frozen=True)
class TruncationParams:
    """Finite solve space: degree cap plus a spatial diameter cap.

    A set A is kept when |A| <= max_degree and the sup-norm diameter of
    A u {0} is at most `radius`.  This is the largest family of sets
    confined to the radius-`radius` cube that is closed under the
    translation identity: each degree-n set lies in a class of n + 1 kept
    sets (A and its member shifts).  The packed engine solves on one
    unknown per orbit of classes, so solutions satisfy the identity by
    construction.  Each field is a `truncation` key.

    The Krylov residual tolerance `solver_tol` and the resolvent shifts
    `lambda_seq` that are extrapolated to zero are class constants, the
    same for every truncation.
    """

    radius: int
    max_degree: int
    solver_tol = 1e-10
    lambda_seq = (1e-1, 1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        if self.max_degree < 2:
            raise ConfigError("max degree must be at least 2")
        if self.radius < 1:
            raise ConfigError("truncation radius must be positive")

    def check_kernel(self, analysis: KernelAnalysis):
        if self.radius < analysis.range:
            raise ConfigError("truncation radius below kernel range")


def _lookup(offsets, values, offset) -> float:
    hit = (offsets == np.asarray(offset, dtype=np.int64)).all(axis=1)
    idx = np.nonzero(hit)[0]
    return float(values[idx[0]]) if len(idx) else 0.0


def point_group(kernel: TransitionKernel, odd_support: np.ndarray) -> np.ndarray:
    """Signed axis permutations g with p(gz) = p(z) and gz = z on the odd support.

    Such a g commutes with every part of the dual operator (its even and
    odd weights are g-invariant) and maps the truncation to itself, and
    every dual current -2 z_i a(z) is g-invariant: it is 0 off the odd
    support, which g fixes pointwise.  The resolvent solutions of every
    direction are therefore g-invariant, which is what lets one orbit basis
    serve all directions.  Returned as an (order, d, d) integer array,
    identity first; a kernel without symmetry gives the identity alone.
    """
    d = kernel.dimension
    table = {tuple(int(c) for c in z): float(p)
             for z, p in zip(kernel.offsets, kernel.weights)}
    group = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            g = np.zeros((d, d), dtype=np.int64)
            g[np.arange(d), perm] = signs
            images = kernel.offsets @ g.T
            if (all(table.get(tuple(int(c) for c in gz)) == p
                    for gz, p in zip(images, kernel.weights))
                    and np.array_equal(odd_support @ g.T, odd_support)):
                group.append(g)
    return np.array(group)


def validate_kernel(kernel: TransitionKernel) -> KernelAnalysis:
    """Check kernel invariants and compute all derived quantities.

    Raises ConfigError on: empty support, weights not in (0, 1], weight sum
    off 1 beyond 1e-12, a zero offset (a self-jump is a no-op in exclusion
    dynamics, so its presence is a config typo), duplicate offsets, or an
    unsupported dimension.
    """
    k = kernel
    if k.dimension not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {k.dimension}")
    if len(k.weights) == 0:
        raise ConfigError("kernel has no entries")
    if not np.all((k.weights > 0.0) & (k.weights <= 1.0)):  # also false for nan
        raise ConfigError("kernel weights must lie in (0, 1]")
    total = float(k.weights.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"kernel weights sum to {total!r}, not 1")
    if np.any((k.offsets == 0).all(axis=1)):
        raise ConfigError("kernel contains the zero offset")
    uniq = {tuple(int(c) for c in z) for z in k.offsets}
    if len(uniq) != len(k.offsets):
        raise ConfigError("kernel contains duplicate offsets")

    drift = (k.weights[:, None] * k.offsets).sum(axis=0)
    covariance = np.einsum("k,ki,kj->ij", k.weights, k.offsets.astype(float),
                           k.offsets.astype(float))

    # even/odd split over the support closed under reflection
    support = {tuple(int(c) for c in z): float(p) for z, p in zip(k.offsets, k.weights)}
    sym_support = sorted(uniq | {tuple(-c for c in z) for z in uniq})
    sym_offsets = np.array(sym_support, dtype=np.int64)
    p_plus = np.array([support.get(z, 0.0) for z in sym_support])
    p_minus = np.array([support.get(tuple(-c for c in z), 0.0) for z in sym_support])
    sym_weights = 0.5 * (p_plus + p_minus)
    asym_weights = 0.5 * (p_plus - p_minus)

    adjoint = TransitionKernel(k.dimension, -k.offsets, k.weights.copy())
    group = point_group(k, sym_offsets[asym_weights != 0.0])

    eig = np.linalg.eigvalsh(covariance)
    if eig.min() < -1e-12:
        raise ConfigError("covariance matrix not positive semidefinite")

    return KernelAnalysis(
        kernel=k,
        drift=drift,
        covariance=covariance,
        sym_offsets=sym_offsets,
        sym_weights=sym_weights,
        asym_weights=asym_weights,
        adjoint=adjoint,
        group=group,
    )


def ssep(dimension: int) -> TransitionKernel:
    """Symmetric nearest-neighbour kernel: weight 1/(2d) on each +-e_i."""
    offsets = []
    for i in range(dimension):
        e = [0] * dimension
        e[i] = 1
        offsets.append(list(e))
        e2 = [0] * dimension
        e2[i] = -1
        offsets.append(e2)
    weights = [1.0 / (2 * dimension)] * (2 * dimension)
    return TransitionKernel(dimension, np.array(offsets), np.array(weights))


def tasep(dimension: int) -> TransitionKernel:
    """Totally asymmetric kernel: all jumps along +e_1."""
    e1 = [0] * dimension
    e1[0] = 1
    return TransitionKernel(dimension, np.array([e1]), np.array([1.0]))
