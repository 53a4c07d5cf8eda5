"""The graded operator family on subset functions (reference implementation).

Four elementary operators act on finitely supported subset functions: a
symmetric degree-preserving part, a drift-weighted degree-preserving part,
a degree-raising part and a degree-lowering part; the full generator image
combines them with density-dependent scalars.  This module evaluates the
defining sums literally on dictionary-backed functions; reads outside the
truncation are zero while the on-diagonal occupation terms keep their full
coefficients, so the truncated operators inherit symmetry/antisymmetry and
translation-identity preservation exactly.  A packed array engine
(`packed.py`) reproduces the same action on translation-consistent
functions for large spaces, with one unknown per translation class.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .kernels import KernelAnalysis
from .subsets import (
    DualFunction,
    TruncationParams,
    canonical,
    shift_set,
    _is_zero,
    _minus,
    _plus,
)

KINDS = ("symmetric", "drift", "raising", "lowering", "full")


def _sym_support(analysis: KernelAnalysis):
    return [tuple(int(c) for c in z) for z in analysis.sym_offsets]


def _eval_degree_preserving(B, f, analysis, trunc, use_asym: bool) -> float:
    """Exchange + shift sums at the set B with even or odd weights.

    The exchange double sum over ordered point pairs collapses to one sum
    over (member, outside) pairs; both orderings contribute equally, which
    absorbs the 1/2 prefactor of the symmetric part.
    """
    offsets = _sym_support(analysis)
    weights = analysis.asym_weights if use_asym else analysis.sym_weights
    members = set(B)
    fB = f(B)
    total = 0.0
    for v, w in zip(offsets, weights):
        if w == 0.0:
            continue
        for x in B:
            y = _plus(x, v)
            if _is_zero(y) or y in members:
                continue
            target = canonical([p for p in B if p != x] + [y])
            read = f(target) if trunc.contains(target) else 0.0
            total += w * (read - fB)
        # rigid shift: move the whole set by -v when v is not a member
        if v not in members:
            target = shift_set(B, v)
            read = f(target) if trunc.contains(target) else 0.0
            total += w * (read - fB)
    return total


def _eval_raising(B, f, analysis, trunc) -> float:
    """Degree-raising sum: the value at B reads sets with one point fewer.

    Removals from a single point reach the empty set, whose value is pinned
    to zero; those reads are skipped below.
    """
    total = 0.0
    members = list(B)
    for y in members:
        coeff = 0.0
        for x in members:
            coeff += 2.0 * analysis.asym_of(_minus(y, x))
        if coeff != 0.0:
            target = canonical([p for p in B if p != y])
            if target:
                total += coeff * f(target)
    for x in members:
        ax = analysis.asym_of(x)
        if ax == 0.0:
            continue
        rest = canonical([p for p in B if p != x])
        if rest:
            total += 2.0 * ax * f(rest)
            shifted = canonical([_minus(p, x) for p in rest])
            read = f(shifted) if trunc.contains(shifted) else 0.0
            total -= 2.0 * ax * read
    return total


def _eval_lowering(B, f, analysis, trunc) -> float:
    """Degree-lowering sum: the value at B reads sets with one extra point.

    The defining double sum runs over all outside point pairs; because the
    odd weight part sums to zero over the lattice, the coefficient of each
    added point collapses to minus the sum over members and the origin.
    """
    if len(B) >= trunc.max_degree:
        return 0.0
    d = analysis.dimension
    origin = tuple([0] * d)
    anchors = list(B) + [origin]
    members = set(B)
    candidates = {}
    for u in anchors:
        for z, a in zip(analysis.sym_offsets, analysis.asym_weights):
            if a == 0.0:
                continue
            y = _plus(u, tuple(int(c) for c in z))
            if _is_zero(y) or y in members:
                continue
            candidates[y] = candidates.get(y, 0.0) - 2.0 * float(a)
    total = 0.0
    for y, coeff in candidates.items():
        if coeff == 0.0:
            continue
        target = canonical(list(B) + [y])
        if trunc.contains(target):
            total += coeff * f(target)
    return total


def evaluate_operator_at(kind: str, B, f: DualFunction, analysis: KernelAnalysis,
                         trunc: TruncationParams) -> float:
    """Value of the chosen operator applied to f, at one set."""
    B = canonical(B)
    if kind == "symmetric":
        return _eval_degree_preserving(B, f, analysis, trunc, use_asym=False)
    if kind == "drift":
        return _eval_degree_preserving(B, f, analysis, trunc, use_asym=True)
    if kind == "raising":
        return _eval_raising(B, f, analysis, trunc)
    if kind == "lowering":
        return _eval_lowering(B, f, analysis, trunc)
    if kind == "full":
        alpha = f.alpha
        chi = alpha * (1.0 - alpha)
        val = _eval_degree_preserving(B, f, analysis, trunc, use_asym=False)
        val += (1.0 - 2.0 * alpha) * _eval_degree_preserving(B, f, analysis, trunc,
                                                             use_asym=True)
        val += np.sqrt(chi) * (_eval_raising(B, f, analysis, trunc)
                               + _eval_lowering(B, f, analysis, trunc))
        return val
    raise ConfigError(f"unknown operator kind {kind!r}")


def _candidate_outputs(f: DualFunction, analysis: KernelAnalysis,
                       trunc: TruncationParams):
    """Sets where the operator image of f can be nonzero."""
    offsets = _sym_support(analysis)
    asym = [tuple(int(c) for c in z) for z, a in
            zip(analysis.sym_offsets, analysis.asym_weights) if a != 0.0]
    d = analysis.dimension
    origin = tuple([0] * d)
    cands = set()

    def consider(A):
        if A and trunc.contains(A):
            cands.add(A)

    for A in f.support():
        consider(A)
        members = set(A)
        # degree-preserving neighbours: one point moved, or the whole set shifted
        for v in offsets:
            for x in A:
                y = _plus(x, v)
                if not _is_zero(y) and y not in members:
                    consider(canonical([p for p in A if p != x] + [y]))
            consider(shift_set(A, tuple(-c for c in v)))
            consider(shift_set(A, v))
        # raising outputs: one point added near the support or the origin
        for u in list(A) + [origin]:
            for v in asym:
                y = _plus(u, v)
                if not _is_zero(y) and y not in members:
                    consider(canonical(list(A) + [y]))
        for v in asym:
            shifted = canonical([_plus(p, v) for p in A])
            if all(not _is_zero(p) for p in shifted):
                consider(canonical(list(shifted) + [v]))
        # lowering outputs: one point removed
        for y in A:
            consider(canonical([p for p in A if p != y]))
    return cands


def apply_operator(kind: str, f: DualFunction, analysis: KernelAnalysis,
                   trunc: TruncationParams) -> DualFunction:
    """Apply one of the graded operators to a dictionary-backed function.

    Output support is confined to the truncation; the dropped image mass is
    available through `clipped_mass`.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown operator kind {kind!r}")
    out = {}
    for B in _candidate_outputs(f, analysis, trunc):
        v = evaluate_operator_at(kind, B, f, analysis, trunc)
        if v != 0.0:
            out[B] = v
    return DualFunction(f.alpha, out)


def h1_form(f: DualFunction, g: DualFunction, analysis: KernelAnalysis,
            trunc: TruncationParams) -> float:
    """Dirichlet form <f, (-symmetric part) g> in the degree-weighted product."""
    from .subsets import dual_inner_product

    return -dual_inner_product(f, apply_operator("symmetric", g, analysis, trunc))


def clipped_mass(kind: str, f: DualFunction, analysis: KernelAnalysis,
                 trunc: TruncationParams) -> float:
    """Squared image mass falling outside the truncation (diagnostic).

    Computed by re-running the candidate generation without the truncation
    filter and collecting the values at dropped sets.
    """
    wide = TruncationParams(radius=trunc.radius + 2 * max(1, analysis.range),
                            max_degree=trunc.max_degree + 1,
                            solver_tol=trunc.solver_tol)
    total = 0.0
    for B in _candidate_outputs(f, analysis, wide):
        if not trunc.contains(B):
            v = evaluate_operator_at(kind, B, f, analysis, wide)
            total += v * v / (len(B) + 1)
    return total
