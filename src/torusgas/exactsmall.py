"""Exact distribution evolution for tiny tori.

For systems with at most 13 sites the full 2^n state space is enumerated,
the jump-rate matrix is assembled as coordinate arrays, and distributions
are evolved by uniformization, a sum of nonnegative terms that reaches
machine precision.  Laws are
compared by total variation and by relative entropy, the latter both
exhaustively over the state list and in closed form for product measures.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InvariantViolation
from .kernels import TransitionKernel
from .lattice import TorusGeometry

MAX_SITES = 13

PROB_SUM_TOL = 1e-12

# Uniformization: the span is cut into pieces whose Poisson mean is at most
# _PIECE_MEAN, so exp(-mean) (about 1e-87 at the bound) is far from
# underflow, and a piece's sum stops once the Poisson mass not yet added is
# below _TAIL_MASS.
_PIECE_MEAN = 200.0
_TAIL_MASS = 1e-18


def generator_matrix(geometry: TorusGeometry, kernel: TransitionKernel):
    """Rate matrix L as coordinate arrays (rows, cols, rates): L[s, s'] is the
    jump rate from state s to s', repeated entries adding up.

    The diagonal comes last, one entry per state, assembled as the negated
    off-diagonal total, so every row sums to exactly zero.
    """
    n = geometry.n_sites
    if n > MAX_SITES:
        raise ConfigError(f"state space too large: {n} sites > {MAX_SITES}")
    n_states = 1 << n
    states = np.arange(n_states, dtype=np.int64)
    neigh = geometry.neighbor_table(kernel.offsets)

    rows, cols, vals = [], [], []
    diag = np.zeros(n_states)
    for x in range(n):
        bit_x = np.int64(1) << x
        for j, p in enumerate(kernel.weights):
            tgt = int(neigh[x, j])
            if tgt == x:
                continue
            bit_t = np.int64(1) << tgt
            movable = ((states & bit_x) != 0) & ((states & bit_t) == 0)
            src = states[movable]
            dst = src ^ (bit_x | bit_t)
            rows.append(src)
            cols.append(dst)
            vals.append(np.full(len(src), float(p)))
            diag[src] -= float(p)
    rows.append(states)
    cols.append(states)
    vals.append(diag)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def product_distribution(geometry: TorusGeometry, site_probs) -> np.ndarray:
    """Distribution over all states for independent site occupancies."""
    n = geometry.n_sites
    probs = np.asarray(site_probs, dtype=np.float64).reshape(-1)
    if probs.shape != (n,):
        raise ConfigError("need one marginal per site")
    n_states = 1 << n
    states = np.arange(n_states, dtype=np.int64)
    dist = np.ones(n_states)
    for x in range(n):
        occupied = ((states >> x) & 1).astype(bool)
        dist *= np.where(occupied, probs[x], 1.0 - probs[x])
    return dist


def uniformized_chain(geometry: TorusGeometry, kernel: TransitionKernel) -> tuple:
    """The uniformized jump chain (rows, cols, probs, lam) of the dynamics.

    With lam the largest exit rate, P = I + L / lam (coordinate arrays,
    repeated entries adding up) is stochastic and
    exp(t L) = sum_k Pois(k; lam t) P^k.  lam is 0 when no move leaves its
    site (every offset wraps around the torus); `probs` is then unused.
    """
    rows, cols, rates = generator_matrix(geometry, kernel)
    diag = rows == cols
    lam = float(-rates[diag].min())
    if lam == 0.0:
        return rows, cols, rates, lam
    probs = rates / lam
    probs[diag] += 1.0
    return rows, cols, probs, lam


def exact_evolution_small(geometry: TorusGeometry, kernel: TransitionKernel,
                          initial: np.ndarray, duration: float,
                          chain: tuple | None = None) -> np.ndarray:
    """Evolve a distribution over all configurations for a microscopic time.

    `chain` is `uniformized_chain(geometry, kernel)`, built here when not
    given; a caller that evolves several laws on one torus builds it once.
    Returns the exact law at the final time; nonnegative and summing to one
    within 1e-12.
    """
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    n_states = 1 << geometry.n_sites
    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (n_states,):
        raise ConfigError("initial distribution has wrong length")
    if abs(initial.sum() - 1.0) > PROB_SUM_TOL:
        raise ConfigError("initial distribution does not sum to 1")
    if duration == 0.0:
        return initial.copy()
    if chain is None:
        chain = uniformized_chain(geometry, kernel)
    rows, cols, probs, lam = chain
    if lam == 0.0:
        return initial.copy()
    pieces = math.ceil(lam * duration / _PIECE_MEAN)
    mean = lam * duration / pieces
    out = initial
    for _ in range(pieces):
        weight = math.exp(-mean)
        term = out
        out = weight * term
        k = 0
        # the mass after term k is at most weight * q / (1 - q), q = mean / (k + 1)
        while not (k + 1 > mean and weight * mean / (k + 1 - mean) <= _TAIL_MASS):
            k += 1
            term = np.bincount(cols, weights=probs * term[rows], minlength=n_states)
            weight *= mean / k
            out += weight * term
    total = out.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolation("evolved distribution lost mass beyond tolerance")
    return out / total


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def relative_entropy_product(mu_marginals, nu_marginals) -> float:
    """Relative entropy between product measures with the given site marginals.

    Per site: rho log(rho/alpha) + (1-rho) log((1-rho)/(1-alpha)), with the
    0 log 0 = 0 convention; infinite when a mu marginal hits {0, 1} strictly
    inside the support mismatch.
    """
    mu = np.asarray(mu_marginals, dtype=np.float64).reshape(-1)
    nu = np.asarray(nu_marginals, dtype=np.float64).reshape(-1)
    if mu.shape != nu.shape:
        raise ConfigError("marginal fields differ in shape")
    if np.any((mu < 0) | (mu > 1)) or np.any((nu < 0) | (nu > 1)):
        raise ConfigError("marginals must lie in [0, 1]")
    interior = (mu > 0) & (mu < 1)
    if np.any(interior & ((nu == 0) | (nu == 1))):
        raise ConfigError("reference marginal degenerate where state marginal is not")
    total = 0.0
    for r, a in zip(mu, nu):
        if r > 0.0:
            if a == 0.0:
                return math.inf
            total += r * math.log(r / a)
        if r < 1.0:
            if a == 1.0:
                return math.inf
            total += (1.0 - r) * math.log((1.0 - r) / (1.0 - a))
    return total


def relative_entropy_distributions(mu: np.ndarray, nu: np.ndarray) -> float:
    """Exhaustive relative entropy between two laws on the same state list.

    This is the closed form of the variational definition (supremum over
    test functions of the mean minus the log moment-generating value), used
    as the oracle on tiny state spaces.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    mask = mu > 0
    if np.any(mask & (nu <= 0)):
        return math.inf
    return float((mu[mask] * np.log(mu[mask] / nu[mask])).sum())
