"""Event-driven simulation of the exclusion process on the torus.

Sampling scheme: the total event rate equals the particle count; each event
picks a uniformly random particle and a jump offset from the kernel, and the
jump is executed only if the target is vacant.  Rejected attempts are legal
self-loops, so exponential waiting times accrue across them, which reproduces
the generator's law exactly.

Because the total event rate does not depend on the state, the number of
events in a span T is Poisson(k T) whatever the trajectory (uniformization).
`evolve_replicas` uses this to advance many independent replicas in
lockstep: the event counts are drawn up front, and each step applies one
vectorized event to every replica that still has events left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .kernels import TransitionKernel
from .lattice import Configuration, TorusGeometry

_EVENT_BUDGET = 1 << 40  # refuse runs whose expected event count overflows sanity

_BATCH = 16384

_neighbor_cache: dict = {}


def _neighbors(geom: TorusGeometry, offsets: np.ndarray) -> np.ndarray:
    key = (geom.dimension, geom.side, offsets.tobytes())
    table = _neighbor_cache.get(key)
    if table is None:
        table = geom.neighbor_table(offsets)
        if len(_neighbor_cache) > 64:
            _neighbor_cache.clear()
        _neighbor_cache[key] = table
    return table


@dataclass(frozen=True)
class RngStream:
    """Deterministic per-replica random stream.

    Substreams are derived from (master_seed, replica) through a counter-based
    seed sequence, so equal (seed, replica) always reproduce a trajectory and
    distinct replicas are independent.
    """

    master_seed: int
    replica: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.replica,))
        return np.random.Generator(np.random.Philox(seq))


@dataclass
class CurrentLedger:
    """Signed per-directed-bond jump counts over a run.

    counts[x, j] is the number of executed jumps from site x along kernel
    offset j.  Discrete continuity holds exactly in integers: the occupancy
    change of a site equals inflow minus outflow read from the counts.
    """

    geometry: TorusGeometry
    offsets: np.ndarray
    counts: np.ndarray
    elapsed: float = 0.0

    @classmethod
    def zero(cls, geometry: TorusGeometry, kernel: TransitionKernel) -> "CurrentLedger":
        counts = np.zeros((geometry.n_sites, len(kernel.offsets)), dtype=np.int64)
        return cls(geometry, kernel.offsets.copy(), counts)

    def net_site_change(self) -> np.ndarray:
        """Inflow minus outflow per site, as exact integers."""
        return net_site_change(self.geometry, self.offsets, self.counts)

    def check_continuity(self, before: Configuration, after: Configuration):
        delta = after.occupancy.astype(np.int64) - before.occupancy.astype(np.int64)
        if not np.array_equal(delta, self.net_site_change()):
            raise InvariantViolation("bond counts do not reproduce occupancy change")


def net_site_change(geometry: TorusGeometry, offsets: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """Inflow minus outflow per site from bond counts [..., n_sites, J].

    Leading axes (replicas) are carried through; integer counts give an
    exact integer result.
    """
    neigh = _neighbors(geometry, -offsets)  # x - z for each offset z
    change = -counts.sum(axis=-1)
    for j in range(counts.shape[-1]):
        # jumps from x - z_j along z_j land on x
        change += counts[..., neigh[:, j], j]
    return change


def check_replica_ledgers(geometry: TorusGeometry, offsets: np.ndarray,
                          before: np.ndarray, after: np.ndarray, counts: np.ndarray):
    """Continuity and particle count of every replica of a batch, in full.

    `before` and `after` are [R, n_sites] occupancies, `counts` the
    [R, n_sites, J] bond ledgers of the span between them.
    """
    delta = after.astype(np.int64) - before.astype(np.int64)
    if not np.array_equal(delta, net_site_change(geometry, offsets, counts)):
        raise InvariantViolation("bond counts do not reproduce occupancy change")
    if not np.array_equal(after.sum(axis=1, dtype=np.int64),
                          before.sum(axis=1, dtype=np.int64)):
        raise InvariantViolation("particle count changed")


def evolve(config: Configuration, kernel: TransitionKernel, duration: float,
           rng: np.random.Generator):
    """Run the dynamics for a microscopic time span.

    Returns (final configuration, ledger).  The input configuration is not
    modified.  Particle count is conserved exactly.
    """
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    geom = config.geometry
    ledger = CurrentLedger.zero(geom, kernel)
    out = config.copy()
    k = out.particle_count
    if duration == 0.0 or k == 0:
        ledger.elapsed = duration
        return out, ledger
    if k * duration > _EVENT_BUDGET:
        raise ConfigError("event budget overflow: duration too large for this system")

    occ = out.occupancy
    positions = np.nonzero(occ)[0].astype(np.int64)  # dense particle list
    neigh = _neighbors(geom, kernel.offsets)
    cumw = np.cumsum(kernel.weights)
    cumw[-1] = 1.0  # guard against round-off at the top

    counts = ledger.counts
    remaining = duration
    # batch size tuned to the expected event count so short runs stay cheap
    batch = int(min(_BATCH, max(64, 1.5 * k * duration + 8 * np.sqrt(k * duration) + 32)))
    done = False
    while not done:
        waits = rng.standard_exponential(batch) / k
        total = np.cumsum(waits)
        n_exec = int(np.searchsorted(total, remaining, side="right"))
        if n_exec < batch:
            done = True
            remaining = 0.0
        else:
            remaining -= float(total[-1])
        if n_exec == 0:
            break
        which = rng.integers(0, k, size=n_exec)
        offs = np.searchsorted(cumw, rng.random(n_exec), side="right")
        for i in range(n_exec):
            p = which[i]
            x = positions[p]
            j = offs[i]
            tgt = neigh[x, j]
            if not occ[tgt]:
                occ[x] = 0
                occ[tgt] = 1
                positions[p] = tgt
                counts[x, j] += 1

    ledger.elapsed = duration
    out.particle_count = k
    return out, ledger


def evolve_replicas(geometry: TorusGeometry, occupancy: np.ndarray,
                    kernel: TransitionKernel, duration: float, rng: np.random.Generator):
    """Run independent replicas of one torus in lockstep for a microscopic span.

    `occupancy` is [R, n_sites] with 0/1 entries and is not modified.
    Replica r draws its event count M_r ~ Poisson(k_r * duration) up front;
    step s = 1, 2, ... applies one event (uniform particle, kernel offset,
    rejected on an occupied target) to every replica with M_r >= s.  Returns
    (occupancy, counts [R, n_sites, J], events M [R]).
    """
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    occ = np.array(occupancy, dtype=np.uint8)
    n_rep, n = occ.shape
    if n != geometry.n_sites:
        raise ConfigError("occupancy must have one column per site")
    counts = np.zeros((n_rep, n, len(kernel.offsets)), dtype=np.int64)
    k = occ.sum(axis=1, dtype=np.int64)
    if k.max() * duration > _EVENT_BUDGET:
        raise ConfigError("event budget overflow: duration too large for this system")
    events = rng.poisson(k * duration)

    # replicas in decreasing event count: the active ones at every step are
    # a prefix of this order
    order = np.argsort(-events, kind="stable")
    # padded particle positions: each replica's occupied sites come first
    positions = np.argsort(occ == 0, axis=1, kind="stable")[:, :k.max()]
    neigh = _neighbors(geometry, kernel.offsets)
    cumw = np.cumsum(kernel.weights)
    cumw[-1] = 1.0  # guard against round-off at the top
    # active[s] = number of replicas with at least s events
    active = np.cumsum(np.bincount(events)[::-1])[::-1]
    for s in range(1, len(active)):
        rows = order[:active[s]]
        p = rng.integers(0, k[rows])
        j = np.searchsorted(cumw, rng.random(len(rows)), side="right")
        x = positions[rows, p]
        tgt = neigh[x, j]
        free = occ[rows, tgt] == 0
        rows, p, j, x, tgt = rows[free], p[free], j[free], x[free], tgt[free]
        occ[rows, x] = 0
        occ[rows, tgt] = 1
        positions[rows, p] = tgt
        counts[rows, x, j] += 1
    return occ, counts, events
