"""Event-driven simulation of the exclusion process on the torus.

`evolve` uses site-picking uniformization.  The span [0, T] holds
M ~ Poisson(n_sites T) events.  Each event picks a uniform site x and a
jump offset z from the kernel, and moves the particle at x to x + z; it is
rejected when x is empty or x + z is occupied.  Every particle thus
attempts jumps at rate 1, which is the generator's law exactly.  The
events are drawn in chunks of `_DRAW` (the random stream, and so the
trajectory, depends on that constant).

The offset of an event is the number of cumulative kernel weights below
the top that its uniform draw reaches (`offset_index`): a handful of
comparisons, which select the same index as a binary search.

The drawn events are run in conflict-free wavefronts (Lubachevsky,
J. Comput. Phys. 75, 1988).  A window holds the first `wavefront_window`
pending events in draw order: half the site count, but at least `_WINDOW`
and at most `_WINDOW_MAX`.  A large torus thus pays the per-window
overhead less often, and the cap keeps few events carried over to the next
window by conflicts.  An event that is certainly a no-op at its turn is
dropped: its site is empty and no earlier event of the window jumps onto
it, or its target is occupied and no earlier event jumps off it.  Of the
rest, every event that is the first of the window to touch both of its
sites commutes with all events before it, so all of them run in one
vectorized step; the others stay pending, in order, ahead of the next
draws.  First touches come from `np.maximum.at` on stamps that decrease
along the window, never from scatter order.  The trajectory is therefore
exactly that of running the drawn events one by one, for any window size;
a window of at most `_SHORT` events is run one by one in Python, which is
cheaper there than the vectorized step.  The window's gathers are
`ndarray.take` and `compress` calls, cheaper than fancy indexing and
boolean masks at these sizes.

`evolve` counts its executed jumps per bond x * J + j (site x, offset j)
in one [n_sites, J] matrix, so its ledger has the same size whatever the
span; `evolve_replicas` records them in execution order.
`check_site_balance` checks either ledger: a record is a bond of weight
one, a count the weight of its bond.  The neighbor tables are cached per
torus and offset list as int32, half the int64 table.

Because the total event rate does not depend on the state, the number of
events in a span T is Poisson(k T) whatever the trajectory (uniformization).
`evolve_replicas` uses this to advance many independent replicas of a tiny
torus (at most `MAX_SITES` sites) in lockstep, with particle picking.  A
replica's state is its state code.  The event counts are drawn up front
and the replicas permuted once into decreasing count, so the replicas
still active at a step are a prefix and each step works on a slice, with
no row gathers.  An event is one lookup in the move table of the torus
and offsets (`move_table`), which maps (code, particle p, offset j) to the
next code and the executed bond, or to "rejected".  Particle p is the
p-th occupied site in site order, so a uniform p picks a uniform
particle.  Its ledger lists the executed jumps as (replica, bond) in
step order, and `check_replica_ledgers` checks it against the codes
through the neighbor table alone, never through the move table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .exactsmall import MAX_SITES
from .kernels import TransitionKernel
from .lattice import Configuration, TorusGeometry

# refuse a span whose expected event count is beyond sanity: site events
# n_sites * T for `evolve`, particle events k * T for `evolve_replicas`
_EVENT_BUDGET = 1 << 40

_DRAW = 1 << 16  # events per pair of random draws; the stream depends on it
# wavefront window bounds (`wavefront_window`); the trajectory does not
# depend on them
_WINDOW = 1024
_WINDOW_MAX = 8 * 1024
_SHORT = 32  # windows up to this length run one event at a time

_neighbor_cache: dict = {}
_move_cache: dict = {}


def _neighbors(geom: TorusGeometry, offsets: np.ndarray) -> np.ndarray:
    """The cached neighbor table of `offsets` on the torus."""
    key = (geom.dimension, geom.side, offsets.tobytes())
    table = _neighbor_cache.get(key)
    if table is None:
        table = geom.neighbor_table(offsets)
        if len(_neighbor_cache) > 64:
            _neighbor_cache.clear()
        _neighbor_cache[key] = table
    return table


def wavefront_window(n_sites: int) -> int:
    """Pending events per wavefront window on a torus of `n_sites` sites."""
    return min(_WINDOW_MAX, max(_WINDOW, n_sites // 2))


def offset_index(cumw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Kernel offset index of each uniform draw u in [0, 1).

    `cumw` holds the cumulative kernel weights.  The index is the number of
    nodes below the top that u reaches, summed over the nodes: the value of
    `np.searchsorted(cumw, u, side="right")` at a fraction of its cost per
    draw.  The top node is never read, so round-off there cannot give an
    index past the last offset.
    """
    return np.add.reduce(u >= cumw[:-1, None], axis=0,
                         dtype=np.min_scalar_type(len(cumw) - 1))


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (master seed, spawn key).

    `key` is one integer or a tuple of integers, passed as the spawn key of
    a counter-based seed sequence, so equal (seed, key) always reproduce a
    trajectory and distinct keys give independent streams.  A comparison
    replica uses the key (2, size_index, replica).
    """

    master_seed: int
    key: int | tuple = 0

    def generator(self) -> np.random.Generator:
        key = self.key if isinstance(self.key, tuple) else (self.key,)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))


@dataclass
class CurrentLedger:
    """Per-directed-bond jump counts over a run.

    counts[x, j] is the number of executed jumps from site x along kernel
    offset j.  `events` is the number of events drawn for the span and
    `rounds` the number of wavefront windows that ran them.
    """

    geometry: TorusGeometry
    offsets: np.ndarray
    counts: np.ndarray
    elapsed: float = 0.0
    events: int = 0
    rounds: int = 0

    def check_continuity(self, before: Configuration, after: Configuration):
        """`check_site_balance` of the counts from `before` to `after`."""
        delta = after.occupancy.astype(np.int64) - before.occupancy
        check_site_balance(self.geometry, self.offsets, delta, np.arange(self.counts.size),
                           weights=self.counts.reshape(-1))


def check_site_balance(geometry: TorusGeometry, offsets: np.ndarray, delta: np.ndarray,
                       bonds: np.ndarray, replica=0, weights=1):
    """Continuity and the particle count of a span's jumps, exactly in integers.

    `delta` is the site-major occupancy change of a span, [n_sites] or
    [n_sites, R] for R replicas, `bonds` its jumps x * J + j, `replica`
    theirs and `weights` the number of jumps each entry stands for (one
    each by default).  Inflow minus outflow of every site, scattered
    through the neighbor table, must equal `delta`.  Each jump moves one
    particle within its replica, so that also checks every particle count.
    """
    n, n_off = geometry.n_sites, len(offsets)
    n_rep = delta.size // n
    targets = _neighbors(geometry, offsets).reshape(-1)
    net = np.zeros(n * n_rep, dtype=np.int64)
    np.add.at(net, targets.take(bonds) * n_rep + replica, weights)
    np.subtract.at(net, bonds // n_off * n_rep + replica, weights)
    if not np.array_equal(delta.reshape(-1), net):
        raise InvariantViolation("jumps do not reproduce occupancy change")


def evolve(config: Configuration, kernel: TransitionKernel, duration: float,
           rng: np.random.Generator):
    """Run the dynamics for a microscopic time span.

    Returns (final configuration, ledger).  The input configuration is not
    modified.  Particle count is conserved exactly.
    """
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    geom = config.geometry
    n = geom.n_sites
    if n * duration > _EVENT_BUDGET:
        raise ConfigError("event budget overflow: duration too large for this system")
    out = config.copy()
    n_off = len(kernel.offsets)
    counts = np.zeros((n, n_off), dtype=np.int64)
    ledger = CurrentLedger(geom, kernel.offsets.copy(), counts, duration)
    if duration == 0.0 or out.particle_count in (0, n):
        return out, ledger  # no jump can happen: nothing is drawn

    occ = out.occupancy
    targets = _neighbors(geom, kernel.offsets).reshape(-1)  # of bond x * J + j
    cumw = np.cumsum(kernel.weights)
    window_len = wavefront_window(n)
    bond_counts = counts.reshape(-1)
    events = int(rng.poisson(n * duration))
    # stamp of the earliest event of the current window that jumps onto /
    # off / touches each site; stamps grow from window to window, so older
    # entries never win a maximum
    onto = np.zeros(n, dtype=np.int64)
    off = np.zeros(n, dtype=np.int64)
    touch = np.zeros(n, dtype=np.int64)
    stamp = 0
    queue = np.empty(0, dtype=np.int64)  # pending bonds, in draw order
    head = drawn = rounds = 0
    while True:
        if len(queue) - head < window_len and drawn < events:
            size = min(_DRAW, events - drawn)
            sites = rng.integers(0, n, size=size)
            offs = offset_index(cumw, rng.random(size))
            queue = np.concatenate([queue[head:], sites * n_off + offs])
            head = 0
            drawn += size
        window = queue[head:head + window_len]
        w = len(window)
        if w == 0:
            break
        rounds += 1
        if w <= _SHORT:
            for b in window.tolist():
                x, y = b // n_off, targets[b]
                if occ[x] and not occ[y]:
                    occ[x] = 0
                    occ[y] = 1
                    bond_counts[b] += 1
            head += w
            continue
        key = np.arange(stamp + w, stamp, -1)  # larger key = earlier event
        stamp += w
        # one conversion from the int32 table serves every gather below
        x, y = window // n_off, targets.take(window).astype(np.intp)
        np.maximum.at(onto, y, key)
        np.maximum.at(off, x, key)
        full_x = occ.take(x).view(bool)
        empty_y = occ.take(y) == 0
        live = ((full_x | (onto.take(x) > key))
                & (empty_y | (off.take(y) > key))).nonzero()[0]
        can = (full_x & empty_y).take(live)  # would jump if it ran now
        window, key, x, y = window.take(live), key.take(live), x.take(live), y.take(live)
        np.maximum.at(touch, x, key)
        np.maximum.at(touch, y, key)
        first = (touch.take(x) == key) & (touch.take(y) == key)
        jump = (first & can).nonzero()[0]
        occ.put(x.take(jump), 0)
        occ.put(y.take(jump), 1)
        bond_counts[window.take(jump)] += 1  # distinct sources, so distinct bonds
        rest = window.compress(~first)
        head += w - len(rest)
        queue[head:head + len(rest)] = rest

    ledger.events = events
    ledger.rounds = rounds
    return out, ledger


def move_table(geometry: TorusGeometry, offsets: np.ndarray) -> tuple:
    """The cached lockstep move table of `offsets` on a tiny torus.

    A replica's state is its state code c (bit x = site x), carried as the
    table row c * n_sites * J.  Entry c * n_sites * J + p * J + j is the
    event "particle p along offset j", particle p being the p-th occupied
    site x of c in site order.  Returns (row, bond, count): `row` holds the
    row of the code after the event, `bond` the executed bond x * J + j, or
    -1 and the row of c itself when the target x + z_j is occupied (x
    itself included) or p is not below the particle count of c; `count`
    holds the particle count of every code.  Built from the neighbor table
    by bit operations on every code at once, so only tori of at most
    `MAX_SITES` sites have one.
    """
    n = geometry.n_sites
    if n > MAX_SITES:
        raise ConfigError(f"lockstep replicas need at most {MAX_SITES} sites, got {n}")
    key = (geometry.dimension, geometry.side, offsets.tobytes())
    table = _move_cache.get(key)
    if table is not None:
        return table
    n_off = len(offsets)
    neigh = _neighbors(geometry, offsets).astype(np.int64)
    codes = np.arange(1 << n, dtype=np.int64)[:, None]
    full = (codes >> np.arange(n)) & 1  # [code, site]
    # site[c, p]: the p-th occupied site of c, rank read off a running count
    site = np.zeros((1 << n, n), dtype=np.int64)
    c, x = full.nonzero()
    site[c, np.cumsum(full, axis=1)[c, x] - 1] = x
    source = site[:, :, None]
    target = neigh[site]  # [code, p, j]
    free = ((codes[:, :, None] >> target) & 1) == 0
    count = full.sum(axis=1)
    free &= (np.arange(n) < count[:, None])[:, :, None]
    moved = codes[:, :, None] ^ (1 << source) ^ (1 << target)
    row = np.where(free, moved, codes[:, :, None]) * (n * n_off)
    bond = np.where(free, source * n_off + np.arange(n_off), -1)
    table = (row.astype(np.int32).reshape(-1), bond.astype(np.int32).reshape(-1), count)
    if len(_move_cache) > 16:
        _move_cache.clear()
    _move_cache[key] = table
    return table


def check_replica_ledgers(geometry: TorusGeometry, offsets: np.ndarray,
                          before: np.ndarray, after: np.ndarray, jumps: np.ndarray):
    """Continuity and particle count of every replica of a batch, in full.

    `before` and `after` are the [R] state codes at the ends of a span,
    `jumps` its executed jumps as (replica, bond x * J + j) columns of a
    [2, M] array.  In range, they must pass `check_site_balance`, through
    the neighbor table (not the move table), against the codes' site-major
    occupancy change [n_sites, R].
    """
    n, n_off = geometry.n_sites, len(offsets)
    replica, bond = jumps
    if len(bond) and not (0 <= replica.min() and replica.max() < len(before)
                          and 0 <= bond.min() and bond.max() < n * n_off):
        raise InvariantViolation("jump record outside the batch's replicas and bonds")
    sites = np.arange(n, dtype=np.int16)[:, None]  # codes of at most MAX_SITES bits
    delta = (after.astype(np.int16) >> sites) & 1
    delta -= (before.astype(np.int16) >> sites) & 1
    check_site_balance(geometry, offsets, delta, bond, replica)


def evolve_replicas(geometry: TorusGeometry, codes: np.ndarray,
                    kernel: TransitionKernel, duration: float, rng: np.random.Generator):
    """Run independent replicas of one tiny torus in lockstep for a microscopic span.

    `codes` holds the [R] state codes of the replicas and is not modified.
    Replica r draws its event count M_r ~ Poisson(k_r * duration) up front;
    step s = 1, 2, ... applies one event (uniform particle, kernel offset,
    rejected on an occupied target) to every replica with M_r >= s, through
    `move_table`.  Returns (codes, jumps, events M [R]), `jumps` the
    executed jumps as (replica, bond) columns of a [2, M] array, in step
    order.
    """
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    n = geometry.n_sites
    next_row, next_bond, count = move_table(geometry, kernel.offsets)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1 or not 0 <= codes.min(initial=0) <= codes.max(initial=0) < 1 << n:
        raise ConfigError(f"need one state code below 2^{n} per replica")
    n_off = len(kernel.offsets)
    k = count.take(codes)
    if k.max(initial=0) * duration > _EVENT_BUDGET:
        raise ConfigError("event budget overflow: duration too large for this system")
    events = rng.poisson(k * duration)

    # replicas in decreasing event count: the active ones at every step are
    # a prefix of this order (a stable sort of the narrowest key type, which
    # numpy radix-sorts)
    top = events.max(initial=0)
    order = np.argsort((top - events).astype(np.min_scalar_type(top)), kind="stable")
    rows = (codes.take(order) * (n * n_off)).astype(np.int32)
    k = k.take(order)
    cumw = np.cumsum(kernel.weights)
    # active[s - 1] = number of replicas with at least s events
    active = np.cumsum(np.bincount(events)[::-1])[::-1][1:]
    bonds = np.empty(int(active.sum()), dtype=np.int32)  # one per event, -1 rejected
    start = 0
    for a in active.tolist():
        entry = rng.integers(0, k[:a])
        entry *= n_off
        entry += offset_index(cumw, rng.random(a))
        entry += rows[:a]
        next_row.take(entry, out=rows[:a])
        next_bond.take(entry, out=bonds[start:start + a])
        start += a
    out = np.empty_like(codes)
    out[order] = rows // (n * n_off)
    # the replica position of each event: step s covers positions 0 .. active[s - 1] - 1
    position = np.arange(len(bonds)) - np.repeat(np.cumsum(active) - active, active)
    done = np.flatnonzero(bonds >= 0)
    jumps = np.stack([order.take(position.take(done)), bonds.take(done).astype(np.int64)])
    return out, jumps, events
