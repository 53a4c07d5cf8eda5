import numpy as np
import pytest

from torusgas import simulate
from torusgas.errors import InvariantViolation
from torusgas.harness import replica_trajectory
from torusgas.kernels import TransitionKernel, ssep, tasep
from torusgas.lattice import (Configuration, TorusGeometry, sample_product_measure,
                              state_codes)
from torusgas.simulate import RngStream, evolve, evolve_replicas

D3_KERNEL = TransitionKernel(
    3, np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
    np.array([1 / 2, 1 / 6, 1 / 12, 1 / 12, 1 / 12, 1 / 12]))


def test_zero_duration_identity():
    geom = TorusGeometry(2, 4)
    rng = RngStream(1).generator()
    c = sample_product_measure(geom, 0.5, rng)
    out, ledger = evolve(c, ssep(2), 0.0, rng)
    assert np.array_equal(out.occupancy, c.occupancy)
    assert ledger.counts.sum() == 0
    assert ledger.elapsed == 0.0


def test_full_lattice_frozen():
    geom = TorusGeometry(2, 4)
    rng = RngStream(2).generator()
    c = Configuration(geom, np.ones(geom.n_sites, dtype=np.uint8))
    out, ledger = evolve(c, tasep(2), 3.0, rng)
    assert np.array_equal(out.occupancy, c.occupancy)
    assert ledger.counts.sum() == 0


def test_conservation_and_continuity():
    geom = TorusGeometry(2, 8)
    kernel = TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                              np.array([0.4, 0.2, 0.3, 0.1]))
    for rep in range(5):
        rng = RngStream(11, rep).generator()
        c0 = sample_product_measure(geom, 0.45, rng)
        c1, ledger = evolve(c0, kernel, 2.5, rng)
        assert c1.particle_count == c0.particle_count
        assert int(c1.occupancy.sum()) == c0.particle_count
        ledger.check_continuity(c0, c1)  # integer-exact identity


def test_ledger_continuity_is_the_literal_site_balance():
    geom = TorusGeometry(2, 5)
    kernel = TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                              np.array([0.4, 0.2, 0.3, 0.1]))
    rng = RngStream(13).generator()
    c0 = sample_product_measure(geom, 0.4, rng)
    c1, ledger = evolve(c0, kernel, 2.0, rng)
    ledger.check_continuity(c0, c1)
    assert ledger.counts.sum() > 0
    # the counts' inflow minus outflow against the literal per-site sum
    delta = c1.occupancy.astype(np.int64) - c0.occupancy
    for x in range(geom.n_sites):
        coords = geom.site_coords(x)
        inflow = sum(ledger.counts[geom.site_index(coords - z), j]
                     for j, z in enumerate(kernel.offsets))
        assert delta[x] == inflow - ledger.counts[x].sum()
    # one count too many moves a particle the configurations never moved
    ledger.counts[3, 1] += 1
    with pytest.raises(InvariantViolation, match="jumps do not reproduce"):
        ledger.check_continuity(c0, c1)


def replay_records(occupancy, geom, offsets, bonds):
    """Replay jump records x * J + j in record order from `occupancy`.

    Every source must be occupied and every target empty at its turn.
    Returns the final occupancy.
    """
    occ = occupancy.tolist()
    neighbor = geom.neighbor_table(offsets).tolist()
    for i, b in enumerate(np.asarray(bonds).tolist()):
        x, j = divmod(b, len(offsets))
        y = neighbor[x][j]
        assert occ[x] == 1 and occ[y] == 0, f"record {i} ({x} -> {y}) cannot run"
        occ[x], occ[y] = 0, 1
    return np.array(occ, dtype=occupancy.dtype)


def test_single_particle_drift():
    # free walk: mean displacement is drift times duration
    kernel = tasep(3)
    geom = TorusGeometry(3, 8)
    duration = 5.0
    replicas = 10000
    total = np.zeros(3)
    occ0 = np.zeros(geom.n_sites, dtype=np.uint8)
    occ0[0] = 1
    for r in range(replicas):
        rng = RngStream(123, r).generator()
        _, ledger = evolve(Configuration(geom, occ0.copy()), kernel, duration, rng)
        # executed jumps per offset times the offset (unwrapped displacement)
        total += (ledger.counts.sum(axis=0)[:, None] * ledger.offsets).sum(axis=0)
    mean = total / replicas
    se = np.sqrt(duration * 1.0 / replicas)  # variance sigma_11 * T per replica
    assert abs(mean[0] - duration) < 4 * se
    assert abs(mean[1]) < 4 * se + 1e-12
    assert abs(mean[2]) < 4 * se + 1e-12


def test_stationarity_mean_density():
    # starting from the flat product measure the mean density stays put
    geom = TorusGeometry(2, 6)
    kernel = TransitionKernel(2, np.array([[1, 0], [0, 1]]), np.array([0.7, 0.3]))
    alpha = 0.3
    densities = []
    for r in range(120):
        rng = RngStream(77, r).generator()
        c0 = sample_product_measure(geom, alpha, rng)
        c1, _ = evolve(c0, kernel, 1.7, rng)
        densities.append(c1.particle_count / geom.n_sites)
    mean = np.mean(densities)
    se = np.sqrt(alpha * (1 - alpha) / (geom.n_sites * len(densities)))
    assert abs(mean - alpha) < 4 * se


def test_determinism_and_diffusive_equivalence():
    geom = TorusGeometry(2, 6)
    kernel = ssep(2)
    c0 = sample_product_measure(geom, 0.5, RngStream(5, 0).generator())
    a1, l1 = evolve(c0, kernel, 0.25 * 36, RngStream(5, 1).generator())
    a2, l2 = evolve(c0, kernel, 0.25 * 36, RngStream(5, 1).generator())
    assert np.array_equal(a1.occupancy, a2.occupancy)
    assert np.array_equal(l1.counts, l2.counts)
    # a replica trajectory runs macroscopic time t for t N^2 microscopic time
    (t, b, ledger), = replica_trajectory(geom, 0.5, kernel, [0.25],
                                         RngStream(5, 3).generator())
    rng = RngStream(5, 3).generator()
    want, want_ledger = evolve(sample_product_measure(geom, 0.5, rng), kernel, 0.25 * 36, rng)
    assert t == 0.25 and np.array_equal(b.occupancy, want.occupancy)
    assert np.array_equal(ledger.counts, want_ledger.counts)
    # different replica index gives a different trajectory
    c, _ = evolve(c0, kernel, 0.25 * 36, RngStream(5, 2).generator())
    assert not np.array_equal(c.occupancy, a1.occupancy)


def test_event_budget_guard():
    geom = TorusGeometry(2, 6)
    c = sample_product_measure(geom, 0.9, RngStream(0).generator())
    from torusgas.errors import ConfigError
    with pytest.raises(ConfigError):
        evolve(c, ssep(2), 1e39, RngStream(0).generator())
    with pytest.raises(ConfigError, match="event budget"):
        evolve_replicas(TorusGeometry(2, 3), np.full(3, 0b101010101), ssep(2), 1e39,
                        RngStream(0).generator())


def test_lockstep_replicas_conserve_and_keep_their_input():
    geom = TorusGeometry(2, 3)
    rng = RngStream(3).generator()
    occ0 = (rng.random((300, geom.n_sites)) < 0.4).astype(np.uint8)
    occ0[0] = 0  # an empty replica draws no events
    occ0[1] = 1  # a full one draws events but every jump is rejected
    codes0 = state_codes(occ0)
    keep = codes0.copy()
    codes, jumps, events = evolve_replicas(geom, codes0, ssep(2), 1.5, rng)
    assert np.array_equal(codes0, keep)
    occ = (codes[:, None] >> np.arange(geom.n_sites)) & 1
    assert np.array_equal(occ.sum(axis=1), occ0.sum(axis=1))
    assert events[0] == 0 and events[1] > 0 and not np.isin(jumps[0], [0, 1]).any()
    assert jumps.shape[0] == 2 and 0 < jumps.shape[1] <= events.sum()
    # each replica's records, in step order, replay from its start state to
    # its end state
    for r in range(len(codes0)):
        got = replay_records(occ0[r], geom, ssep(2).offsets, jumps[1][jumps[0] == r])
        assert np.array_equal(got, occ[r])
    # the same stream state reproduces the whole batch
    rng = RngStream(3).generator()
    rng.random((300, geom.n_sites))
    again = evolve_replicas(geom, codes0, ssep(2), 1.5, rng)
    assert all(np.array_equal(a, b) for a, b in zip(again, (codes, jumps, events)))


def replay(config, kernel, duration, rng):
    """The events `evolve` draws, run one at a time in draw order.

    Returns (occupancy, bond counts, events drawn).  A torus that is empty or
    full draws nothing, as in `evolve`.
    """
    geom = config.geometry
    n = geom.n_sites
    occ = config.occupancy.copy()
    counts = np.zeros((n, len(kernel.offsets)), dtype=np.int64)
    if duration == 0.0 or occ.sum() in (0, n):
        return occ, counts, 0
    neighbor = geom.neighbor_table(kernel.offsets)
    cumw = np.cumsum(kernel.weights)
    cumw[-1] = 1.0
    events = int(rng.poisson(n * duration))
    drawn = 0
    while drawn < events:
        size = min(simulate._DRAW, events - drawn)
        sites = rng.integers(0, n, size=size)
        offsets = np.searchsorted(cumw, rng.random(size), side="right")
        drawn += size
        for x, j in zip(sites.tolist(), offsets.tolist()):
            y = neighbor[x, j]
            if occ[x] == 1 and occ[y] == 0:
                occ[x], occ[y] = 0, 1
                counts[x, j] += 1
    return occ, counts, events


def _occupancy(geom, fill, seed=0):
    """'empty', 'full', 'one' (a particle at the origin) or a density."""
    if fill == "empty":
        return Configuration(geom, np.zeros(geom.n_sites, dtype=np.uint8))
    if fill == "full":
        return Configuration(geom, np.ones(geom.n_sites, dtype=np.uint8))
    if fill == "one":
        occ = np.zeros(geom.n_sites, dtype=np.uint8)
        occ[0] = 1
        return Configuration(geom, occ)
    return sample_product_measure(geom, fill, np.random.default_rng(seed))


# (geometry, kernel, fill, duration, lowest and highest expected event count)
_REPLAY_CASES = {
    "d1-range2": (TorusGeometry(1, 10), TransitionKernel(
        1, np.array([[1], [-1], [2]]), np.array([0.5, 0.3, 0.2])), 0.6, 6.0, 33, 1024),
    "d2-ssep": (TorusGeometry(2, 8), ssep(2), 0.5, 30.0, 1025, 65536),
    "d3-asym": (TorusGeometry(3, 6), D3_KERNEL, 0.5, 10.0, 1025, 65536),
    "d2-not-nearest": (TorusGeometry(2, 7), TransitionKernel(
        2, np.array([[2, 0], [1, 1], [-1, 0], [0, -2]]),
        np.array([0.4, 0.3, 0.2, 0.1])), 0.35, 20.0, 33, 1024),
    # offset 2 on a side-2 ring lands on the jumping particle's own site
    "ring2-offset2": (TorusGeometry(1, 2), TransitionKernel(
        1, np.array([[1], [2]]), np.array([0.3, 0.7])), "one", 30.0, 33, 1024),
    "empty": (TorusGeometry(2, 4), ssep(2), "empty", 5.0, 0, 0),
    "full": (TorusGeometry(2, 4), tasep(2), "full", 5.0, 0, 0),
    "one-particle": (TorusGeometry(3, 8), tasep(3), "one", 5.0, 1025, 65536),
    "short": (TorusGeometry(2, 3), ssep(2), 0.4, 1.0, 1, 32),
    # more events than one draw chunk: pending events cross a chunk boundary
    "many": (TorusGeometry(2, 16), TransitionKernel(
        2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        np.array([0.4, 0.2, 0.3, 0.1])), 0.3, 300.0, 65537, 10 ** 6),
    # the acceptance kernel on a half-filled 16^3 torus, whose window is sized
    # above `_WINDOW`, over more than one draw chunk
    "d3-16-half": (TorusGeometry(3, 16), D3_KERNEL, 0.5, 20.0, 65537, 10 ** 6),
    # the same on the 32^3 torus, the benchmark's largest, in windows of
    # `_WINDOW_MAX` events
    "d3-32-half": (TorusGeometry(3, 32), D3_KERNEL, 0.5, 3.0, 65537, 10 ** 6),
}


@pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
def test_wavefronts_equal_the_one_by_one_replay(case):
    # the vectorized wavefronts run exactly the drawn events in draw order
    geom, kernel, fill, duration, low, high = _REPLAY_CASES[case]
    config = _occupancy(geom, fill)
    rng_a = RngStream(404, 1).generator()
    rng_b = RngStream(404, 1).generator()
    out, ledger = evolve(config, kernel, duration, rng_a)
    occ, counts, events = replay(config, kernel, duration, rng_b)
    assert low <= events <= high  # the case covers the event range it names
    assert ledger.events == events
    assert np.array_equal(out.occupancy, occ)
    assert np.array_equal(ledger.counts, counts)
    ledger.check_continuity(config, out)
    # both consumed the same draws
    assert rng_a.integers(0, 2 ** 62) == rng_b.integers(0, 2 ** 62)


def test_bench_scale_torus_runs_the_sized_window():
    # the 16^3 replay case runs windows of 2048 events: fewer rounds than
    # windows of `_WINDOW` events could take
    geom, kernel, fill, duration, _, _ = _REPLAY_CASES["d3-16-half"]
    window = simulate.wavefront_window(geom.n_sites)
    assert window == 2048 > simulate._WINDOW
    _, ledger = evolve(_occupancy(geom, fill), kernel, duration,
                       RngStream(404, 1).generator())
    assert ledger.events > simulate._DRAW
    assert ledger.events / window <= ledger.rounds < ledger.events / simulate._WINDOW


@pytest.mark.parametrize("side, dimension, window", [(3, 2, 1024), (8, 3, 1024),
                                                     (16, 3, 2048), (24, 3, 6912),
                                                     (32, 3, 8192), (64, 3, 8192)])
def test_window_is_sized_to_the_torus(side, dimension, window):
    # half the sites, clipped to [_WINDOW, _WINDOW_MAX]
    assert simulate.wavefront_window(TorusGeometry(dimension, side).n_sites) == window


def test_offset_index_is_the_binary_search():
    rng = np.random.default_rng(17)
    # 1, 4 and 6 offsets, and more offsets than a byte can count
    for weights in ([1.0], [0.4, 0.2, 0.3, 0.1], D3_KERNEL.weights, np.full(300, 1 / 300)):
        cumw = np.cumsum(weights)
        cumw[-1] = 1.0
        # random draws, every node below the top (the draws lie in [0, 1))
        # and the largest draw below 1
        for u in (rng.random(10000), cumw[:-1], np.array([np.nextafter(1.0, 0.0)])):
            assert np.array_equal(simulate.offset_index(cumw, u),
                                  np.searchsorted(cumw, u, side="right"))


@pytest.mark.parametrize("window, short", [(1, 0), (2, 0), (7, 0), (64, 0), (1024, 0),
                                           (4096, 32)])
def test_trajectory_does_not_depend_on_the_window(monkeypatch, window, short):
    geom, kernel, fill, duration, _, _ = _REPLAY_CASES["d3-asym"]
    config = _occupancy(geom, fill)
    want, want_ledger = evolve(config, kernel, duration, RngStream(9).generator())
    # equal bounds force the window whatever the torus size
    monkeypatch.setattr(simulate, "_WINDOW", window)
    monkeypatch.setattr(simulate, "_WINDOW_MAX", window)
    monkeypatch.setattr(simulate, "_SHORT", short)
    assert simulate.wavefront_window(geom.n_sites) == window
    got, ledger = evolve(config, kernel, duration, RngStream(9).generator())
    assert np.array_equal(got.occupancy, want.occupancy)
    assert np.array_equal(ledger.counts, want_ledger.counts)
    assert ledger.events == want_ledger.events
    assert ledger.rounds >= ledger.events / window
    if window == 1:
        assert ledger.rounds == ledger.events
