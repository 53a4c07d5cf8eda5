import json
from dataclasses import replace

import numpy as np
import pytest

from torusgas.exactsmall import (exact_evolution_small, generator_matrix,
                                 product_distribution, relative_entropy_distributions,
                                 relative_entropy_product, total_variation)
from torusgas.errors import ConfigError, InvariantViolation
from torusgas.harness import EXACT_BATCH, ExperimentConfig, exact_small_experiment
from torusgas.kernels import TransitionKernel, validate_kernel
from torusgas.lattice import (Configuration, TorusGeometry, sample_product_measure,
                              site_probabilities, state_codes)
from torusgas import simulate
from torusgas.simulate import (RngStream, check_replica_ledgers, evolve, evolve_replicas,
                               move_table)

D2_KERNEL = TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                             np.array([0.5, 0.25, 0.125, 0.125]))


def _histogram(codes, n_states):
    """Empirical law of integer state codes."""
    return np.bincount(codes, minlength=n_states) / len(codes)


def test_generator_rows_sum_to_zero():
    geom = TorusGeometry(2, 3)
    rows, cols, rates = generator_matrix(geom, D2_KERNEL)
    assert np.abs(np.bincount(rows, weights=rates, minlength=512)).max() == 0.0
    off = rows != cols
    assert np.all(rates[off] > 0.0) and np.count_nonzero(~off) == 512


@pytest.mark.parametrize("t", [0.3, 5.0, 200.0])
def test_uniformization_matches_expm_multiply(t):
    # scipy's matrix-exponential action is the reference; at t = 200 the
    # Poisson mean lam t = 600 is cut into pieces of at most 200
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply

    geom = TorusGeometry(2, 3)
    rows, cols, rates = generator_matrix(geom, D2_KERNEL)
    gen_t = csr_matrix((rates, (cols, rows)), shape=(512, 512))
    mu = product_distribution(geom, np.linspace(0.05, 0.6, 9))
    want = np.maximum(expm_multiply(gen_t * t, mu), 0.0)
    want /= want.sum()
    got = exact_evolution_small(geom, D2_KERNEL, mu, t)
    assert np.all(got >= 0.0)
    assert total_variation(got, want) <= 1e-14


def test_duration_zero_identity():
    geom = TorusGeometry(2, 3)
    mu = product_distribution(geom, np.full(9, 0.4))
    out = exact_evolution_small(geom, D2_KERNEL, mu, 0.0)
    assert np.array_equal(out, mu)


def test_flat_product_invariant():
    geom = TorusGeometry(2, 3)
    nu = product_distribution(geom, np.full(9, 0.37))
    out = exact_evolution_small(geom, D2_KERNEL, nu, 4.0)
    assert total_variation(out, nu) <= 1e-10


def test_distribution_properties():
    geom = TorusGeometry(2, 3)
    mu = product_distribution(geom, np.linspace(0.1, 0.8, 9))
    assert abs(mu.sum() - 1.0) < 1e-12
    out = exact_evolution_small(geom, D2_KERNEL, mu, 0.7)
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) < 1e-12


def test_reversed_kernel_matches_negated_offsets():
    geom = TorusGeometry(2, 3)
    star = validate_kernel(D2_KERNEL).adjoint
    negated = TransitionKernel(2, -D2_KERNEL.offsets, D2_KERNEL.weights.copy())
    assert np.array_equal(star.offsets, negated.offsets)
    assert np.array_equal(star.weights, negated.weights)
    mu = product_distribution(geom, np.linspace(0.2, 0.6, 9))
    out1 = exact_evolution_small(geom, star, mu, 1.3)
    out2 = exact_evolution_small(geom, negated, mu, 1.3)
    assert total_variation(out1, out2) <= 1e-10


def test_too_large_state_space():
    geom = TorusGeometry(2, 4)  # 16 sites
    with pytest.raises(ConfigError):
        generator_matrix(geom, D2_KERNEL)


def test_mc_matches_exact_law_smoke():
    # small-sample version of the fidelity check (the acceptance test runs 1e5)
    geom = TorusGeometry(2, 3)
    marg = np.full(9, 0.2)
    mu = product_distribution(geom, marg)
    t = 2.0
    exact = exact_evolution_small(geom, D2_KERNEL, mu, t)
    replicas = 20000
    codes = np.empty(replicas, dtype=np.int64)
    for r in range(replicas):
        rng = RngStream(2024, r).generator()
        c = sample_product_measure(geom, marg, rng)
        c, _ = evolve(c, D2_KERNEL, t, rng)
        codes[r] = c.state_code()
    emp = _histogram(codes, 512)
    assert total_variation(emp, exact) <= 0.05


# Three particles start at sites 0, 1 and 3 of the 3x3 torus, so the law
# lives on its 84 three-particle states.  Sampling noise alone gives a
# 20k-sample TV of about 0.025 on it at T = 4.5 and at T = 5 (0.033 and
# 0.032 worst of 1000 multinomial draws), so 0.04 leaves room only for the
# noise.
@pytest.mark.parametrize("window, short, duration", [(1024, 32, 5.0), (24, 0, 4.5)])
def test_wavefront_matches_exact_law(monkeypatch, window, short, duration):
    # About 9 T > 32 events per call, so the vectorized windows run and
    # carry events over to the next window.  With the production window a
    # call's draws fit in one window, so carried events only follow each
    # other; with window 24 they also go ahead of draws not yet run.
    monkeypatch.setattr(simulate, "_WINDOW", window)
    monkeypatch.setattr(simulate, "_SHORT", short)
    geom = TorusGeometry(2, 3)
    assert simulate.wavefront_window(geom.n_sites) == window
    occ = np.zeros(geom.n_sites, dtype=np.uint8)
    occ[[0, 1, 3]] = 1
    start = Configuration(geom, occ)
    law = np.zeros(512)
    law[start.state_code()] = 1.0
    exact = exact_evolution_small(geom, D2_KERNEL, law, duration)
    replicas = 20000
    codes = np.empty(replicas, dtype=np.int64)
    events = np.empty(replicas, dtype=np.int64)
    rounds = np.empty(replicas, dtype=np.int64)
    for r in range(replicas):
        c, ledger = evolve(start, D2_KERNEL, duration, RngStream(2025, r).generator())
        codes[r], events[r], rounds[r] = c.state_code(), ledger.events, ledger.rounds
    # most calls exceed `_SHORT` and run more than one window: 97 % with
    # the production window, where a second window holds carried events only
    assert np.mean(events > 32) > 0.85 and np.mean(rounds > 1) > 0.85
    assert total_variation(_histogram(codes, 512), exact) <= 0.04


# Sampling noise alone gives a 20k-sample TV of about 0.04 on the 3x3 law
# below (0.039 mean, 0.047 worst of 200 multinomial draws), so 0.05 leaves
# room only for the noise.
@pytest.mark.parametrize("geom, kernel, marg, spans", [
    (TorusGeometry(2, 3), D2_KERNEL, np.linspace(0.1, 0.3, 9), [1.2, 0.9]),
    # offset 2 on a side-2 ring lands on the jumping particle's own site
    (TorusGeometry(1, 2), TransitionKernel(1, np.array([[1], [2]]), np.array([0.3, 0.7])),
     np.array([0.2, 0.6]), [0.8, 1.5]),
])
def test_lockstep_replicas_match_exact_law(geom, kernel, marg, spans):
    replicas = 20000
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    codes = state_codes((rng.random((replicas, geom.n_sites)) < marg).astype(np.uint8))
    law = product_distribution(geom, marg)
    for span in spans:
        before = codes
        codes, jumps, events = evolve_replicas(geom, before, kernel, span, rng)
        check_replica_ledgers(geom, kernel.offsets, before, codes, jumps)
        assert jumps.shape[1] <= events.sum()
        law = exact_evolution_small(geom, kernel, law, span)
        emp = _histogram(codes, 1 << geom.n_sites)
        assert total_variation(emp, law) <= 0.05


@pytest.mark.parametrize("geom, kernel", [
    (TorusGeometry(2, 3), D2_KERNEL),
    (TorusGeometry(1, 2), TransitionKernel(1, np.array([[1], [2]]), np.array([0.3, 0.7]))),
])
def test_move_table_is_the_literal_one_particle_move(geom, kernel):
    # every (code, particle, offset) entry against the move made by hand:
    # find the particle's site, place the target by coordinates, reject on
    # an occupied target (on the side-2 ring offset 2 is the site itself)
    n, n_off = geom.n_sites, len(kernel.offsets)
    row, bond, count = move_table(geom, kernel.offsets)
    assert row.shape == bond.shape == ((1 << n) * n * n_off,)
    for code in range(1 << n):
        occ = [(code >> x) & 1 for x in range(n)]
        sites = [x for x in range(n) if occ[x]]
        assert count[code] == len(sites)
        for p in range(n):
            for j, z in enumerate(kernel.offsets):
                e = (code * n + p) * n_off + j
                if p >= len(sites):
                    assert (row[e], bond[e]) == (code * n * n_off, -1)
                    continue
                x = sites[p]
                y = geom.site_index(geom.site_coords(x) + z)
                if occ[y]:
                    assert (row[e], bond[e]) == (code * n * n_off, -1)
                else:
                    moved = code - (1 << x) + (1 << y)
                    assert (row[e], bond[e]) == (moved * n * n_off, x * n_off + j)


def test_lockstep_replicas_refuse_a_torus_above_the_exact_size():
    geom = TorusGeometry(2, 4)  # 16 sites
    with pytest.raises(ConfigError, match="at most 13 sites"):
        evolve_replicas(geom, np.zeros(3, dtype=np.int64), D2_KERNEL, 1.0,
                        np.random.default_rng(0))


def test_replica_ledger_check_catches_a_corrupted_count():
    geom = TorusGeometry(2, 3)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    before = state_codes((rng.random((200, 9)) < 0.4).astype(np.uint8))
    after, jumps, _ = evolve_replicas(geom, before, D2_KERNEL, 2.0, rng)
    check_replica_ledgers(geom, D2_KERNEL.offsets, before, after, jumps)
    assert not np.array_equal(after, before)
    # the records against the literal per-site sum, replica by replica
    for r in (0, 77, 199):
        change = np.zeros(9, dtype=np.int64)
        for b in jumps[1][jumps[0] == r]:
            x, j = divmod(int(b), 4)
            change[x] -= 1
            change[geom.site_index(geom.site_coords(x) + D2_KERNEL.offsets[j])] += 1
        bits = [((int(after[r]) >> x) & 1) - ((int(before[r]) >> x) & 1) for x in range(9)]
        assert [int(c) for c in change] == bits
    moved = jumps.copy()
    moved[1, 137] ^= 1  # the same source site along another offset
    dropped = np.delete(jumps, 137, axis=1)
    for bad in (moved, dropped):
        with pytest.raises(InvariantViolation):
            check_replica_ledgers(geom, D2_KERNEL.offsets, before, after, bad)
    # an `evolve` ledger, corrupted the same two ways
    start = Configuration(geom, np.array([1, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8))
    end, ledger = evolve(start, D2_KERNEL, 2.0, rng)
    ledger.check_continuity(start, end)
    x, j = np.argwhere(ledger.counts)[0]
    moved = ledger.counts.copy()
    moved[x, j] -= 1
    moved[x, j ^ 1] += 1  # one jump of a source site along another offset
    dropped = ledger.counts.copy()
    dropped[x, j] -= 1
    for bad in (moved, dropped):
        with pytest.raises(InvariantViolation):
            replace(ledger, counts=bad).check_continuity(start, end)


def test_batched_state_codes_match_configuration():
    geom = TorusGeometry(2, 3)
    occ = (np.random.default_rng(3).random((500, 9)) < 0.5).astype(np.uint8)
    codes = state_codes(occ)
    assert codes.dtype == np.int64
    assert [int(c) for c in codes] == [Configuration(geom, row).state_code()
                                       for row in occ]


def _exact_config(replicas):
    return ExperimentConfig.from_dict({
        "schema_version": 1,
        "kernel": {"dimension": 2, "entries": [
            {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
            {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]},
        "torus_sizes": [3], "times": [0.1, 0.3], "block_radius": 1, "replicas": 1,
        "profile": {"kind": "cosine", "base": 0.15, "amplitude": 0.03, "axis": 1},
        "master_seed": 99, "delta0": 0.05, "pde": {"resolution": 18},
        "exact": {"side": 3, "replicas": replicas, "alpha": 0.15},
    })


def test_exact_ensemble_is_deterministic_and_counts_every_replica(monkeypatch):
    import torusgas.harness as harness

    replicas = 5000  # not a multiple of the batch size
    assert replicas % EXACT_BATCH
    cfg = _exact_config(replicas)
    seen = []

    def recording(*args):
        out = evolve_replicas(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(harness, "evolve_replicas", recording)
    first = exact_small_experiment(cfg)
    monkeypatch.undo()
    assert exact_small_experiment(cfg) == first
    assert first["replicas"] == replicas

    # every batch records one code array per observation time, in time order;
    # the reported distances are those of exactly `replicas` final states
    geom = TorusGeometry(2, 3)
    law = product_distribution(geom, site_probabilities(geom, cfg.build_profile()))
    t_prev = 0.0
    for i, row in enumerate(first["mc"]):
        codes = np.concatenate(seen[i::len(first["mc"])])
        assert len(codes) == replicas
        law = exact_evolution_small(geom, cfg.kernel, law, (row["t"] - t_prev) * 9)
        t_prev = row["t"]
        emp = _histogram(codes, 512)
        assert total_variation(emp, law) == pytest.approx(row["tv_mc_vs_exact"], abs=1e-12)
        assert isinstance(row["events"], int) and isinstance(row["jumps"], int)
        assert 0 < row["jumps"] <= row["events"]


def test_exact_experiment_builds_the_generator_once(monkeypatch):
    # the stationarity check and every span evolve under one uniformized
    # chain: the rate matrix is built once per experiment
    import torusgas.exactsmall as exactsmall

    calls = []
    build = exactsmall.generator_matrix

    def counting(geometry, kernel):
        calls.append(geometry.n_sites)
        return build(geometry, kernel)

    monkeypatch.setattr(exactsmall, "generator_matrix", counting)
    cfg = _exact_config(10)
    assert len(cfg.exact_times) == 2
    exact_small_experiment(cfg)
    assert calls == [9]


def test_exact_records_stage_seconds_in_run_meta(tmp_path):
    import time

    from torusgas.cli import main as cli_main

    cfg = _exact_config(5000)
    data = cfg.to_dict()
    data["output_dir"] = str(tmp_path / "o")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["exact", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    names = {"table_s", "pde_s", "exact_s", "mc_s"}
    assert set(meta["exact"]) == names | {"densities", "engine"}
    assert all(meta["exact"][name] >= 0.0 for name in names)
    assert meta["peak_rss_mb"] > 0.0
    # the table's nine densities: five solved, four filled from their
    # particle-hole mirrors with no matvec
    densities = meta["exact"]["densities"]
    assert len(densities) == 9
    mirrored = {a: rec["mirror_of"] for a, rec in densities.items() if "mirror_of" in rec}
    assert mirrored == {"0.6": 0.4, "0.7": 0.3, "0.8": 0.2, "0.9": 0.1}
    for a, rec in densities.items():
        matvecs = sum(shift["matvecs"] for shift in rec["shifts"].values())
        assert (matvecs == 0) == (a in mirrored)
    # the table's engine build, with the keys of the `diffusion` record
    engine = meta["exact"]["engine"]
    assert set(engine) == {"enumerate_s", "assemble_s", "classes", "orbits", "nnz",
                           "engine_mb"}
    assert engine["enumerate_s"] > 0.0 and engine["assemble_s"] > 0.0
    assert 0 < engine["orbits"] < engine["classes"] < engine["nnz"]
    assert engine["engine_mb"] > 0.0

    # the stages cover the call, and recording them leaves the report alone
    stages = {}
    start = time.perf_counter()
    diag = exact_small_experiment(cfg, stages=stages)
    wall = time.perf_counter() - start
    seconds = [stages[name] for name in names]
    assert sum(seconds) >= 0.9 * wall
    assert min(seconds) >= 0.0
    written = json.loads((tmp_path / "o" / "exact_diagnostics.json").read_text())
    assert written == json.loads(json.dumps(diag))


def test_lost_mass_is_an_invariant_violation(monkeypatch, tmp_path, capsys):
    # mass lost by the evolution is a numerical failure, not bad
    # input: it raises InvariantViolation and `torusgas exact` exits 1
    import torusgas.exactsmall as exactsmall
    from torusgas.cli import main as cli_main

    # a tail bound of 1 stops each Poisson sum after a few terms
    monkeypatch.setattr(exactsmall, "_TAIL_MASS", 1.0)
    geom = TorusGeometry(2, 3)
    mu = product_distribution(geom, np.full(9, 0.4))
    with pytest.raises(InvariantViolation, match="lost mass"):
        exact_evolution_small(geom, D2_KERNEL, mu, 1.0)
    data = _exact_config(10).to_dict()
    data["output_dir"] = str(tmp_path / "o")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["exact", "--config", str(cfg_path)]) == 1
    assert "invariant violation: evolved distribution lost mass" in capsys.readouterr().err


def test_relative_entropy_product_values():
    assert relative_entropy_product([0.3], [0.3]) == 0.0
    # hand computation: 0.9 ln 1.8 + 0.1 ln 0.2
    val = relative_entropy_product([0.9], [0.5])
    assert val == pytest.approx(0.3680642072, abs=1e-9)
    n = 27
    field = np.full(n, 0.9)
    total = relative_entropy_product(field, np.full(n, 0.5))
    assert total == pytest.approx(n * val)
    assert total <= n * val + 1e-12


def test_relative_entropy_errors_and_edges():
    assert relative_entropy_product([0.0, 1.0], [0.4, 0.6]) > 0
    # degenerate reference where the state marginal is interior: precondition
    with pytest.raises(ConfigError):
        relative_entropy_product([0.5], [0.0])
    with pytest.raises(ConfigError):
        relative_entropy_product([0.5], [1.2])


def test_entropy_matches_exhaustive_enumeration():
    geom = TorusGeometry(2, 3)
    rng = np.random.default_rng(11)
    mu_m = rng.uniform(0.1, 0.9, geom.n_sites)
    nu_m = rng.uniform(0.2, 0.8, geom.n_sites)
    closed = relative_entropy_product(mu_m, nu_m)
    mu = product_distribution(geom, mu_m)
    nu = product_distribution(geom, nu_m)
    exhaustive = relative_entropy_distributions(mu, nu)
    assert exhaustive == pytest.approx(closed, abs=1e-9)


def test_variational_inequality():
    # for any test function: mean minus log moment bound is below the entropy
    geom = TorusGeometry(2, 3)
    rng = np.random.default_rng(12)
    mu = product_distribution(geom, rng.uniform(0.2, 0.8, 9))
    nu = product_distribution(geom, rng.uniform(0.3, 0.7, 9))
    kl = relative_entropy_distributions(mu, nu)
    for _ in range(5):
        f = rng.standard_normal(512)
        lower = float(mu @ f - np.log(nu @ np.exp(f)))
        assert lower <= kl + 1e-12
    # the optimizer log(mu/nu) attains it
    f_star = np.log(mu / nu)
    attained = float(mu @ f_star - np.log(nu @ np.exp(f_star)))
    assert attained == pytest.approx(kl, abs=1e-10)
