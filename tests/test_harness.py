import inspect
import json
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from torusgas.cli import main as cli_main
from torusgas.errors import ConfigError
from torusgas.harness import (_PDE_KEYS, _TOP_KEYS, _TRUNC_KEYS, ExperimentConfig,
                              _load_or_compute_table, _replica_job, compare_fields, emit_outputs,
                              pde_at_sites, pde_through, replica_results, replica_stream,
                              run_experiment)
from torusgas.lattice import TorusGeometry, site_probabilities
from torusgas.packed import TruncationParams
from torusgas.simulate import RngStream
from torusgas.pde import SAFETY, DensityField, DiffusionTable, SolveReport, solve_to_time
from torusgas.profiles import DRIFT_TOL, Profile, validate_profile
from torusgas.resolvent import RESIDUAL_REG

ROOT = Path(__file__).resolve().parents[1]


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "kernel": {"dimension": 2, "entries": [
            {"offset": [1, 0], "prob": 0.25}, {"offset": [-1, 0], "prob": 0.25},
            {"offset": [0, 1], "prob": 0.25}, {"offset": [0, -1], "prob": 0.25}]},
        "torus_sizes": [6],
        "profile": {"kind": "constant", "value": 0.5},
        "times": [0.05],
        "block_radius": 1,
        "replicas": 3,
        "master_seed": 31,
        "pde": {"resolution": 12},
        "output_dir": "out",
    }
    data.update(overrides)
    return data


def test_config_roundtrip():
    cfg = ExperimentConfig.from_dict(base_config())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(surprise=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(
            kernel={"dimension": 2, "entries": [], "extra": 0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(schema_version=99))
    # the direct-solve switch is gone: the key is unknown at schema version 1
    with pytest.raises(ConfigError, match="dense_threshold"):
        ExperimentConfig.from_dict(base_config(
            truncation={"radius": 2, "max_degree": 2, "dense_threshold": 100}))


def test_invalid_config_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(block_radius=5))  # exceeds N=6
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(times=[0.1, 0.05]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(
            profile={"kind": "cosine", "base": 0.5, "amplitude": 0.2, "axis": 7}))


def test_drift_profile_mismatch_rejected():
    # drifted kernel with a profile varying along the drift direction
    data = base_config(kernel={"dimension": 2, "entries": [
        {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
        {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]},
        profile={"kind": "cosine", "base": 0.5, "amplitude": 0.2, "axis": 0})
    cfg = ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_compare_fields_trivials():
    target = pde_at_sites(DensityField(np.full((8, 8), 0.4)), 8)
    emp = np.full(64, 0.4)
    out = compare_fields(emp, target)
    assert out == {"L1": 0.0, "L2": 0.0, "Linf": 0.0}
    shifted = compare_fields(emp + 0.07, target)
    for v in shifted.values():
        assert v == pytest.approx(0.07)
    checker = emp.copy().reshape(8, 8)
    checker[::2, :] += 0.05
    checker[1::2, :] -= 0.05
    out = compare_fields(checker.reshape(-1), target)
    assert out["L1"] == pytest.approx(0.05)
    assert out["L2"] == pytest.approx(0.05)


def _site_points(d, side):
    """The points x/N of every site x, in flat-index order."""
    return np.indices((side,) * d).reshape(d, -1).T / side


@pytest.mark.parametrize("resolution", [64, 18, 12, 20, 30])
def test_site_values_are_the_pointwise_values_at_x_over_n(tmp_path, resolution):
    # sides that divide the grid resolution and sides that do not; the slab
    # loop gives the values of one evaluation at every point x/N
    rng = np.random.default_rng(resolution)
    csv = tmp_path / "grid.csv"
    np.savetxt(csv, rng.uniform(0.1, 0.9, (1, resolution ** 2)), delimiter=",")
    profiles = [Profile.constant(3, 0.3), Profile.from_spec(2, {"kind": "csv", "path": str(csv)})]
    profiles += [Profile.cosine(3, 0.5, 0.2, axis=a) for a in range(3)]
    # full fields in d = 1, 2, 3 and fields with collapsed axes
    fields = [DensityField(rng.uniform(0.2, 0.8, [resolution if a in varying else 1
                                                  for a in range(d)]), resolution)
              for d, varying in [(1, (0,)), (1, ()), (2, (0, 1)), (2, (1,)), (3, (0, 1, 2)),
                                 (3, (1,)), (3, (0, 2))]]
    for side in (3, 7, 8, 12, 16, 24, 32):
        for profile in profiles:
            geom = TorusGeometry(profile.dimension, side)
            assert np.array_equal(site_probabilities(geom, profile),
                                  profile.values_at(_site_points(profile.dimension, side)))
        for fld in fields:
            assert np.array_equal(pde_at_sites(fld, side),
                                  fld.evaluate(_site_points(fld.dimension, side)))


def test_site_grids_build_no_coordinate_array(kernel_d3_asym):
    # at N = 32 in d = 3 one (n_sites, d) coordinate array is 0.75 MiB; the
    # neighbor table itself (six int32 columns) is 0.75 MiB
    geom = TorusGeometry(3, 32)
    profile = Profile.cosine(3, 0.5, 0.2, axis=1)
    fld = DensityField.from_profile(profile, 64)
    calls = {"neighbor_table": (lambda: geom.neighbor_table(kernel_d3_asym.kernel.offsets), 1.2),
             "site_probabilities": (lambda: site_probabilities(geom, profile), 0.5),
             "pde_at_sites": (lambda: pde_at_sites(fld, 32), 1.0)}
    for name, (call, bound_mib) in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20, (name, peak)


def test_run_and_outputs_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(output_dir=str(tmp_path / "o1")))
    rep1 = run_experiment(cfg)
    emit_outputs(rep1, cfg.output_dir, ["json", "csv", "dat"])
    rep2 = run_experiment(cfg)
    emit_outputs(rep2, str(tmp_path / "o2"), ["json", "csv", "dat"])
    b1 = (tmp_path / "o1" / "report.json").read_bytes()
    b2 = (tmp_path / "o2" / "report.json").read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert data["rows"][0]["N"] == 6
    assert all(r["L1"] >= 0 for r in data["rows"])
    # constant symmetric setup: mean field distance near the sampling floor
    floor = np.sqrt(0.25 / (9 * cfg.replicas))
    assert data["rows"][0]["L1"] <= 4 * floor


def test_run_experiment_rows_single_size():
    # one row per (size, time), with one per-replica distance per replica
    cfg = ExperimentConfig.from_dict(base_config())
    report = run_experiment(cfg)
    row, = report.rows
    assert set(row) == {"N", "t", "L1", "L2", "Linf", "per_replica_L1"}
    assert (row["N"], row["t"]) == (6, 0.05)
    assert len(row["per_replica_L1"]) == cfg.replicas
    assert report.monotone_in_size == {"0.05": True}


def test_empty_report_files(tmp_path):
    from torusgas.harness import ComparisonReport

    rep = ComparisonReport(config={}, rows=[], monotone_in_size={},
                           table_asymmetry=0.0)
    files = emit_outputs(rep, tmp_path, ["json", "csv", "dat"])
    assert (tmp_path / "distances.csv").read_text().startswith("N,t,L1")
    assert len(files) == 3


def test_cli_subcommands(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "cli_out"),
        torus_sizes=[4], replicas=2,
        exact={"side": 3, "replicas": 500, "alpha": 0.3, "times": [0.05]})))
    assert cli_main(["kernel", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "kernel.json").exists()
    assert cli_main(["compare", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "report.json").exists()
    assert cli_main(["exact", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "exact_diagnostics.json").exists()
    assert cli_main(["pde", "--config", str(cfg_path)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    # config errors exit with code 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(times=[0.2, 0.1])))
    assert cli_main(["compare", "--config", str(bad)]) == 2


def test_cli_diffusion_feeds_pde(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "dout"),
        alpha_grid=[0.3, 0.7],
        truncation={"radius": 2, "max_degree": 2})))
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 0
    data = json.loads((tmp_path / "dout" / "diffusion.json").read_text())
    assert data["truncation"]["radius"] == 2
    table_path = tmp_path / "dout" / "table.json"
    assert table_path.exists()
    assert (tmp_path / "dout" / "diffusion.csv").read_text().startswith("alpha,")
    # the emitted coefficient table drives the PDE stage directly
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "pout"),
        diffusion_table=str(table_path),
        profile={"kind": "cosine", "base": 0.5, "amplitude": 0.1, "axis": 1})))
    assert cli_main(["pde", "--config", str(cfg2)]) == 0
    assert (tmp_path / "pout" / "pde_t0.05.csv").exists()
    # the computed table carries the end nodes a(0) = a(1) = sigma / 2; a
    # stored table keeps the densities it holds, and a profile reaching past
    # them is a config error in every command that solves the PDE, not a
    # silent clamp to the end nodes
    table = json.loads(table_path.read_text())
    assert table["alphas"] == [0.0, 0.3, 0.7, 1.0]
    assert table["matrices"][0] == table["matrices"][-1] == table["floor_matrix"]
    narrow_path = tmp_path / "narrow.json"
    narrow_path.write_text(json.dumps(dict(table, alphas=table["alphas"][1:-1],
                                           matrices=table["matrices"][1:-1])))
    cfg3 = tmp_path / "cfg3.json"
    cfg3.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "wide"), diffusion_table=str(narrow_path), delta0=0.01,
        profile={"kind": "cosine", "base": 0.5, "amplitude": 0.45, "axis": 1},
        exact={"side": 3, "replicas": 10})))
    for command in ("pde", "compare", "exact"):
        assert cli_main([command, "--config", str(cfg3)]) == 2
        assert "leave the coefficient table's range [0.3, 0.7]" in capsys.readouterr().err
    assert not list((tmp_path / "wide").glob("pde_t*"))


def test_computed_table_reaches_both_end_densities(tmp_path):
    # D(0) = 0 and D(1) = sigma, so a computed table adds the nodes
    # a(0) = a(1) = sigma / 2; a profile from 0.1 to 0.9 then stays inside it
    # although rounding takes its minimum below the grid's first density 0.1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "o"), times=[0.01],
        kernel={"dimension": 2, "entries": [
            {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
            {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]},
        profile={"kind": "cosine", "base": 0.5, "amplitude": 0.4, "axis": 1})))
    for command in ("pde", "compare"):
        assert cli_main([command, "--config", str(cfg_path)]) == 0
    cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
    assert cfg.checked_profile().sample_grid(cfg.pde_resolution).min() < 0.1
    table = _load_or_compute_table(cfg, {})
    assert table.alphas[0] == 0.0 and table.alphas[-1] == 1.0
    assert np.array_equal(table.alphas[1:-1], cfg.alpha_grid)
    half_sigma = 0.5 * cfg.analysis.covariance
    assert np.array_equal(table.matrices[0], half_sigma)
    assert np.array_equal(table.matrices[-1], half_sigma)


def test_diffusion_reports_orbits_and_writes_run_meta(tmp_path):
    # the exact-tiny kernel: y -> -y preserves it and fixes its odd support
    kernel = {"dimension": 2, "entries": [
        {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
        {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "d"), kernel=kernel, alpha_grid=[0.3, 0.7],
        truncation={"radius": 2, "max_degree": 3})))
    assert cli_main(["kernel", "--config", str(cfg_path)]) == 0
    group = json.loads((tmp_path / "d" / "kernel.json").read_text())["group"]
    assert group == [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 0
    data = json.loads((tmp_path / "d" / "diffusion.json").read_text())
    solver = data["solver"]
    for rec in (solver, data["truncation"]):
        assert rec["symmetry_order"] == 2
        assert rec["classes"] < 2 * rec["orbits"] and rec["orbits"] < rec["classes"]
        assert rec["classes"] < rec["space_size"]
    assert sorted(solver["clipped_outflow"]) == ["0.3", "0.7"]
    assert solver["max_clipped_outflow"] == max(solver["clipped_outflow"].values()) > 0.0
    meta = json.loads((tmp_path / "d" / "run_meta.json").read_text())
    rec = meta["diffusion"]
    assert (rec["classes"], rec["orbits"]) == (solver["classes"], solver["orbits"])
    assert rec["nnz"] > rec["orbits"] and meta["peak_rss_mb"] > 0.0
    assert rec["enumerate_s"] >= 0.0 and rec["assemble_s"] >= 0.0
    assert sorted(rec["densities"]) == ["0.3", "0.7"]
    # 0.7 is filled from its particle-hole mirror 0.3 and solves nothing
    mirrored = rec["densities"]["0.7"]
    assert mirrored["mirror_of"] == 0.3 and len(mirrored["shifts"]) == 4
    assert all(shift == {"matvecs": 0} for shift in mirrored["shifts"].values())
    solved = rec["densities"]["0.3"]
    assert solved["seconds"] > 0.0 and len(solved["shifts"]) == 4
    for shift in solved["shifts"].values():
        assert shift["matvecs"] > 0 and 0.0 < shift["residual"] <= 1e-10
    assert sum(shift["matvecs"] for shift in solved["shifts"].values()) == solver["iterations"]
    assert "wall_time" not in data and "peak_rss_mb" not in solver


def test_threads_option_matches_sequential(tmp_path):
    cfg1 = ExperimentConfig.from_dict(base_config(torus_sizes=[4], replicas=2))
    cfg2 = ExperimentConfig.from_dict(base_config(torus_sizes=[4], replicas=2,
                                                  threads=2))
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    # every distance, per-replica ones included, to the bit
    assert r1.rows == r2.rows and r1.monotone_in_size == r2.monotone_in_size


def test_process_pool_is_no_larger_than_the_replica_count(monkeypatch):
    # the pool forks all its workers at the first submit, so it gets at
    # most one per replica; a recorder stands in for it and starts no process
    import concurrent.futures

    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    want = {}
    for threads, replicas, asked in ((64, 2, [2]), (8, 1, []), (1, 2, [])):
        cfg = ExperimentConfig.from_dict(base_config(torus_sizes=[4], replicas=replicas,
                                                     threads=threads))
        pools.clear()
        record = {}
        got = list(replica_results(cfg, 0, record))
        assert pools == asked and record["replicas"] == replicas
        want.setdefault(replicas, got)
        assert all(np.array_equal(a[t], b[t]) for a, b in zip(got, want[replicas])
                   for t in a)


@pytest.mark.parametrize("path", [("times",), ("kernel", "entries"),
                                  ("kernel", "entries", 0, "prob"), ("profile", "kind"),
                                  ("profile", "value"), ("truncation", "radius")])
def test_missing_key_is_config_error(tmp_path, path):
    data = base_config(truncation={"radius": 2, "max_degree": 2})
    section = data
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    with pytest.raises(ConfigError, match=repr(path[-1])):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["kernel", "--config", str(cfg_path)]) == 2


def test_code_keyerror_is_not_a_config_error(tmp_path, monkeypatch):
    import torusgas.cli as cli

    def broken(_args):
        raise KeyError("internal")

    monkeypatch.setitem(cli._COMMANDS, "kernel", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    with pytest.raises(KeyError):
        cli_main(["kernel", "--config", str(cfg_path)])


def test_flush_error_reaches_the_caller(tmp_path, monkeypatch, capsys):
    import torusgas.harness as harness

    def replica_fails(*_args):
        raise ConfigError("replica blew up")

    # output_dir names a regular file, so the partial-output flush fails too
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(harness, "_replica_job", replica_fails)
    data = base_config(output_dir=str(blocker))
    with pytest.raises(ConfigError, match="replica blew up"):
        run_experiment(ExperimentConfig.from_dict(data))
    err = capsys.readouterr().err
    assert "partial-output flush failed: FileExistsError" in err
    # through the CLI: the original error sets the exit code, and both
    # messages reach stderr
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["compare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "partial-output flush failed: FileExistsError" in err
    assert "config error: replica blew up" in err


def test_table_missing_key_is_config_error(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"alphas": [0.2, 0.5, 0.8]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(diffusion_table=str(table_path),
                                               output_dir=str(tmp_path / "o"))))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 2
    assert "missing key 'matrices' in diffusion table" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["replicas", "exact"])
def test_replica_count_has_no_stream_bound(tmp_path, key):
    # comparison streams are keyed (2, size_index, replica) and exact batch
    # streams (1, batch), so no replica count makes two keys collide (the
    # config is parsed, not run)
    count = 2 ** 19 + 1
    value = count if key == "replicas" else {"side": 3, "replicas": count}
    cfg = ExperimentConfig.from_dict(base_config(output_dir=str(tmp_path / "o"),
                                                 **{key: value}))
    assert (cfg.replicas if key == "replicas" else cfg.exact_replicas) == count


def test_replica_streams_differ_across_sizes_and_replicas():
    # (0, 2**20) and (1, 0) shared the one-word key (size_index << 20) | r
    cfg = ExperimentConfig.from_dict(base_config(torus_sizes=[4, 6]))
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2 ** 20), (1, 2 ** 20)]
    streams = [replica_stream(cfg, i, r) for i, r in pairs]
    assert all(isinstance(s, RngStream) for s in streams)
    draws = {tuple(s.generator().integers(0, 2 ** 62, size=4)) for s in streams}
    assert len(draws) == len(pairs)
    again = replica_stream(cfg, 1, 2 ** 20).generator().integers(0, 2 ** 62, size=4)
    assert tuple(again) in draws


@pytest.mark.parametrize("data, key", [
    ({"times": [0.05, 0.05]}, "times"),
    ({"times": [0.1, 0.05]}, "times"),
    ({"times": [-0.05, 0.05]}, "times"),
    ({"exact": {"times": [0.3, 0.1]}}, "exact.times"),
    ({"exact": {"times": [0.1, 0.1]}}, "exact.times"),
])
def test_observation_times_must_strictly_increase(tmp_path, data, key):
    # a repeated time used to add each replica's field twice, and descending
    # exact times failed inside the evolution without naming the key
    config = base_config(output_dir=str(tmp_path / "o"), **data)
    with pytest.raises(ConfigError, match=f"^{key} must be nonnegative and strictly"):
        ExperimentConfig.from_dict(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    command = "exact" if key == "exact.times" else "compare"
    assert cli_main([command, "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [0, -3])
def test_exact_replica_count_below_one_is_config_error(tmp_path, count):
    # an empty exact ensemble has no histogram to compare; it is rejected at
    # parse time instead of reporting a NaN distance
    data = base_config(output_dir=str(tmp_path / "o"),
                       exact={"side": 3, "replicas": count})
    with pytest.raises(ConfigError, match="at least one exact"):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["exact", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("alpha", [1.5, -0.1, 0.0, 1.0, float("nan"), float("inf")])
def test_exact_alpha_outside_unit_interval_is_config_error(tmp_path, capsys, alpha):
    # the flat reference density is rejected at parse time, before the exact
    # evolution runs and fails for a reason that does not name it
    data = base_config(output_dir=str(tmp_path / "o"),
                       exact={"side": 3, "replicas": 10, "alpha": alpha})
    with pytest.raises(ConfigError, match="exact.alpha"):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["exact", "--config", str(cfg_path)]) == 2
    assert "exact.alpha" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    data["exact"]["alpha"] = 0.15
    assert ExperimentConfig.from_dict(data).exact["alpha"] == 0.15


@pytest.mark.parametrize("where, value", [
    ("exact.alpha", "high"), ("replicas", "many"), ("torus_sizes entry", "big")])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, where, value):
    # a value that does not convert exits 2 naming its key, not with a
    # traceback and exit code 1
    data = base_config(output_dir=str(tmp_path / "o"), exact={"side": 3, "replicas": 10})
    if where == "exact.alpha":
        data["exact"]["alpha"] = value
    elif where == "replicas":
        data["replicas"] = value
    else:
        data["torus_sizes"] = [6, value]
    with pytest.raises(ConfigError, match=where):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    for command in ("exact", "compare"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert where in err and repr(value) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("formats", ["json", ["jsn"], ["json", 1], ["json", "plot"],
                                     ["binary"]])
def test_unknown_output_format_is_config_error(tmp_path, capsys, formats):
    # a bare string used to parse as its letters and an unknown name was
    # ignored: `compare` then wrote no report and still exited 0.  Each
    # format has one name: "plot" and "binary" are no aliases of dat and npy
    data = base_config(output_dir=str(tmp_path / "o"), formats=formats)
    with pytest.raises(ConfigError, match="formats"):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["compare", "--config", str(cfg_path)]) == 2
    assert "formats must be a list of names from ['json', 'csv', 'dat', 'npy']" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()
    data["formats"] = ["json", "csv", "dat", "npy"]
    assert ExperimentConfig.from_dict(data).formats == data["formats"]


def test_truncation_defaults_live_in_truncation_params():
    # the residual tolerance and the shift ladder are class constants, read
    # through every instance; radius and degree are the only fields
    cfg = ExperimentConfig.from_dict(base_config(truncation={"radius": 3, "max_degree": "2"}))
    assert cfg.truncation == TruncationParams(radius=3, max_degree=2)
    assert [f.name for f in fields(TruncationParams)] == ["radius", "max_degree"]
    assert (TruncationParams.solver_tol, TruncationParams.lambda_seq) == (
        1e-10, (1e-1, 1e-2, 1e-3, 1e-4))
    assert (cfg.truncation.solver_tol, cfg.truncation.lambda_seq) == (
        TruncationParams.solver_tol, TruncationParams.lambda_seq)
    # the run path takes the config alone, and the eigenvalue scan its range
    assert list(inspect.signature(run_experiment).parameters) == ["cfg"]
    assert list(inspect.signature(DiffusionTable.max_eigenvalue).parameters) == [
        "self", "lo", "hi"]


def test_pde_and_profile_defaults_have_one_owner():
    # the step fraction, the drift tolerance and the residual regularization
    # are module constants, read where they act; no parameter carries them
    assert (SAFETY, DRIFT_TOL, RESIDUAL_REG) == (0.9, 1e-10, 1e-3)
    assert list(inspect.signature(solve_to_time).parameters) == [
        "field", "table", "t_final", "report"]
    assert list(inspect.signature(validate_profile).parameters) == [
        "profile", "drift", "delta0"]
    rep = SolveReport()
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 12)
    solve_to_time(f0, DiffusionTable.from_callable(lambda a: 0.25 * np.eye(2), 2, nodes=2),
                  0.05, report=rep)
    assert rep.steps > 1 and rep.dt == SAFETY * rep.stability_limit
    # |q . grad rho| of a cosine with amplitude a along the drift is about 6.3 a
    for amplitude, constant in ((1e-12, True), (1e-10, False)):
        diag = validate_profile(Profile.cosine(2, 0.5, amplitude, axis=0), [1.0, 0.0], 0.1)
        assert diag["drift_constant"] is constant


def test_parser_and_echo_list_the_same_keys():
    # every accepted key set: the echo holds exactly the accepted keys, and
    # parsing the echo gives the same config
    data = base_config(
        profile=_COSINE, delta0=0.1, alpha_grid=[0.3, 0.6], diffusion_table="table.json",
        truncation={"radius": 3, "max_degree": 2},
        formats=["json"], threads=2, exact={"side": 3, "replicas": 10, "alpha": 0.4,
                                            "times": [0.05]}, label="all-keys")
    assert set(data) == _TOP_KEYS
    cfg = ExperimentConfig.from_dict(data)
    echo = cfg.to_dict()
    assert set(echo) == _TOP_KEYS
    assert set(echo["truncation"]) == _TRUNC_KEYS
    assert set(echo["pde"]) == _PDE_KEYS
    assert ExperimentConfig.from_dict(echo).to_dict() == echo
    assert echo["truncation"] == {"radius": 3, "max_degree": 2}


@pytest.mark.parametrize("command, data, key", [
    ("pde", {"pde": {"resolution": 12, "safety": 0.9}}, "safety"),
    ("compare", {"drift_tol": 1e-10}, "drift_tol"),
    ("diffusion", {"truncation": {"radius": 2, "max_degree": 2, "reg": 1e-3}}, "reg"),
    ("diffusion", {"truncation": {"radius": 2, "max_degree": 2, "solver_tol": 1e-9}},
     "solver_tol"),
    ("diffusion", {"truncation": {"radius": 2, "max_degree": 2,
                                  "lambda_seq": [0.1, 0.01, 0.001]}}, "lambda_seq"),
])
def test_removed_key_is_config_error(tmp_path, capsys, command, data, key):
    # the step fraction, the drift tolerance, the residual regularization,
    # the solver tolerance and the shift ladder are constants; a config that
    # still sets one is refused, not obeyed
    config = base_config(output_dir=str(tmp_path / "o"), alpha_grid=[0.3], **data)
    with pytest.raises(ConfigError, match=f"unknown keys in .*'{key}'"):
        ExperimentConfig.from_dict(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown keys in" in err and f"'{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_keeps_its_validated_values():
    # the kernel analysis and the typed exact values are derived once, at
    # parse time; the serialized config keeps the values as written, and
    # the derived ones survive the pickling a process pool does
    data = base_config(exact={"side": "3", "replicas": "10", "alpha": "0.2"})
    cfg = pickle.loads(pickle.dumps(ExperimentConfig.from_dict(data)))
    assert (cfg.exact_side, cfg.exact_replicas, cfg.exact_alpha) == (3, 10, 0.2)
    assert cfg.exact_times == cfg.times == [0.05]
    assert np.array_equal(cfg.analysis.sym_weights, [0.25] * 4)
    assert cfg.to_dict()["exact"] == data["exact"]


def test_diffusion_run_meta_records_engine_memory(tmp_path, monkeypatch):
    # `engine_mb` is the nbytes sum of every array the engine, its orbit
    # level and its class level keep, the composed slot weights of the last
    # density included
    import torusgas.resolvent as resolvent

    engines = []
    build = resolvent.assemble

    def keeping(space, analysis):
        engines.append(build(space, analysis))
        return engines[-1]

    monkeypatch.setattr(resolvent, "assemble", keeping)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "d"), alpha_grid=[0.3, 0.6],
        truncation={"radius": 2, "max_degree": 2})))
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 0
    eng, = engines
    space, classes = eng.space, eng.space.classes
    arrays = [eng.slot_rows, *eng.slot_cols, *eng.slot_class, eng.class_even, eng.class_odd,
              *eng._composed,
              eng.diag_even, eng.change_rows, eng.change_cols, eng.change_vals,
              eng.clip_weight, eng.currents,
              space.rep, space.orbit, space.orbit_size, space.degree, space.weight,
              classes.pool, classes._pos, classes._index, classes.offsets, classes.codes]
    meta = json.loads((tmp_path / "d" / "run_meta.json").read_text())
    assert meta["diffusion"]["engine_mb"] == sum(a.nbytes for a in arrays) / 2 ** 20


def test_run_meta_records_pde_solves(tmp_path):
    data = base_config(output_dir=str(tmp_path / "o"), times=[0.02, 0.05],
                       profile={"kind": "cosine", "base": 0.5, "amplitude": 0.2,
                                "axis": 1})
    cfg = ExperimentConfig.from_dict(data)
    report = run_experiment(cfg)
    emit_outputs(report, cfg.output_dir, ["json"])
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    assert [row["t"] for row in meta["pde"]] == [0.02, 0.05]
    for row in meta["pde"]:
        assert row["steps"] >= 1 and 0.0 < row["dt"] <= row["stability_limit"]
        assert row["shape"] == [1, 12]  # constant along axis 0
        assert row["mass_drift"] <= 1e-10 and row["seconds"] >= 0.0
    assert "pde" not in json.loads((tmp_path / "o" / "report.json").read_text())


def test_replicas_are_folded_as_they_arrive(monkeypatch):
    # each replica's fields are folded into the sums and distances before
    # the next replica runs, so no list of every replica's fields is held
    import torusgas.harness as harness

    events = []
    job, compare = harness._replica_job, harness.compare_fields
    monkeypatch.setattr(harness, "_replica_job",
                        lambda *args: events.append("job") or job(*args))
    monkeypatch.setattr(harness, "compare_fields",
                        lambda *args: events.append("fold") or compare(*args))
    report = run_experiment(ExperimentConfig.from_dict(base_config(replicas=3)))
    assert events == ["job", "fold"] * 3 + ["fold"]
    assert report.simulate[0]["replicas"] == 3


def test_compare_records_stage_seconds_in_run_meta(tmp_path):
    # the stages cover the call and go to run_meta.json, not to the report
    data = base_config(output_dir=str(tmp_path / "o"), torus_sizes=[4, 6], times=[0.05, 0.1],
                       profile={"kind": "cosine", "base": 0.5, "amplitude": 0.2,
                                "axis": 1})
    cfg = ExperimentConfig.from_dict(data)
    start = time.perf_counter()
    report = run_experiment(cfg)
    wall = time.perf_counter() - start
    stages = report.stages
    assert set(stages) == {"profile_s", "table_s", "pde_s", "simulate_s", "fold_s"}
    assert min(stages.values()) > 0.0
    assert sum(stages.values()) >= 0.9 * wall
    emit_outputs(report, cfg.output_dir, ["json"])
    assert json.loads((tmp_path / "o" / "run_meta.json").read_text())["compare"] == stages
    written = json.loads((tmp_path / "o" / "report.json").read_text())
    assert written == json.loads(json.dumps(report.to_dict()))
    assert not {"stages", "compare"} & set(written)


def test_diffusion_records_stage_seconds_in_run_meta(tmp_path):
    # enumeration, assembly, the densities' solves and the writing of the
    # result files (`write_s`, which the record lacked) cover the command;
    # what is left is reading the config and writing run_meta.json itself
    import torusgas.cli as cli

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "d"), alpha_grid=[0.3, 0.6],
        truncation={"radius": 2, "max_degree": 3},
        kernel={"dimension": 3, "entries": [
            {"offset": [1, 0, 0], "prob": 1 / 2}, {"offset": [-1, 0, 0], "prob": 1 / 6},
            {"offset": [0, 1, 0], "prob": 1 / 12}, {"offset": [0, -1, 0], "prob": 1 / 12},
            {"offset": [0, 0, 1], "prob": 1 / 12}, {"offset": [0, 0, -1], "prob": 1 / 12}]})))
    args = cli.build_parser().parse_args(["diffusion", "--config", str(cfg_path)])
    start = time.perf_counter()
    assert cli.cmd_diffusion(args) == 0
    wall = time.perf_counter() - start
    rec = json.loads((tmp_path / "d" / "run_meta.json").read_text())["diffusion"]
    stages = [rec["enumerate_s"], rec["assemble_s"], rec["write_s"],
              *(density["seconds"] for density in rec["densities"].values())]
    assert len(stages) == 5 and min(stages) > 0.0
    assert sum(stages) >= 0.9 * wall


_COUNTS = ("expected_events", "events", "jumps", "rounds")


def test_run_meta_records_simulation_per_size(tmp_path):
    # one record per torus size, summed over the replicas; the counts are
    # the same whether the replicas run in a pool or in sequence
    metas = []
    for threads in (1, 2):
        data = base_config(output_dir=str(tmp_path / f"o{threads}"), torus_sizes=[4, 6],
                           replicas=3, times=[0.05, 0.1], threads=threads)
        cfg = ExperimentConfig.from_dict(data)
        report = run_experiment(cfg)
        emit_outputs(report, cfg.output_dir, ["json"])
        meta = json.loads((tmp_path / f"o{threads}" / "run_meta.json").read_text())
        assert "simulate" not in json.loads(
            (tmp_path / f"o{threads}" / "report.json").read_text())
        metas.append(meta["simulate"])
    def counts(records):
        return [{k: rec[k] for k in ("N", "replicas") + _COUNTS} for rec in records]

    assert counts(metas[1]) == counts(metas[0])
    for rec, n in zip(metas[0], (4, 6)):
        assert rec["N"] == n and rec["replicas"] == 3
        # three replicas, each running 0.1 N^2 microscopic time on N^2 sites
        assert rec["expected_events"] == pytest.approx(3 * 0.1 * n ** 4)
        assert rec["events"] > 0 and 0 < rec["jumps"] < rec["events"]
        assert 0 < rec["rounds"] <= rec["events"] and rec["seconds"] > 0.0
    # the records are the sums of the replicas' own records
    cfg = ExperimentConfig.from_dict(base_config(torus_sizes=[4, 6], replicas=3,
                                                 times=[0.05, 0.1]))
    probs = site_probabilities(TorusGeometry(2, 6), cfg.build_profile())
    records = [_replica_job(cfg, 1, r, probs)[1] for r in range(3)]
    for key in _COUNTS:
        assert metas[0][1][key] == sum(rec[key] for rec in records)


def test_simulate_command_writes_run_meta(tmp_path):
    data = base_config(output_dir=str(tmp_path / "sim"), torus_sizes=[4],
                       replicas=2, formats=["csv"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "sim" / "run_meta.json").read_text())
    rec, = meta["simulate"]
    assert rec["N"] == 4 and rec["replicas"] == 2
    assert rec["expected_events"] == pytest.approx(2 * 0.05 * 4 ** 4)


def test_run_meta_records_the_wavefront_window(tmp_path):
    # each size's record names the window its trajectories ran in: the
    # smallest on the 4 x 4 torus, half the sites on the 48 x 48 one
    data = base_config(output_dir=str(tmp_path / "sim"), torus_sizes=[4, 48],
                       replicas=1, times=[0.01], formats=["csv"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    small, big = json.loads((tmp_path / "sim" / "run_meta.json").read_text())["simulate"]
    assert small["window"] == 1024 and big["window"] == 48 * 48 // 2
    assert big["rounds"] >= big["events"] / big["window"]


def test_simulate_writes_the_replica_job_fields(tmp_path):
    # `torusgas simulate` and the comparison ensemble run the same replica
    # loop on the same substreams
    data = base_config(output_dir=str(tmp_path / "sim"), torus_sizes=[4, 5],
                       replicas=2, times=[0.05, 0.1], formats=["npy"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    cfg = pickle.loads(pickle.dumps(ExperimentConfig.from_dict(data)))
    for size_index, n in enumerate(cfg.torus_sizes):
        probs = site_probabilities(TorusGeometry(cfg.dimension, n), cfg.build_profile())
        for r in range(cfg.replicas):
            fields, _ = _replica_job(cfg, size_index, r, probs)
            assert list(fields) == cfg.times
            for t, blocks in fields.items():
                written = np.load(tmp_path / "sim" / f"blocks_N{n}_t{t}_r{r}.npy")
                assert np.array_equal(written.reshape(-1), blocks)


_COSINE = {"kind": "cosine", "base": 0.5, "amplitude": 0.2, "axis": 1}


@pytest.mark.parametrize("seq", [["x"], [0.01], [0.01, 0.01], [0.1, 0.0], [0.1, -1e-3],
                                 [0.1, float("nan")], [0.1, float("inf")], [], 0.1])
def test_bad_shift_sequence_is_config_error(tmp_path, capsys, seq):
    # these once exited 1 with a traceback, or 0 with an all-zero spread;
    # the shift ladder is now a constant, so a config carrying any sequence
    # is refused as an unknown key before its entries are read
    data = base_config(output_dir=str(tmp_path / "o"), alpha_grid=[0.3],
                       truncation={"radius": 2, "max_degree": 2, "lambda_seq": seq})
    with pytest.raises(ConfigError, match=r"unknown keys in truncation: \['lambda_seq'\]"):
        ExperimentConfig.from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown keys in truncation: ['lambda_seq']" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_diffusion_command_exits_1_when_a_solve_stalls(tmp_path, capsys, monkeypatch):
    # a tolerance no Krylov run reaches; the odd part of this kernel gives
    # every solve a nonzero right side
    monkeypatch.setattr(TruncationParams, "solver_tol", 1e-30)
    data = base_config(output_dir=str(tmp_path / "o"), alpha_grid=[0.3],
                       truncation={"radius": 2, "max_degree": 2},
                       kernel={"dimension": 2, "entries": [
                           {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
                           {"offset": [0, 1], "prob": 0.125},
                           {"offset": [0, -1], "prob": 0.125}]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 1
    assert "invariant violation: resolvent solve failed" in capsys.readouterr().err
    assert not (tmp_path / "o" / "diffusion.json").exists()


_NAN_PROB = {"dimension": 2, "entries": [
    {"offset": [1, 0], "prob": float("nan")}, {"offset": [-1, 0], "prob": 1.0}]}


@pytest.mark.parametrize("command, data, flags, key", [
    ("compare", {"master_seed": -1}, [], "master_seed"),
    ("compare", {}, ["--seed", "-1"], "master_seed"),
    ("pde", {"pde": {"resolution": 0}}, [], "pde.resolution"),
    ("pde", {"pde": {"resolution": -4}}, [], "pde.resolution"),
    ("diffusion", {"alpha_grid": []}, [], "alpha_grid"),
    ("diffusion", {"alpha_grid": [0.3, 0.3, 0.5]}, [], "alpha_grid"),
    ("diffusion", {"alpha_grid": [0.3, 1.5]}, [], "alpha_grid"),
    ("compare", {"threads": 0}, [], "threads"),
    ("compare", {}, ["--threads", "0"], "threads"),
    ("compare", {"torus_sizes": []}, [], "torus_sizes"),
    ("compare", {"times": []}, [], "times"),
    ("exact", {"exact": {"times": []}}, [], "exact.times"),
    ("compare", {"torus_sizes": [6, 6]}, [], "torus_sizes"),
    ("compare", {"torus_sizes": [16, 8]}, [], "torus_sizes"),
    ("compare", {"delta0": -0.1}, [], "delta0"),
    ("compare", {"delta0": 0}, [], "delta0"),
    ("compare", {"delta0": float("nan")}, [], "delta0"),
    ("compare", {"delta0": 0.6}, [], "delta0"),
    ("compare", {"output_dir": 5}, [], "output_dir"),
    ("compare", {"profile": {"kind": "csv", "path": 3}}, [], "profile.path"),
    ("pde", {"pde": 5}, [], "pde"),
    ("exact", {"exact": 5}, [], "exact"),
    ("compare", {"kernel": {"dimension": 2, "entries": [
        {"offset": [1, 0], "prob": "a"}, {"offset": [-1, 0], "prob": 0.5}]}},
     [], "kernel prob"),
    ("compare", {"kernel": {"dimension": 2, "entries": [
        {"offset": ["a", 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.5}]}},
     [], "kernel offset entry"),
    ("compare", {"diffusion_table": 7}, [], "diffusion_table"),
    ("compare", {"diffusion_table": True}, [], "diffusion_table"),
    ("compare", {"kernel": {"dimension": 2, "entries": 5}}, [], "kernel.entries"),
    ("compare", {"kernel": {"dimension": 2, "entries": [
        {"offset": [1], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.5}]}},
     [], "kernel offset"),
    ("compare", {"replicas": 2.7}, [], "replicas"),
    ("compare", {"block_radius": 1.9}, [], "block_radius"),
    ("compare", {"master_seed": True}, [], "master_seed"),
    ("compare", {"kernel": {"dimension": 2, "entries": [
        {"offset": [1.5, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.5}]}},
     [], "kernel offset entry"),
    # JSON readers accept NaN and Infinity: a NaN weight passed the kernel
    # check (`kernel` exited 0 with a NaN drift, `diffusion` 1), and an
    # infinite time made `pde` step forever
    ("kernel", {"kernel": _NAN_PROB}, [], "kernel prob"),
    ("diffusion", {"kernel": _NAN_PROB}, [], "kernel prob"),
    ("pde", {"times": [0.02, float("inf")]}, [], "times entry"),
    ("exact", {"exact": {"times": [float("inf")]}}, [], "exact.times entry"),
    # a side of 1 passed the parse and failed in the size loop, after the
    # profile check, the table and the PDE solve, with files already written
    ("compare", {"torus_sizes": [1, 8], "block_radius": 0}, [], "torus_sizes"),
])
def test_out_of_domain_value_is_config_error(tmp_path, capsys, command, data, flags, key):
    # each used to crash inside the run (exit 1), name the wrong cause, or
    # run on with an empty or sequential result; the flags pass the same
    # checks as the config keys they override
    config = base_config(**{"output_dir": str(tmp_path / "o"), **data})
    if not flags:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must"):
            ExperimentConfig.from_dict(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_flags_override_seed_output_and_threads(tmp_path):
    # --seed, --out and --threads act exactly as the same config keys
    data = base_config(output_dir=str(tmp_path / "from_config"), torus_sizes=[4],
                       replicas=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "from_flag"
    assert cli_main(["compare", "--config", str(cfg_path), "--seed", "97",
                     "--out", str(out), "--threads", "2"]) == 0
    assert not (tmp_path / "from_config").exists()
    written = json.loads((out / "report.json").read_text())["config"]
    assert (written["master_seed"], written["output_dir"], written["threads"]) == (
        97, str(out), 2)
    cfg = ExperimentConfig.from_dict({**data, "master_seed": 97, "output_dir": str(out),
                                      "threads": 2})
    emit_outputs(run_experiment(cfg), tmp_path / "direct", ["json"])
    assert (out / "report.json").read_bytes() == (
        tmp_path / "direct" / "report.json").read_bytes()


def test_csv_profile_through_config(tmp_path):
    grid = Profile.cosine(2, 0.5, 0.2, axis=1).sample_grid(6)
    path = tmp_path / "profile.csv"
    np.savetxt(path, grid.reshape(1, -1), delimiter=",")
    spec = {"kind": "csv", "path": str(path)}
    cfg = ExperimentConfig.from_dict(base_config(profile=spec))
    assert np.array_equal(cfg.checked_profile().sample_grid(6), grid)
    assert cfg.to_dict()["profile"] == spec
    with pytest.raises(ConfigError, match="'path'"):
        ExperimentConfig.from_dict(base_config(profile={"kind": "csv"}))


_DRIFT_X = {"dimension": 2, "entries": [
    {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
    {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]}


@pytest.mark.parametrize("overrides, failed", [
    ({"kernel": _DRIFT_X, "profile": dict(_COSINE, axis=0)}, "'drift_constant': False"),
    ({"delta0": 0.4, "profile": _COSINE}, "'bounded_away': False"),
])
def test_every_run_checks_the_initial_profile(tmp_path, capsys, overrides, failed):
    # `pde` solved a profile that varies along the drift, or comes closer
    # to 0 or 1 than delta0, and exited 0 where `compare` and `simulate`
    # exit 2; now all three refuse it before making the output directory
    table_path = tmp_path / "table.json"
    DiffusionTable.from_callable(lambda a: 0.25 * np.eye(2), 2, nodes=2).save_json(table_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "o"), diffusion_table=str(table_path), **overrides)))
    for command in ("pde", "compare", "simulate"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "initial profile fails validation" in err and failed in err
    assert not (tmp_path / "o").exists()


def test_pde_command_refuses_a_one_node_table(tmp_path, capsys):
    # a one-node table was read as a constant; it is a config error now
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"alphas": [0.5],
                                      "matrices": [(0.25 * np.eye(2)).tolist()]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(output_dir=str(tmp_path / "o"),
                                               diffusion_table=str(table_path))))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 2
    assert "at least two density nodes, got 1" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("pde_t*"))


def test_pde_command_refuses_repeated_density_nodes(tmp_path, capsys):
    # two matrices at one density: the table silently read one of them
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"alphas": [0.3, 0.3, 0.7], "matrices": [
        (0.2 * np.eye(2)).tolist(), (0.3 * np.eye(2)).tolist(), (0.25 * np.eye(2)).tolist()]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(output_dir=str(tmp_path / "o"),
                                               diffusion_table=str(table_path))))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: coefficient table repeats the density node 0.3" in err
    assert not list((tmp_path / "o").glob("pde_t*"))


def test_pde_command_writes_npy(tmp_path):
    table_path = tmp_path / "table.json"
    table = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.08 + 0.03 * a]), 2)
    table.save_json(table_path)
    data = base_config(output_dir=str(tmp_path / "o"), profile=_COSINE,
                       times=[0.02, 0.05], diffusion_table=str(table_path),
                       formats=["csv", "npy"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 0
    # the npy grid is the full 12 x 12 field the solve reaches, equal to the
    # csv one
    fld = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 12)
    table = DiffusionTable.load_json(table_path)
    t_prev = 0.0
    for t in data["times"]:
        fld = solve_to_time(fld, table, t - t_prev)
        t_prev = t
        written = np.load(tmp_path / "o" / f"pde_t{t}.npy")
        assert written.shape == (12, 12)
        assert np.array_equal(written, fld.grid())
        csv = np.loadtxt(tmp_path / "o" / f"pde_t{t}.csv", delimiter=",")
        assert np.array_equal(csv.reshape(12, 12), written)


def test_pde_command_writes_run_meta(tmp_path):
    # one SolveReport record per observation time, as `compare` writes them
    table_path = tmp_path / "table.json"
    DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.08 + 0.03 * a]), 2).save_json(
        table_path)
    data = base_config(output_dir=str(tmp_path / "o"), profile=_COSINE,
                       times=[0.02, 0.05], diffusion_table=str(table_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    fld = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 12)
    replay = [solve for _, _, solve in pde_through(fld, DiffusionTable.load_json(table_path),
                                                    data["times"])]
    assert len(meta["pde"]) == len(replay) == 2
    for row, want in zip(meta["pde"], replay):
        assert row.keys() == want.keys() and row["seconds"] >= 0.0
        assert row["shape"] == list(want["shape"]) == [1, 12]
        for key in ("t", "steps", "dt", "stability_limit", "mass_drift", "max_overshoot"):
            assert row[key] == want[key], key


_GRID_2X2 = [(0.25 * np.eye(2)).tolist()] * 2


@pytest.mark.parametrize("csv_text, table, key", [
    ("0.5,0.5\n0.5,x\n", None, "profile.path"),
    (None, {"alphas": ["x", 0.7], "matrices": _GRID_2X2}, "diffusion table alphas"),
    (None, {"alphas": [None, 0.7], "matrices": _GRID_2X2}, "diffusion table alphas"),
    (None, {"alphas": [0.3, 0.7], "matrices": [_GRID_2X2[0], [[0.25, 0.0]]]},
     "diffusion table matrices"),
])
def test_malformed_input_file_is_config_error(tmp_path, capsys, csv_text, table, key):
    # each ended in a ValueError traceback and exit 1
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table or {"alphas": [0.3, 0.7], "matrices": _GRID_2X2}))
    profile = {"kind": "constant", "value": 0.5}
    if csv_text is not None:
        (tmp_path / "p.csv").write_text(csv_text)
        profile = {"kind": "csv", "path": str(tmp_path / "p.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "o"), profile=profile, diffusion_table=str(table_path))))
    assert cli_main(["pde", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err and "Traceback" not in err
    assert not list((tmp_path / "o").glob("pde_t*"))


_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracing import Tracer
tracer = Tracer()
tracer.install()
from torusgas.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[2])))
called = sorted({tracer.names[i] for i in tracer.name_id})
print(json.dumps({"missing": tracer.missing, "called": called,
                  "engines": len(tracer.engines)}))
"""


def test_benchmark_tracer_finds_every_layer_boundary(tmp_path):
    # the benchmark's tracer wraps the package's layer boundaries by name;
    # the only ones it may miss are the sampled identity check that the class
    # basis made unnecessary and the pairwise Dirichlet form that one Gram
    # matrix per shift (`dirichlet_gram`) replaced
    data = base_config(output_dir=str(tmp_path / "o"), alpha_grid=[0.3, 0.6],
                       truncation={"radius": 2, "max_degree": 2},
                       kernel={"dimension": 2, "entries": [
                           {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
                           {"offset": [0, 1], "prob": 0.125},
                           {"offset": [0, -1], "prob": 0.125}]})
    out = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT, str(ROOT), json.dumps(data)],
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert set(seen["missing"]) <= {"torusgas.resolvent.translation_violation_packed",
                                    "torusgas.resolvent.h1_form_packed"}
    assert seen["engines"] == 1
    for name in ("packed.enumerate", "packed.assemble", "packed.matvec",
                 "resolvent.solve", "simulate.evolve", "simulate.rng_setup",
                 "simulate.continuity", "lattice.sample", "lattice.block_density",
                 "pde.solve", "harness.run_experiment", "harness.config_parse"):
        assert name in seen["called"]


_IMPORT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/src")
from torusgas.cli import main
seen = []
for command, config in json.loads(sys.argv[2]):
    code = main([command, "--config", config])
    seen.append([command, code, sorted(name for name in sys.modules
                                       if name.split(".")[0] == "scipy"
                                       or name.split(".")[:2] == ["numpy", "ma"])])
print(json.dumps(seen))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    # scipy's import is most of the start-up cost of a small run, and the
    # package needs numpy alone: every subcommand, with a computed
    # coefficient table and with a stored one, leaves scipy unloaded.  So
    # does it leave numpy.ma, which a bare `np.unique` imports (about a
    # megabyte of resident memory)
    table_path = tmp_path / "table.json"
    DiffusionTable.from_callable(lambda a: 0.25 * np.eye(2), 2, nodes=2).save_json(table_path)
    profile = {"kind": "cosine", "base": 0.5, "amplitude": 0.2, "axis": 1}
    computed = tmp_path / "computed.json"
    computed.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "c"), profile=profile, alpha_grid=[0.3, 0.5, 0.7],
        truncation={"radius": 1, "max_degree": 2},
        exact={"side": 3, "replicas": 50, "alpha": 0.5})))
    stored = tmp_path / "stored.json"
    stored.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "o"), diffusion_table=str(table_path), profile=profile)))
    runs = [[command, str(computed)]
            for command in ("kernel", "simulate", "diffusion", "pde", "compare", "exact")]
    runs += [[command, str(stored)] for command in ("compare", "pde")]
    out = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, str(ROOT), json.dumps(runs)],
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == [[command, 0, []] for command, _ in runs]
    for name in ("kernel.json", "diffusion.json", "report.json", "exact_diagnostics.json"):
        assert (tmp_path / "c" / name).exists()
    assert (tmp_path / "o" / "report.json").exists()
    assert (tmp_path / "o" / "pde_t0.05.csv").exists()


def test_stored_table_from_another_kernel_is_refused(tmp_path, capsys):
    # a table carries half the jump covariance it was solved with as its
    # floor; one whose floor is not sigma / 2 of the config's kernel (here
    # 0.25 I) was solved for another kernel
    def table_with(floor):
        path = tmp_path / f"table{len(list(tmp_path.glob('table*')))}.json"
        DiffusionTable([0.0, 0.5, 1.0], [np.diag([0.4, 0.3])] * 3,
                       floor_matrix=floor).save_json(path)
        return path

    def config(table_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(base_config(
            output_dir=str(tmp_path / name), diffusion_table=str(table_path),
            profile={"kind": "cosine", "base": 0.5, "amplitude": 0.1, "axis": 1},
            exact={"side": 3, "replicas": 10})))
        return path

    other = config(table_with(np.diag([1 / 3, 1 / 12])), "other")
    for command in ("pde", "compare", "exact"):
        assert cli_main([command, "--config", str(other)]) == 2
        err = capsys.readouterr().err
        assert "solved for another kernel" in err
        assert "[[0.3333333333333333, 0.0], [0.0, 0.08333333333333333]]" in err
        assert "[[0.25, 0.0], [0.0, 0.25]]" in err
    assert not list((tmp_path / "other").glob("*"))
    # a floor of another shape than the matrices, 3x3 matrices under the
    # config's d = 2 with no floor, and matrices that are not square
    def stored(name, matrix, floor=None):
        path = tmp_path / f"{name}-stored.json"
        data = {"alphas": [0.0, 1.0], "matrices": [matrix, matrix]}
        if floor is not None:
            data["floor_matrix"] = floor
        path.write_text(json.dumps(data))
        return path

    eye3 = (0.25 * np.eye(3)).tolist()
    for name, matrix, floor, message in (
            ("floor", eye3, [[0.25, 0.0], [0.0, 0.25]],
             "floor_matrix has shape (2, 2), its matrices (3, 3)"),
            ("size", eye3, None, "holds 3x3 matrices, not 2x2 for the config's dimension 2"),
            ("oblong", [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0]], None,
             "need one square matrix per density node")):
        cfg_path = config(stored(name, matrix, floor), name)
        for command in ("pde", "compare", "exact"):
            assert cli_main([command, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not list((tmp_path / name).glob("*"))
    for name, floor in (("same", 0.25 * np.eye(2)), ("bare", None)):
        assert cli_main(["pde", "--config", str(config(table_with(floor), name))]) == 0
        meta = json.loads((tmp_path / name / "run_meta.json").read_text())
        assert meta["densities"] == {}  # a stored table solves no density
        assert "engine" not in meta  # and builds no engine
    # a table that `diffusion` wrote records its kernel entries and
    # truncation.  One solved for the symmetrized acceptance kernel,
    # p(+-1, 0, 0) = 1/3, has the acceptance kernel's sigma, so its floor
    # alone would pass it under the acceptance kernel.
    def kernel3(forward, backward):
        return {"dimension": 3, "entries": [
            {"offset": [1, 0, 0], "prob": forward}, {"offset": [-1, 0, 0], "prob": backward},
            {"offset": [0, 1, 0], "prob": 1 / 12}, {"offset": [0, -1, 0], "prob": 1 / 12},
            {"offset": [0, 0, 1], "prob": 1 / 12}, {"offset": [0, 0, -1], "prob": 1 / 12}]}

    symmetrized, acceptance = kernel3(1 / 3, 1 / 3), kernel3(1 / 2, 1 / 6)
    solve = tmp_path / "solve.json"
    solve.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "solved"), kernel=symmetrized, alpha_grid=[0.5],
        truncation={"radius": 2, "max_degree": 2})))
    assert cli_main(["diffusion", "--config", str(solve)]) == 0
    solved = tmp_path / "solved" / "table.json"
    stored = json.loads(solved.read_text())
    assert stored["kernel_entries"] == symmetrized["entries"]
    assert stored["truncation"] == {"radius": 2, "max_degree": 2}
    assert np.allclose(stored["floor_matrix"], np.diag([1 / 3, 1 / 12, 1 / 12]),
                       rtol=0.0, atol=1e-15)

    def config3(kernel, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(base_config(
            output_dir=str(tmp_path / name), diffusion_table=str(solved), kernel=kernel,
            profile={"kind": "cosine", "base": 0.5, "amplitude": 0.1, "axis": 1},
            exact={"side": 2, "replicas": 10})))
        return path

    cfg_path = config3(acceptance, "acceptance")
    for command in ("pde", "compare", "exact"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "solved for another kernel" in err and "Traceback" not in err
        assert "p(-1, 0, 0) = 0.3333333333333333" in err
        assert "p(-1, 0, 0) = 0.16666666666666666" in err
    assert not list((tmp_path / "acceptance").glob("*"))
    # the kernel it was solved for runs on it, also written with a
    # probability one rounding step away (the floor check's 1e-12 holds)
    assert cli_main(["pde", "--config", str(config3(symmetrized, "symmetrized"))]) == 0
    rounded = kernel3(np.nextafter(1 / 3, 1.0), 1 / 3)
    assert rounded["entries"][0]["prob"] != symmetrized["entries"][0]["prob"]
    assert cli_main(["pde", "--config", str(config3(rounded, "rounded"))]) == 0


def test_compare_and_pde_record_the_computed_table_in_run_meta(tmp_path):
    # each density's solver record, as `diffusion` and `exact` write it;
    # 0.7 is filled from its particle-hole mirror 0.3; and next to them the
    # engine build, with the keys and counts of the `diffusion` record
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        output_dir=str(tmp_path / "o"), alpha_grid=[0.3, 0.7],
        truncation={"radius": 2, "max_degree": 2},
        kernel={"dimension": 2, "entries": [
            {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
            {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]},
        profile={"kind": "cosine", "base": 0.5, "amplitude": 0.1, "axis": 1})))
    engines = []
    for command in ("pde", "compare"):
        assert cli_main([command, "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
        engines.append(meta["engine"])
        densities = meta["densities"]
        assert sorted(densities) == ["0.3", "0.7"]
        solved, mirrored = densities["0.3"], densities["0.7"]
        assert "mirror_of" not in solved and mirrored["mirror_of"] == 0.3
        assert solved["shifts"].keys() == mirrored["shifts"].keys()
        for lam, rec in solved["shifts"].items():
            assert rec["matvecs"] >= 1 and 0.0 <= rec["residual"] < 1e-6
            assert mirrored["shifts"][lam] == {"matvecs": 0}
    assert cli_main(["diffusion", "--config", str(cfg_path)]) == 0
    rec = json.loads((tmp_path / "o" / "run_meta.json").read_text())["diffusion"]
    counts = ("classes", "orbits", "nnz", "engine_mb")
    for engine in engines:
        assert set(engine) == {"enumerate_s", "assemble_s", *counts}
        assert engine["enumerate_s"] > 0.0 and engine["assemble_s"] > 0.0
        assert {key: engine[key] for key in counts} == {key: rec[key] for key in counts}
