"""Run one benchmark workload once, in this fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode full|setup \
        --trace 0|1 --result PATH

`run.py` launches this script once per measured execution, so every
execution pays interpreter start, package import and set-up, as a user of
the `torusgas` command does.  The script writes one JSON record to
`--result`: `time.monotonic` stamps (the launcher reads the same
system-wide clock), operations attempted and failed, the outcome of every
output check and, with `--trace 1`, the per-layer metrics.

Workloads drive the package through the calls its subcommands make:
`dual-solve` those of `torusgas diffusion`, `hydro-compare` those of
`torusgas compare`, `exact-tiny` those of `torusgas exact`.  Output checks
are the acceptance criteria at their stated tolerances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
OUT = BENCH / "out"

D3_ENTRIES = [
    {"offset": [1, 0, 0], "prob": 1 / 2}, {"offset": [-1, 0, 0], "prob": 1 / 6},
    {"offset": [0, 1, 0], "prob": 1 / 12}, {"offset": [0, -1, 0], "prob": 1 / 12},
    {"offset": [0, 0, 1], "prob": 1 / 12}, {"offset": [0, 0, -1], "prob": 1 / 12},
]

# D_11(0.3) of the acceptance kernel at truncation (3, 3), as computed at
# commit 44b423a.  Its own shift-extrapolation spread is 1.8e-6
# and the solver stops at residual 1e-10, which moves D by far less; a
# correct change of solver or extrapolation rule may move the value by a few
# spreads, so the check allows 1e-5 (about five spreads).
D11_REFERENCE = 0.2261187332862159
D11_TOL = 1e-5

HYDRO_TABLE = DATA / "hydro_table.json"
HYDRO_PROVENANCE = DATA / "hydro_table.provenance.json"


def base_config(seed: int) -> dict:
    """Criterion-9 experiment config (acceptance kernel, d = 3)."""
    return {
        "schema_version": 1,
        "kernel": {"dimension": 3, "entries": D3_ENTRIES},
        "torus_sizes": [8, 16, 32],
        "profile": {"kind": "cosine", "base": 0.5, "amplitude": 0.2, "axis": 1},
        "times": [0.02],
        "block_radius": 2,
        "replicas": 20,
        "master_seed": seed,
        "delta0": 0.1,
        "pde": {"resolution": 64},
        "threads": 1,
    }


def dual_config(seed: int) -> dict:
    cfg = base_config(seed)
    cfg.update(label="dual-solve", alpha_grid=[0.3],
               truncation={"radius": 3, "max_degree": 3},
               output_dir=str(OUT / f"dual-solve-{seed}"))
    return cfg


def hydro_config(seed: int) -> dict:
    cfg = base_config(seed)
    cfg.update(label="hydro-compare", diffusion_table=str(HYDRO_TABLE),
               formats=["json", "csv"], output_dir=str(OUT / f"hydro-compare-{seed}"))
    return cfg


def exact_config(seed: int) -> dict:
    """Criterion-7/10 config: 2-D 3x3 torus, 512 states, 100k MC replicas."""
    return {
        "schema_version": 1,
        "label": "exact-tiny",
        "kernel": {"dimension": 2, "entries": [
            {"offset": [1, 0], "prob": 0.5}, {"offset": [-1, 0], "prob": 0.25},
            {"offset": [0, 1], "prob": 0.125}, {"offset": [0, -1], "prob": 0.125}]},
        "torus_sizes": [3],
        "profile": {"kind": "cosine", "base": 0.15, "amplitude": 0.03, "axis": 1},
        "times": [0.3],
        "block_radius": 1,
        "replicas": 1,
        "master_seed": seed,
        "delta0": 0.05,
        "pde": {"resolution": 18},
        "exact": {"side": 3, "replicas": 100000, "alpha": 0.15, "times": [0.3]},
        "threads": 1,
        "output_dir": str(OUT / f"exact-tiny-{seed}"),
    }


class Ledger:
    """Operations attempted and failed, with the outcome of each check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def attempt(self, n: int):
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def mobility_vectors(d: int) -> dict:
    """The vectors `torusgas diffusion` passes: e1 and the (1,2) diagonal."""
    vectors = {"e1": [1.0] + [0.0] * (d - 1)}
    v = [0.0] * d
    v[0] = v[1] = 1.0 / math.sqrt(2.0)
    vectors["diag12"] = v
    return vectors


# dual-solve ---------------------------------------------------------------

def dual_setup(cfg):
    from torusgas import kernels, packed

    analysis = kernels.validate_kernel(cfg.kernel)
    space = packed.PackedSpace(analysis.dimension, cfg.truncation)
    return analysis, packed.assemble(space, analysis)


def dual_run(cfg, state, ledger: Ledger, info: dict):
    import numpy as np
    from torusgas import resolvent

    analysis, engine = state
    d = cfg.dimension
    ledger.attempt(len(cfg.alpha_grid) * len(cfg.truncation.lambda_seq) * d)
    result = resolvent.compute_diffusion(
        analysis, cfg.alpha_grid, cfg.truncation,
        mobility_vectors=mobility_vectors(d), with_residuals=True, engine=engine)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.save_json(out / "diffusion.json")
    back = resolvent.DiffusionResult.load_json(out / "diffusion.json")

    alpha = cfg.alpha_grid[0]
    d11 = float(result.diffusion[alpha][0, 0])
    info.update(D11=d11, D11_spread=float(result.spread[alpha][0, 0]),
                reported_iterations=result.solver.get("iterations"),
                space_size=result.solver.get("space_size"))

    floor = result.min_eig_above_mobility_floor()
    ledger.check("criterion 2: min eig of D - alpha sigma >= -1e-6", floor >= -1e-6,
                 f"{floor:.3e}")
    gaps = result.mobility[alpha]
    for label in ("e1", "diag12"):
        gap = gaps[label]["gap"]
        ledger.check(f"criterion 4: mobility gap {label} <= 0.10", gap <= 0.10,
                     f"{gap:.3e}")
    ratio = 1.0
    for i in range(d):
        vals = [result.energy[alpha][lam][i]
                for lam in sorted(result.energy[alpha], reverse=True)]
        vals = [v for v in vals if v > 0.0]
        if vals:
            ratio = max(ratio, max(vals) / min(vals))
    ledger.check("criterion 5: energy ratio over shifts <= 2", ratio <= 2.0,
                 f"{ratio:.4f}")
    ledger.check(f"D11(0.3) within {D11_TOL:g} of {D11_REFERENCE!r}",
                 abs(d11 - D11_REFERENCE) <= D11_TOL,
                 f"{d11!r} (deviation {d11 - D11_REFERENCE:.2e})")
    ledger.check("diffusion.json round-trips the diffusion matrix",
                 np.array_equal(back.diffusion[alpha], result.diffusion[alpha]),
                 str(out / "diffusion.json"))


# hydro-compare ------------------------------------------------------------

def hydro_run(cfg, _state, ledger: Ledger, info: dict):
    from torusgas import harness

    want = json.loads(HYDRO_PROVENANCE.read_text())["table_sha256"]
    got = hashlib.sha256(HYDRO_TABLE.read_bytes()).hexdigest()
    ledger.check("coefficient table matches its recorded sha256", got == want, got)
    ledger.attempt(len(cfg.torus_sizes) * cfg.replicas + len(cfg.times))
    report = harness.run_experiment(cfg)
    harness.emit_outputs(report, cfg.output_dir, cfg.formats)

    out = Path(cfg.output_dir)
    emitted = (out / "report.json").read_bytes()
    expected = json.dumps(report.to_dict(), indent=1, sort_keys=True).encode()
    ledger.check("report.json equals the in-memory report", emitted == expected,
                 str(out / "report.json"))
    lines = (out / "distances.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    want_rows = [[float(r[k]) for k in ("N", "t", "L1", "L2", "Linf")] for r in report.rows]
    ledger.check("distances.csv equals the report rows", rows == want_rows,
                 f"{len(rows)} rows")
    ledger.check("report carries no failure marker", report.failure is None,
                 str(report.failure))
    for t in cfg.times:
        l1 = {row["N"]: row["L1"] for row in report.rows if row["t"] == t}
        sizes = sorted(l1)
        info[f"L1_t{t}"] = {str(n): l1[n] for n in sizes}
        decreasing = all(l1[a] > l1[b] for a, b in zip(sizes, sizes[1:]))
        ledger.check(f"criterion 9: L1 strictly decreasing in N at t={t}", decreasing,
                     ", ".join(f"N={n}: {l1[n]:.4f}" for n in sizes))
        ledger.check(f"criterion 9: L1(N={sizes[-1]}) <= 0.05 at t={t}",
                     l1[sizes[-1]] <= 0.05, f"{l1[sizes[-1]]:.4f}")


# exact-tiny ---------------------------------------------------------------

def exact_run(cfg, _state, ledger: Ledger, info: dict):
    import numpy as np
    from torusgas import harness

    ex = cfg.exact
    table_solves = (len(cfg.alpha_grid) * len(cfg.truncation.lambda_seq)
                    * cfg.dimension)
    ledger.attempt(int(ex["replicas"]) + len(ex["times"]) + table_solves)
    diag = harness.exact_small_experiment(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "exact_diagnostics.json"
    path.write_text(json.dumps(diag, indent=1, sort_keys=True))

    tv_inv = diag["stationarity_tv"]
    tv_mc = max(row["tv_mc_vs_exact"] for row in diag["mc"])
    info.update(stationarity_tv=tv_inv, mc_tv=tv_mc)
    ledger.check("criterion 7: stationarity TV <= 1e-10", tv_inv <= 1e-10, f"{tv_inv:.2e}")
    ledger.check("criterion 7: MC-vs-exact TV <= 0.02", tv_mc <= 0.02, f"{tv_mc:.4f}")
    ledger.check("criterion 7: replica count as configured",
                 diag["replicas"] == int(ex["replicas"]), str(diag["replicas"]))
    t0_gap = abs(diag["entropy_t0_exact"] - diag["entropy_t0_closed_form"])
    flat_gap = abs(diag["entropy_t0_vs_flat_exact"]
                   - diag["entropy_t0_vs_flat_closed_form"])
    ledger.check("criterion 10: time-zero entropy gap <= 1e-9", t0_gap <= 1e-9,
                 f"{t0_gap:.1e}")
    ledger.check("criterion 10: time-zero flat entropy gap <= 1e-9", flat_gap <= 1e-9,
                 f"{flat_gap:.1e}")
    finite = all(np.isfinite(row["entropy_vs_profile_state"])
                 and np.isfinite(row["entropy_vs_flat"]) for row in diag["entropy"])
    ledger.check("criterion 10: entropy finite and recorded at >= 2 times",
                 finite and len(diag["entropy"]) >= 2,
                 str([row["t"] for row in diag["entropy"]]))
    ledger.check("exact_diagnostics.json round-trips",
                 json.loads(path.read_text()) == json.loads(json.dumps(diag)),
                 str(path))


WORKLOADS = {
    "dual-solve": (dual_config, dual_setup, dual_run),
    "hydro-compare": (hydro_config, None, hydro_run),
    "exact-tiny": (exact_config, None, exact_run),
}


def execute(workload: str, seed: int, mode: str, trace: bool) -> dict:
    make_config, setup, run = WORKLOADS[workload]
    record = {"workload": workload, "seed": seed, "mode": mode, "trace": trace,
              "error": None, "info": {}}
    ledger = Ledger()
    tracer = None
    try:
        sys.path.insert(0, str(ROOT / "src"))
        from torusgas import harness

        record["t_imported"] = time.monotonic()
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cfg = harness.ExperimentConfig.from_dict(make_config(seed))
        state = setup(cfg) if setup else None
        record["t_setup"] = time.monotonic()
        if mode == "full":
            run(cfg, state, ledger, record["info"])
            record["t_verified"] = time.monotonic()
    except Exception:  # the launcher reports the failure; all attempts fail
        record["error"] = traceback.format_exc()
        ledger.attempted = max(ledger.attempted, 1)
        ledger.failed = ledger.attempted
    record.update(attempted=ledger.attempted, failed=ledger.failed, checks=ledger.checks)
    if tracer is not None and record["error"] is None and mode == "full":
        record["layers"] = tracer.layer_metrics((record["t_setup"], record["t_verified"]))
        record["untraced_names"] = tracer.missing
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-{seed}.npz")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    record = execute(args.workload, args.seed, args.mode, bool(args.trace))
    Path(args.result).write_text(json.dumps(record, indent=1, sort_keys=True))
    return 1 if record["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
