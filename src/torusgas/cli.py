"""Command-line interface.

Subcommands: kernel, simulate, diffusion, pde, compare, exact.
Shared flags: --config, --seed, --out, --threads.  Exit codes: 0 success,
1 invariant violation, 2 config error.  Every subcommand runs on numpy
alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import ConfigError, InvariantViolation, write_json
from .harness import (ExperimentConfig, _load_or_compute_table, emit_outputs,
                      exact_small_experiment, make_output_dir, pde_through,
                      replica_results, run_experiment, write_run_meta)
from .pde import DensityField, DiffusionTable
from .resolvent import build_engine, compute_diffusion


def _add_shared(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--threads", type=int, default=None, help="worker pool size")


def _load(args) -> ExperimentConfig:
    """The config file with the flags written into it, so both pass one set of checks."""
    with open(args.config) as fh:
        data = json.load(fh)
    flags = {"master_seed": args.seed, "output_dir": args.out, "threads": args.threads}
    if isinstance(data, dict):  # anything else is rejected by `from_dict`
        data.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig.from_dict(data)


def cmd_kernel(args) -> int:
    cfg = _load(args)
    analysis = cfg.analysis
    data = {
        "dimension": analysis.dimension,
        "range": analysis.range,
        "drift": analysis.drift,
        "covariance": analysis.covariance,
        "symmetric_part": [{"offset": z, "value": s} for z, s in
                           zip(analysis.sym_offsets, analysis.sym_weights)],
        "antisymmetric_part": [{"offset": z, "value": a} for z, a in
                               zip(analysis.sym_offsets, analysis.asym_weights)],
        "adjoint_entries": analysis.adjoint.to_entries(),
        "is_symmetric": analysis.is_symmetric,
        "group": analysis.group,
        "low_dimension_note": (
            "dimension below 3: diffusive-limit guarantees are out of range, "
            "provided for testing" if analysis.dimension < 3 else ""),
    }
    path = make_output_dir(cfg.output_dir) / "kernel.json"
    write_json(path, data)
    print(path)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    cfg.checked_profile()
    out = make_output_dir(cfg.output_dir)
    records = []
    for size_index, n in enumerate(cfg.torus_sizes):
        shape = (n,) * cfg.dimension
        record = {}
        for r, fields in enumerate(replica_results(cfg, size_index, record)):
            for t, blocks in fields.items():
                header = {"d": cfg.dimension, "N": n, "K": cfg.block_radius,
                          "t": t, "replica": r, "seed": cfg.master_seed}
                stem = f"blocks_N{n}_t{t}_r{r}"
                if "csv" in cfg.formats:
                    DensityField(blocks.reshape(shape)).save_csv(out / f"{stem}.csv", header)
                if "npy" in cfg.formats:
                    np.save(out / f"{stem}.npy", blocks.reshape(shape))
                    (out / f"{stem}.meta.json").write_text(
                        json.dumps(header, sort_keys=True))
        records.append(record)
    write_run_meta(out, simulate=records)
    print(out)
    return 0


def cmd_diffusion(args) -> int:
    cfg = _load(args)
    d = cfg.dimension
    vectors = {"e1": [1.0] + [0.0] * (d - 1)}
    if d >= 2:
        v = np.zeros(d)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        vectors["diag12"] = [float(x) for x in v]
    record = {"densities": {}}
    engine = build_engine(cfg.analysis, cfg.truncation, record)
    result = compute_diffusion(cfg.analysis, cfg.alpha_grid, cfg.truncation,
                               mobility_vectors=vectors, with_residuals=True,
                               engine=engine, stages=record["densities"])
    solved = time.perf_counter()
    out = make_output_dir(cfg.output_dir)
    result.save_json(out / "diffusion.json")
    result.save_csv(out / "diffusion.csv")
    table = DiffusionTable.from_diffusion_result(result)
    table.save_json(out / "table.json")
    record["write_s"] = time.perf_counter() - solved
    write_run_meta(out, diffusion=record)
    print(out / "diffusion.json")
    return 0


def cmd_pde(args) -> int:
    cfg = _load(args)
    profile = cfg.checked_profile()
    table_record = {}
    table = _load_or_compute_table(cfg, table_record)
    out = make_output_dir(cfg.output_dir)
    solves = []
    for t, fld, solve in pde_through(DensityField.from_profile(profile, cfg.pde_resolution),
                                     table, cfg.times):
        solves.append(solve)
        header = {"d": cfg.dimension, "m": cfg.pde_resolution, "t": t}
        if "csv" in cfg.formats:
            fld.save_csv(out / f"pde_t{t}.csv", header)
        if "npy" in cfg.formats:
            fld.save_npy(out / f"pde_t{t}.npy")
    write_run_meta(out, pde=solves, **table_record)
    print(out)
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    report = run_experiment(cfg)
    emit_outputs(report, cfg.output_dir, cfg.formats)
    for row in report.rows:
        print(f"N={row['N']} t={row['t']}: L1={row['L1']:.6g} "
              f"L2={row['L2']:.6g} Linf={row['Linf']:.6g}")
    print("monotone:", report.monotone_in_size)
    return 0


def cmd_exact(args) -> int:
    cfg = _load(args)
    stages = {}
    diag = exact_small_experiment(cfg, stages=stages)
    out = make_output_dir(cfg.output_dir)
    path = out / "exact_diagnostics.json"
    write_json(path, diag)
    write_run_meta(out, exact=stages)
    print(json.dumps({k: diag[k] for k in
                      ("stationarity_tv", "entropy_t0_closed_form",
                       "entropy_t0_exact")}, indent=1))
    print(path)
    return 0


_COMMANDS = {
    "kernel": cmd_kernel,
    "simulate": cmd_simulate,
    "diffusion": cmd_diffusion,
    "pde": cmd_pde,
    "compare": cmd_compare,
    "exact": cmd_exact,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgas",
        description="Exclusion-process workbench on the discrete torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_shared(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
