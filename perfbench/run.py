"""Benchmark entry point for the torusgas workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: dual-solve,
hydro-compare, exact-tiny (see perfbench/README.md for what each measures
and leaves out).

Every execution of a workload runs in a fresh interpreter (`worker.py`),
one at a time, with `threads = 1` in the config and the BLAS/OpenMP pools
pinned to one thread.  With `--trace 0` the launcher repeats executions
while the next one still fits in `--seconds` (at least one), then spends
what is left on set-up-only executions, and reports medians of the
end-to-end metrics.  With `--trace 1` it runs one untraced and one traced
execution and reports the per-layer metrics of the traced one, with the
tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment.  Full records go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "torusgas"

WORKLOADS = ("dual-solve", "hydro-compare", "exact-tiny")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MAX_SETUP_PROBES = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def metric_units(kind: str) -> dict:
    """Metric name -> unit, as declared under `kind` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    os.environ.update(THREAD_ENV)
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "blas": blas.get("openblas configuration", blas.get("name")),
        "thread_env": dict(THREAD_ENV),
        "config_threads": 1,
        "concurrent_workers": 1,
    }


def launch(workload: str, seed: int, mode: str, trace: bool, timeout: float,
           index: int) -> dict:
    """Run worker.py once; add launcher-side timings and resource usage."""
    tag = f"{workload}-{seed}-{mode}-trace{int(trace)}-{index}"
    result_path = OUT / f"worker-{tag}.json"
    log_path = OUT / f"worker-{tag}.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(int(trace)),
           "--result", str(result_path)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        t_exit = time.monotonic()
    if result_path.exists():
        rec = json.loads(result_path.read_text())
    else:
        rec = {"error": f"worker exited with {proc.returncode} and left no result",
               "attempted": 1, "failed": 1, "checks": []}
    rec.update(returncode=proc.returncode, log=str(log_path),
               elapsed_s=t_exit - t0,
               cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0)
    if "t_setup" in rec:
        rec["setup_s"] = rec["t_setup"] - t0
    if "t_verified" in rec:
        rec["wall_s"] = rec["t_verified"] - t0
    if rec.get("error") is None and proc.returncode != 0:
        rec["error"] = f"worker exited with {proc.returncode}"
        rec["failed"] = rec["attempted"] = max(rec.get("attempted", 0), 1)
    if rec.get("error"):
        print(f"perfbench: {workload} {mode} execution failed; log {log_path}\n"
              f"{rec['error']}", file=sys.stderr)
    return rec


def measure(workload: str, seed: int, seconds: float, t_begin: float) -> tuple:
    """Untraced executions; returns (end-to-end metrics, records)."""
    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - t_begin)

    full = []
    while True:
        full.append(launch(workload, seed, "full", False, remaining(), len(full)))
        last = full[-1]
        elapsed = time.monotonic() - t_begin
        if last.get("error") or elapsed + last["elapsed_s"] > seconds:
            break
    probes = []
    ok = not any(r.get("error") for r in full)
    while ok and len(probes) < MAX_SETUP_PROBES:
        setups = [r["setup_s"] for r in full + probes]
        estimate = 1.2 * statistics.median(setups) + 0.3
        if time.monotonic() - t_begin + estimate > seconds:
            break
        probes.append(launch(workload, seed, "setup", False, remaining(), len(probes)))
        ok = not probes[-1].get("error")

    def med(key, records):
        values = [r.get(key, r["elapsed_s"]) for r in records]
        return statistics.median(values)

    attempted = sum(r["attempted"] for r in full + probes)
    failed = sum(r["failed"] for r in full + probes)
    metrics = {
        "wall_s": med("wall_s", full),
        "setup_s": med("setup_s", full + probes),
        "cpu_s": med("cpu_s", full),
        "peak_rss_mb": med("peak_rss_mb", full),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, full + probes


def trace(workload: str, seed: int, t_begin: float) -> tuple:
    """One untraced and one traced execution; returns (per-layer metrics, records)."""
    plain = launch(workload, seed, "full", False,
                   RUN_LIMIT_S - (time.monotonic() - t_begin), 0)
    traced = launch(workload, seed, "full", True,
                    RUN_LIMIT_S - (time.monotonic() - t_begin), 0)
    metrics = {name: 0.0 for name in metric_units("per_layer")}
    if not plain.get("error") and not traced.get("error"):
        layers = traced["layers"]
        metrics.update({k: v for k, v in layers.items() if k in metrics})
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["trace.coverage"] = ((traced["setup_s"] + layers["trace.covered_s"])
                                     / traced["wall_s"])
    return metrics, [plain, traced]


def main(argv=None) -> int:
    t_begin = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")
    if not (PACKAGE / "__init__.py").is_file():
        return fail(f"no torusgas sources at {PACKAGE}; run from a source checkout")
    if not compileall.compile_dir(PACKAGE, quiet=1):
        return fail("byte-compiling the torusgas sources failed")
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()

    if args.trace:
        metrics, records = trace(args.workload, args.seed, t_begin)
        units = metric_units("per_layer")
    else:
        metrics, records = measure(args.workload, args.seed, args.seconds, t_begin)
        units = metric_units("end_to_end")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r.get("error") for r in records)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result, "executions": records},
                   indent=1, sort_keys=True))
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
