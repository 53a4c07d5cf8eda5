"""Experiment orchestration: configs, ensemble runs, comparisons, reports.

The harness owns the declarative run description, drives the other modules
through their public contracts only, and emits deterministic outputs: equal
master seeds give byte-identical report files (the write timestamp goes to
a separate side file excluded from that contract).
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, as_number, as_numbers, as_string, require, write_json
from .exactsmall import (MAX_SITES, exact_evolution_small, product_distribution,
                         relative_entropy_distributions, relative_entropy_product,
                         total_variation, uniformized_chain)
from .kernels import KernelAnalysis, TransitionKernel, TruncationParams, validate_kernel
from .lattice import (TorusGeometry, block_density, sample_product_measure, site_probabilities,
                      state_codes)
from .pde import DensityField, DiffusionTable, SolveReport, solve_to_time
from .profiles import Profile, validate_profile
from .resolvent import build_engine, compute_diffusion
from .simulate import (RngStream, check_replica_ledgers, evolve, evolve_replicas,
                       wavefront_window)

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "kernel", "torus_sizes", "profile", "delta0", "times",
    "block_radius", "replicas", "master_seed", "alpha_grid", "truncation",
    "pde", "diffusion_table", "output_dir", "formats", "threads", "exact", "label",
}
_KERNEL_KEYS = {"dimension", "entries"}
_TRUNC_KEYS = {"radius", "max_degree"}
_PDE_KEYS = {"resolution"}
_PROFILE_KEYS = {"kind", "value", "base", "amplitude", "axis", "path"}
_EXACT_KEYS = {"side", "replicas", "alpha", "times"}
_FORMATS = ("json", "csv", "dat", "npy")

# Replicas per lockstep batch of the exact Monte Carlo ensemble.  Fixed, so
# the batch streams (and the results) do not depend on anything but the
# config; 4096 keeps the batch arrays small.
EXACT_BATCH = 4096
EXACT_REPLICAS = 100000  # default `exact.replicas`
EXACT_ALPHA = 0.3  # default `exact.alpha`


def _reject_unknown(mapping: dict, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _increasing(values: list, key: str, upper: float) -> list:
    """A nonempty list, checked to lie in [0, upper] and strictly increase."""
    if (not values or not 0.0 <= values[0] or not values[-1] <= upper
            or any(not b > a for a, b in zip(values, values[1:]))):
        raise ConfigError(f"{key} must be nonnegative and strictly increasing, "
                          f"nonempty and at most {upper:g}, got {values!r}")
    return values


def _at_least(value: int, low: int, key: str):
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated, serializable description of a comparison run."""

    kernel: TransitionKernel
    torus_sizes: list
    profile_spec: dict
    times: list
    block_radius: int
    replicas: int
    master_seed: int
    delta0: float
    alpha_grid: list
    truncation: TruncationParams | None
    pde_resolution: int
    diffusion_table_path: str | None
    output_dir: str
    formats: list
    threads: int
    exact: dict
    label: str
    # derived once from the fields above; not part of the config's identity
    analysis: KernelAnalysis = field(init=False, repr=False, compare=False)
    exact_side: int = field(init=False, repr=False, compare=False)
    exact_replicas: int = field(init=False, repr=False, compare=False)
    exact_alpha: float = field(init=False, repr=False, compare=False)
    exact_times: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.analysis = validate_kernel(self.kernel)
        if self.truncation is None:
            r = max(2, self.kernel.range)
            self.truncation = TruncationParams(radius=r, max_degree=2)
        if self.block_radius < 0:
            raise ConfigError("block radius must be nonnegative")
        if self.replicas < 1:
            raise ConfigError("need at least one replica")
        _increasing(self.torus_sizes, "torus_sizes", np.inf)
        if not 0.0 < self.delta0 <= 0.5:  # also false for nan
            raise ConfigError(f"delta0 must lie in (0, 0.5], got {self.delta0!r}")
        _at_least(self.master_seed, 0, "master_seed")
        _at_least(self.pde_resolution, 1, "pde.resolution")
        _at_least(self.threads, 1, "threads")
        _increasing(self.times, "times", np.inf)
        _increasing(self.alpha_grid, "alpha_grid", 1.0)
        if not isinstance(self.formats, list) or any(f not in _FORMATS for f in self.formats):
            raise ConfigError(f"formats must be a list of names from {list(_FORMATS)}, "
                              f"got {self.formats!r}")
        ex = self.exact
        self.exact_replicas = as_number(int, ex.get("replicas", EXACT_REPLICAS),
                                        "exact.replicas")
        if self.exact_replicas < 1:
            raise ConfigError("need at least one exact Monte Carlo replica")
        self.exact_side = as_number(int, ex.get("side", 3), "exact.side")
        self.exact_times = _increasing(as_numbers(float, ex.get("times", self.times),
                                                   "exact.times"), "exact.times", np.inf)
        self.exact_alpha = as_number(float, ex.get("alpha", EXACT_ALPHA), "exact.alpha")
        # the flat reference needs full support; the test is false for nan too
        if not 0.0 < self.exact_alpha < 1.0:
            raise ConfigError(f"exact.alpha must lie in (0, 1), got {self.exact_alpha!r}")
        _at_least(self.torus_sizes[0], 2, "torus_sizes")
        for n in self.torus_sizes:
            if 2 * self.block_radius + 1 > n:
                raise ConfigError(f"block radius {self.block_radius} too large for N={n}")

    @property
    def dimension(self) -> int:
        return self.kernel.dimension

    def build_profile(self) -> Profile:
        return Profile.from_spec(self.dimension, self.profile_spec)

    def checked_profile(self) -> Profile:
        """The initial profile, after its drift and boundedness check."""
        profile = self.build_profile()
        diag = validate_profile(profile, self.analysis.drift, self.delta0)
        if not diag["ok"]:
            raise ConfigError(f"initial profile fails validation: {diag}")
        return profile

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _reject_unknown(data, _TOP_KEYS, "config")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
        kd = require(data, "kernel", "config")
        _reject_unknown(kd, _KERNEL_KEYS, "kernel")
        dimension = as_number(int, require(kd, "dimension", "kernel"), "kernel.dimension")
        kernel = TransitionKernel.from_entries(dimension, require(kd, "entries", "kernel"))
        prof = require(data, "profile", "config")
        _reject_unknown(prof, _PROFILE_KEYS, "profile")
        prof = dict(prof)
        trunc = None
        if "truncation" in data:
            td = data["truncation"]
            _reject_unknown(td, _TRUNC_KEYS, "truncation")
            trunc = TruncationParams(**{
                key: as_number(int, require(td, key, "truncation"), f"truncation.{key}")
                for key in ("radius", "max_degree")})
        pde = data.get("pde", {})
        _reject_unknown(pde, _PDE_KEYS, "pde")
        exact = data.get("exact", {})
        _reject_unknown(exact, _EXACT_KEYS, "exact")
        table_path = data.get("diffusion_table")
        cfg = cls(
            kernel=kernel,
            torus_sizes=as_numbers(int, require(data, "torus_sizes", "config"),
                                    "torus_sizes"),
            profile_spec=prof,
            times=as_numbers(float, require(data, "times", "config"), "times"),
            block_radius=as_number(int, require(data, "block_radius", "config"),
                                   "block_radius"),
            replicas=as_number(int, require(data, "replicas", "config"), "replicas"),
            master_seed=as_number(int, require(data, "master_seed", "config"),
                                  "master_seed"),
            delta0=as_number(float, data.get("delta0", 0.05), "delta0"),
            alpha_grid=as_numbers(float, data.get(
                "alpha_grid", [round(0.1 * i, 10) for i in range(1, 10)]), "alpha_grid"),
            truncation=trunc,
            pde_resolution=as_number(int, pde.get("resolution", 64), "pde.resolution"),
            diffusion_table_path=(None if table_path is None
                                  else as_string(table_path, "diffusion_table")),
            output_dir=as_string(data.get("output_dir", "out"), "output_dir"),
            formats=data.get("formats", ["json", "csv"]),
            threads=as_number(int, data.get("threads", 1), "threads"),
            exact=dict(exact),
            label=str(data.get("label", "experiment")),
        )
        cfg.build_profile()  # rejects a malformed profile at parse time
        return cfg

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kernel": {"dimension": self.dimension,
                       "entries": self.kernel.to_entries()},
            "torus_sizes": list(self.torus_sizes),
            "profile": dict(self.profile_spec),
            "times": list(self.times),
            "block_radius": self.block_radius,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "delta0": self.delta0,
            "alpha_grid": list(self.alpha_grid),
            "truncation": asdict(self.truncation),
            "pde": {"resolution": self.pde_resolution},
            "output_dir": self.output_dir,
            "formats": list(self.formats),
            "threads": self.threads,
            "label": self.label,
        }
        if self.diffusion_table_path:
            out["diffusion_table"] = self.diffusion_table_path
        if self.exact:
            out["exact"] = dict(self.exact)
        return out


def pde_at_sites(pde_field: DensityField, side: int) -> np.ndarray:
    """PDE density at the point x/N of every site x of the side-N torus."""
    return Profile(pde_field.dimension, func=pde_field.evaluate).sample_grid(side).reshape(-1)


def compare_fields(empirical: np.ndarray, target: np.ndarray) -> dict:
    """Distances between a block-density field and the PDE at block centers.

    `target` is `pde_at_sites` of the PDE field: the block field value at
    site x is compared against the PDE density at the point x/N (blocks are
    centered on their site).
    """
    diff = np.abs(np.asarray(empirical).reshape(-1) - target)
    return {
        "L1": float(diff.mean()),
        "L2": float(np.sqrt((diff ** 2).mean())),
        "Linf": float(diff.max()),
    }


def _load_or_compute_table(cfg: ExperimentConfig, record: dict) -> DiffusionTable:
    """The stored table, else one computed on the config's grid.  `record`
    receives `densities`, the per-density solver records of a computed
    table (empty for a stored one), and, for a computed table only,
    `engine`, the record of its engine build (`build_engine`).  A stored
    table must hold d x d matrices for the config's d.  One from another
    kernel is refused: by its recorded kernel entries, which `diffusion`
    writes, and by its `floor_matrix`, sigma / 2 of the kernel it was
    solved for."""
    record["densities"] = {}
    if cfg.diffusion_table_path:
        path = cfg.diffusion_table_path
        table = DiffusionTable.load_json(path)
        k, d = table.dimension, cfg.dimension
        if k != d:
            raise ConfigError(f"diffusion table {path} holds {k}x{k} "
                              f"matrices, not {d}x{d} for the config's dimension {d}")
        entries = table.solved_for.get("kernel_entries")
        if entries is not None:
            solved, wanted = _law(TransitionKernel.from_entries(d, entries)), _law(cfg.kernel)
            # the same offsets, with probabilities equal up to the floor check's 1e-12
            if solved.keys() != wanted.keys() or any(
                    abs(solved[z] - wanted[z]) > 1e-12 for z in solved):
                raise ConfigError(
                    f"diffusion table {path} was solved for another kernel: "
                    f"{_law_text(solved)}, not the config's {_law_text(wanted)}")
        floor, half_sigma = table.floor_matrix, 0.5 * cfg.analysis.covariance
        if floor is not None and not np.allclose(floor, half_sigma, rtol=0.0, atol=1e-12):
            raise ConfigError(
                f"diffusion table {path} was solved for another kernel: "
                f"its floor_matrix {floor.tolist()} is not sigma/2 = {half_sigma.tolist()}")
        return table
    record["engine"] = {}
    engine = build_engine(cfg.analysis, cfg.truncation, record["engine"])
    result = compute_diffusion(cfg.analysis, cfg.alpha_grid, cfg.truncation,
                               engine=engine, stages=record["densities"])
    return DiffusionTable.from_diffusion_result(result)


def _law(kernel: TransitionKernel) -> dict:
    """A kernel's probability of each offset of its support."""
    return {tuple(z): p for z, p in zip(kernel.offsets.tolist(), kernel.weights.tolist())
            if p}


def _law_text(law: dict) -> str:
    return ", ".join(f"p{z} = {p!r}" for z, p in sorted(law.items()))


def replica_stream(cfg: ExperimentConfig, size_index: int, replica: int) -> RngStream:
    """Random stream of one comparison replica, keyed (2, size_index, replica)."""
    return RngStream(cfg.master_seed, (2, size_index, replica))


def spans(times):
    """Yield (t, t - previous t) through the observation times, starting at 0.

    The span is macroscopic: on the side-N torus it runs for span N^2
    microscopic time.
    """
    previous = 0.0
    for t in times:
        yield t, t - previous
        previous = t


def pde_through(fld: DensityField, table: DiffusionTable, times):
    """Solve the PDE from `fld` through the times.

    Yields (t, field at t, record of that span's SolveReport keyed by t).
    """
    for t, span in spans(times):
        solve = SolveReport()
        fld = solve_to_time(fld, table, span, report=solve)
        yield t, fld, {"t": t, **asdict(solve)}


def replica_trajectory(geom: TorusGeometry, profile, kernel: TransitionKernel, times, rng):
    """One replica: sample the initial state, then evolve through the times.

    `profile` is any input of `site_probabilities`.  Yields (t,
    configuration, ledger) at every observation time t.  Every span is
    checked by its ledger: continuity against the bond counts and a kept
    particle count.  The random draws depend only on `rng` and the
    arguments.
    """
    n = geom.side
    config = sample_product_measure(geom, profile, rng)
    for t, span in spans(times):
        before = config
        config, ledger = evolve(config, kernel, span * n ** 2, rng)
        ledger.check_continuity(before, config)
        yield t, config, ledger


def _replica_job(cfg: ExperimentConfig, size_index: int, replica: int, probs: np.ndarray):
    """Block fields of one replica trajectory at every observation time.

    `probs` holds the initial profile's per-site probabilities on the
    size's torus, which every replica of the size shares.

    Returns ({t: block field}, simulation record).  The record sums, over
    the spans, the expected events n_sites T, the drawn events, the executed
    jumps and the wavefront rounds, and holds the seconds spent in the
    trajectory (sampling, evolution, ledger checks).  Self-contained (the
    config pickles) so a process pool can run replicas independently; the
    replica substream makes the fields a pure function of (config, indices).
    """
    geom = TorusGeometry(cfg.dimension, cfg.torus_sizes[size_index])
    rng = replica_stream(cfg, size_index, replica).generator()
    fields = {}
    record = {"expected_events": 0.0, "events": 0, "jumps": 0, "rounds": 0,
              "seconds": 0.0}
    start = time.perf_counter()
    for t, config, ledger in replica_trajectory(geom, probs, cfg.kernel, cfg.times, rng):
        record["seconds"] += time.perf_counter() - start
        record["expected_events"] += geom.n_sites * ledger.elapsed
        record["events"] += ledger.events
        record["jumps"] += int(ledger.counts.sum())
        record["rounds"] += ledger.rounds
        fields[t] = block_density(config, cfg.block_radius)
        start = time.perf_counter()
    return fields, record


def replica_results(cfg: ExperimentConfig, size_index: int, record: dict):
    """Yield the field map of every replica of one torus size, in replica order.

    Each replica's `_replica_job` result is handed on as it returns, so no
    list of every replica's fields is held.  `record` receives the size's
    simulation record: the torus side, the wavefront window of the size's
    torus and the replicas' records, summed in replica order as they
    arrive.  The initial profile is evaluated here, once per size.  With
    more than one thread and replica the replicas run in a process pool of
    min(threads, replicas) workers (the pool forks all its workers at the
    first submit), whose `map` still hands them on in replica order, so
    the output does not depend on it.
    """
    geom = TorusGeometry(cfg.dimension, cfg.torus_sizes[size_index])
    probs = site_probabilities(geom, cfg.build_profile())
    record.update(N=geom.side, replicas=0, window=wavefront_window(geom.n_sites))
    args = (repeat(cfg), repeat(size_index), range(cfg.replicas), repeat(probs))
    workers = min(cfg.threads, cfg.replicas)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _summed(pool.map(_replica_job, *args), record)
    else:
        yield from _summed(map(_replica_job, *args), record)


def _summed(results, record: dict):
    """Yield the fields of each (fields, record) result, adding its record
    into `record` key by key, in arrival order."""
    for fields, rec in results:
        record["replicas"] += 1
        for key, value in rec.items():
            record[key] = record.get(key, 0) + value
        yield fields


@dataclass
class ComparisonReport:
    config: dict
    rows: list
    monotone_in_size: dict
    table_asymmetry: float
    failure: str | None = None
    # one SolveReport record per observation time, one simulation record
    # per torus size, the seconds by stage and the table's `densities` and
    # `engine` records (`_load_or_compute_table`); they go to run_meta.json,
    # not to the report
    pde_solves: list = field(default_factory=list)
    simulate: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    table_record: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "rows": self.rows,
            "monotone_in_size": self.monotone_in_size,
            "table_asymmetry": self.table_asymmetry,
            "failure": self.failure,
        }


class _Laps:
    """Seconds by stage: each lap books the time since the last one."""

    def __init__(self, stages: dict, names):
        self.stages = stages
        stages.update((name, 0.0) for name in names)
        self.clock = time.perf_counter()

    def __call__(self, stage: str):
        now = time.perf_counter()
        self.stages[stage] += now - self.clock
        self.clock = now


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Ensemble-vs-PDE comparison over all torus sizes and times.

    The coefficient table is the stored `diffusion_table` when the config
    names one, else computed on the config's density grid and truncation.
    Every trajectory is continuity-checked against its bond ledger; block
    fields are averaged over replicas before distances are taken, and
    per-replica distances are logged alongside.  Each replica's fields are
    folded into the sums and distances as the replica arrives, in replica
    order.  The report's `stages` holds the call's seconds by stage:
    `profile_s` (the profile check and the initial PDE field), `table_s`
    (the coefficient table), `pde_s` (the PDE solves), `simulate_s` (the
    trajectories and their block fields) and `fold_s` (the targets, sums
    and distances).
    """
    stages = {}
    lap = _Laps(stages, ("profile_s", "table_s", "pde_s", "simulate_s", "fold_s"))
    profile = cfg.checked_profile()
    fld0 = DensityField.from_profile(profile, cfg.pde_resolution)
    lap("profile_s")
    table_record = {}
    table = _load_or_compute_table(cfg, table_record)
    lap("table_s")

    pde_fields = {}
    pde_solves = []
    for t, fld, solve in pde_through(fld0, table, cfg.times):
        pde_fields[t] = fld
        pde_solves.append(solve)
    lap("pde_s")

    rows = []
    report = ComparisonReport(config=cfg.to_dict(), rows=rows,
                              monotone_in_size={}, table_asymmetry=table.asymmetry,
                              pde_solves=pde_solves, stages=stages, table_record=table_record)
    try:
        for size_index, n in enumerate(cfg.torus_sizes):
            geom = TorusGeometry(cfg.dimension, n)
            targets = {t: pde_at_sites(pde_fields[t], n) for t in cfg.times}
            sums = {t: np.zeros(geom.n_sites) for t in cfg.times}
            per_replica = {t: [] for t in cfg.times}
            record = {}
            lap("fold_s")
            for fields in replica_results(cfg, size_index, record):
                lap("simulate_s")
                for t in cfg.times:
                    sums[t] += fields[t]
                    per_replica[t].append(compare_fields(fields[t], targets[t])["L1"])
                lap("fold_s")
            report.simulate.append(record)
            for t in cfg.times:
                mean_field = sums[t] / cfg.replicas
                dist = compare_fields(mean_field, targets[t])
                rows.append({
                    "N": n, "t": t,
                    "L1": dist["L1"], "L2": dist["L2"], "Linf": dist["Linf"],
                    "per_replica_L1": per_replica[t],
                })
        for t in cfg.times:
            vals = [row["L1"] for row in rows if row["t"] == t]
            report.monotone_in_size[repr(float(t))] = all(
                b < a for a, b in zip(vals, vals[1:]))
        lap("fold_s")
    except Exception as exc:  # flush partial results with a marker, then re-raise
        report.failure = f"{type(exc).__name__}: {exc}"
        if cfg.output_dir:
            try:
                emit_outputs(report, cfg.output_dir, cfg.formats)
            except Exception as flush_exc:
                # the report cannot reach disk, so the flush error goes to
                # stderr as well as into the report
                note = (f"partial-output flush failed: "
                        f"{type(flush_exc).__name__}: {flush_exc}")
                report.failure += f"; {note}"
                print(f"torusgas: {note}", file=sys.stderr)
        raise
    return report


def exact_small_experiment(cfg: ExperimentConfig, stages: dict | None = None) -> dict:
    """Tiny-torus diagnostics against the exact law.

    Reports (i) total-variation distance between the Monte Carlo ensemble
    and the exactly evolved distribution, with the ensemble's exact totals
    of drawn events and executed jumps per span, (ii) the exact relative
    entropy of the evolving law against the product state of the PDE
    solution along the run (with a closed-form cross-check at time zero),
    and (iii) exact stationarity of the flat product measure.  A `stages`
    dict receives the call's seconds by stage, for the run side file:
    `table_s` (the coefficient table), `pde_s` (the PDE references),
    `mc_s` (the Monte Carlo ensemble) and `exact_s` (the rest: the exact
    laws, their entropies and the set-up), and the table's records
    (`_load_or_compute_table`): under `densities` the solver record of each
    density of a computed table, as the `diffusion` record holds them, and
    under `engine` the computed table's engine build.
    """
    stages = {} if stages is None else stages
    lap = _Laps(stages, ("exact_s", "table_s", "pde_s", "mc_s"))
    n = cfg.exact_side
    mc_replicas = cfg.exact_replicas
    alpha = cfg.exact_alpha
    times = cfg.exact_times
    geom = TorusGeometry(cfg.dimension, n)
    if geom.n_sites > MAX_SITES:
        raise ConfigError("exact diagnostics need at most 13 sites")
    profile = cfg.checked_profile()

    marginals0 = site_probabilities(geom, profile)
    mu = product_distribution(geom, marginals0)

    # stationarity of the flat product measure; every exact law below
    # evolves under the one uniformized chain of this torus
    chain = uniformized_chain(geom, cfg.kernel)
    nu_alpha = product_distribution(geom, np.full(geom.n_sites, alpha))
    nu_evolved = exact_evolution_small(geom, cfg.kernel, nu_alpha, times[-1] * n ** 2,
                                       chain)
    stationarity_tv = total_variation(nu_evolved, nu_alpha)
    lap("exact_s")

    # PDE reference along the run (grid resolution a multiple of the side)
    resolution = max(cfg.pde_resolution, n)
    resolution += (-resolution) % n
    table = _load_or_compute_table(cfg, stages)
    lap("table_s")
    fld0 = DensityField.from_profile(profile, resolution)
    references = [(0.0, fld0)] + [(t, fld) for t, fld, _ in
                                  pde_through(fld0, table, times)]
    lap("pde_s")

    # exact law and entropy curve along the run, including the time-zero row
    exact_laws = {0.0: mu}
    for t, span in spans(times):
        mu = exact_evolution_small(geom, cfg.kernel, mu, span * n ** 2, chain)
        exact_laws[t] = mu
    entropy_rows = []
    for t, fld in references:
        law = exact_laws[t]
        nu_ref = product_distribution(geom, pde_at_sites(fld, n))
        entropy_rows.append({
            "t": t,
            "entropy_vs_profile_state": float(relative_entropy_distributions(law, nu_ref)),
            "entropy_vs_flat": float(relative_entropy_distributions(law, nu_alpha)),
        })
    lap("exact_s")

    # Monte Carlo ensemble through the same times, in lockstep batches
    hist = {t: np.zeros(1 << geom.n_sites, dtype=np.int64) for t in times}
    events = {t: 0 for t in times}
    jumps = {t: 0 for t in times}
    for batch, start in enumerate(range(0, mc_replicas, EXACT_BATCH)):
        size = min(EXACT_BATCH, mc_replicas - start)
        gen = RngStream(cfg.master_seed, (1, batch)).generator()
        codes = state_codes((gen.random((size, geom.n_sites)) < marginals0).astype(np.uint8))
        for t, span in spans(times):
            before = codes
            codes, moved, drawn = evolve_replicas(geom, codes, cfg.kernel, span * n ** 2, gen)
            check_replica_ledgers(geom, cfg.kernel.offsets, before, codes, moved)
            hist[t] += np.bincount(codes, minlength=1 << geom.n_sites)
            events[t] += int(drawn.sum())
            jumps[t] += moved.shape[1]
    mc_rows = []
    for t in times:
        emp = hist[t] / hist[t].sum()
        mc_rows.append({"t": t, "tv_mc_vs_exact": total_variation(emp, exact_laws[t]),
                        "events": events[t], "jumps": jumps[t]})
    lap("mc_s")

    # time-zero closed form: product-vs-product entropy from per-site marginals
    closed0 = relative_entropy_product(marginals0, marginals0)
    exact0 = entropy_rows[0]["entropy_vs_profile_state"]
    closed_alpha0 = relative_entropy_product(marginals0, np.full(geom.n_sites, alpha))
    exact_alpha0 = relative_entropy_distributions(exact_laws[0.0], nu_alpha)
    lap("exact_s")

    return {
        "side": n,
        "states": 1 << geom.n_sites,
        "stationarity_tv": float(stationarity_tv),
        "mc": mc_rows,
        "entropy": entropy_rows,
        "entropy_t0_closed_form": float(closed0),
        "entropy_t0_exact": float(exact0),
        "entropy_t0_vs_flat_closed_form": float(closed_alpha0),
        "entropy_t0_vs_flat_exact": float(exact_alpha0),
        "replicas": mc_replicas,
    }


def make_output_dir(path) -> Path:
    """The output directory, created when missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# distance table files: (format, file name, column separator, header prefix)
_DISTANCE_FILES = (("csv", "distances.csv", ",", ""), ("dat", "distances.dat", " ", "# "))
_DISTANCE_COLUMNS = ("N", "t", "L1", "L2", "Linf")


def emit_outputs(report: ComparisonReport, output_dir, formats) -> list:
    """Write report files; byte-identical across reruns with equal seeds."""
    out = make_output_dir(output_dir)
    written = []
    if "json" in formats:
        path = out / "report.json"
        write_json(path, report.to_dict())
        written.append(str(path))
    for fmt, name, sep, prefix in _DISTANCE_FILES:
        if fmt in formats:
            path = out / name
            lines = [prefix + sep.join(_DISTANCE_COLUMNS)]
            lines += [sep.join(repr(row[c]) for c in _DISTANCE_COLUMNS) for row in report.rows]
            path.write_text("\n".join(lines) + "\n")
            written.append(str(path))
    write_run_meta(out, pde=report.pde_solves, simulate=report.simulate,
                   compare=report.stages, **report.table_record)
    return written


def write_run_meta(out: Path, **records):
    """The side file outside the byte-identical contract: write time, peak
    resident memory of this process (Linux reports kilobytes) plus records."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    write_json(out / "run_meta.json",
               {"wall_time": time.time(), "peak_rss_mb": peak_mb, **records})
