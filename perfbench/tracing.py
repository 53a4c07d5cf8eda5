"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps public functions and methods of `torusgas` at every place a
caller looks them up (module attributes that were bound by name with
`from .x import f`, class attributes, and the methods of each assembled
engine).  Each call records one span: name, start, end and parent.  Spans
are kept in flat in-memory arrays and written once, after the workload ends.

Per-layer metrics are derived from the spans: a layer is the first component
of a span name, and a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# side lengths whose evolve throughput is reported (the criterion-9 tori)
ATTEMPT_SIDES = (8, 16, 32)


class Tracer:
    """In-memory span recorder plus the counters that spans cannot carry."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        # per torus side: expected attempts sum(k * T) and evolve seconds
        self.expected_attempts = {}
        self.evolve_busy = {}
        self.jumps = 0
        self.reported_iterations = 0
        self.engines = []
        self.missing = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; `after(result, args, seconds)` sees each call."""
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, end[idx] - start[idx])
            return result

        return traced

    # installation ---------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind every `torusgas.*` module attribute that is `original`."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "torusgas" or modname.startswith("torusgas.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"tracer found no binding of {original!r}")

    # A name the package no longer has is skipped and listed in `missing`;
    # its metrics then read 0, so the benchmark keeps running across
    # refactors that delete a function.

    def _patch_function(self, module, attr: str, name: str, after=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patch_everywhere(original, self.wrap(name, original, after))

    def _patch_method(self, cls, attr: str, name: str):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, self.wrap(name, raw))

    def instrument_engine(self, engine):
        """Wrap the solver-facing methods of one assembled engine instance."""
        for attr, name in (("resolvent_matvec", "packed.matvec"),
                           ("apply_sym", "packed.apply_sym"),
                           ("clipped_outflow", "packed.clipped_outflow")):
            method = getattr(engine, attr, None)
            if method is None:
                self.missing.append(f"engine.{attr}")
            else:
                setattr(engine, attr, self.wrap(name, method))
        self.engines.append(engine)
        return engine

    def install(self):
        """Wrap the layer boundaries of an imported `torusgas` package."""
        from torusgas import exactsmall, harness, lattice, packed, pde, resolvent, simulate

        def on_engine(engine, _args, _seconds):
            self.instrument_engine(engine)

        def on_diffusion(result, _args, _seconds):
            self.reported_iterations += int(result.solver.get("iterations", 0))

        def on_evolve(result, args, seconds):
            config, duration = args[0], args[2]
            side = config.geometry.side
            self.expected_attempts[side] = (self.expected_attempts.get(side, 0.0)
                                            + config.particle_count * float(duration))
            self.evolve_busy[side] = self.evolve_busy.get(side, 0.0) + seconds
            self.jumps += int(result[1].counts.sum())

        self._patch_method(packed.PackedSpace, "__init__", "packed.enumerate")
        self._patch_function(packed, "assemble", "packed.assemble", after=on_engine)

        self._patch_function(resolvent, "compute_diffusion", "resolvent.compute_diffusion",
                             after=on_diffusion)
        self._patch_function(resolvent, "resolvent_solve", "resolvent.solve")
        self._patch_function(resolvent, "translation_violation_packed",
                             "resolvent.translation_check")
        self._patch_function(resolvent, "h1_form_packed", "resolvent.h1_form")
        self._patch_function(resolvent, "h_minus_one_sq", "resolvent.h_minus_one_sq")

        self._patch_function(simulate, "evolve", "simulate.evolve", after=on_evolve)
        self._patch_method(simulate.RngStream, "generator", "simulate.rng_setup")
        self._patch_method(simulate.CurrentLedger, "check_continuity", "simulate.continuity")

        self._patch_function(lattice, "sample_product_measure", "lattice.sample")
        self._patch_function(lattice, "block_density", "lattice.block_density")
        self._patch_method(lattice.Configuration, "state_code", "lattice.state_code")

        self._patch_function(pde, "solve_to_time", "pde.solve")
        self._patch_function(pde, "pde_step", "pde.step")
        self._patch_function(pde, "stability_limit", "pde.stability_limit")

        self._patch_function(exactsmall, "exact_evolution_small", "exactsmall.evolve")
        self._patch_function(exactsmall, "product_distribution",
                             "exactsmall.product_distribution")

        self._patch_function(harness, "run_experiment", "harness.run_experiment")
        self._patch_function(harness, "emit_outputs", "harness.emit_outputs")
        self._patch_function(harness, "exact_small_experiment",
                             "harness.exact_small_experiment")
        self._patch_method(harness.ExperimentConfig, "from_dict", "harness.config_parse")

    # analysis --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def layer_metrics(self, after_setup: tuple) -> dict:
        """Per-layer metrics of the recorded spans.

        `after_setup` is the (end of set-up, verified result) window in
        `time.monotonic` seconds; `trace.covered_s` is the part of it that
        top-level spans cover.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return nid == ids[name] if name in ids else np.zeros(len(nid), bool)

        def total(name):
            return float(dur[sel(name)].sum())

        def count(name):
            return int(sel(name).sum())

        def median_ms(name):
            d = dur[sel(name)]
            return float(np.median(d) * 1e3) if len(d) else 0.0

        def layer_self(layer):
            mask = np.zeros(len(nid), bool)
            for name, i in ids.items():
                if name.split(".")[0] == layer:
                    mask |= nid == i
            return float(self_time[mask].sum())

        solve = sel("resolvent.solve")
        matvec = sel("packed.matvec")
        iterating = np.zeros(len(nid), bool)
        iterating[parent[matvec & has_parent]] = True
        iterating &= solve
        matvecs = int(matvec.sum())

        m = {}
        engine = max(self.engines, key=lambda e: e.space.size, default=None)
        matrices = engine_matrices(engine)
        m["packed.enumerate_s"] = total("packed.enumerate")
        m["packed.assemble_s"] = total("packed.assemble")
        m["packed.space_size"] = engine.space.size if engine is not None else 0
        m["packed.nnz"] = sum(int(mat.nnz) for mat in matrices)
        m["packed.matvec_ms"] = median_ms("packed.matvec")
        m["packed.matvec_bytes"] = (
            sum(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                for mat in matrices) + 2 * 8 * m["packed.space_size"])
        m["packed.self_s"] = layer_self("packed")

        m["resolvent.solves"] = int(solve.sum())
        m["resolvent.matvecs"] = matvecs
        m["resolvent.reported_iterations"] = self.reported_iterations
        n_iter = int(iterating.sum())
        m["resolvent.matvecs_per_solve"] = matvecs / n_iter if n_iter else 0.0
        m["resolvent.krylov_s"] = float(self_time[solve].sum())
        m["resolvent.translation_check_s"] = total("resolvent.translation_check")
        m["resolvent.forms_s"] = total("resolvent.h1_form") + total("resolvent.h_minus_one_sq")
        m["resolvent.self_s"] = layer_self("resolvent")

        for side in ATTEMPT_SIDES:
            busy = self.evolve_busy.get(side, 0.0)
            attempts = self.expected_attempts.get(side, 0.0)
            m[f"simulate.attempts_per_s.N{side}"] = attempts / busy if busy else 0.0
        evolve = sel("simulate.evolve")
        m["simulate.jumps"] = self.jumps
        n_evolve = int(evolve.sum())
        m["simulate.evolve_us_per_call"] = (float(dur[evolve].sum()) / n_evolve * 1e6
                                            if n_evolve else 0.0)
        m["simulate.rng_setup_s"] = total("simulate.rng_setup")
        m["simulate.continuity_s"] = total("simulate.continuity")
        m["simulate.self_s"] = layer_self("simulate")

        m["lattice.sample_s"] = total("lattice.sample")
        m["lattice.block_density_s"] = total("lattice.block_density")
        m["lattice.state_code_s"] = total("lattice.state_code")
        m["lattice.self_s"] = layer_self("lattice")

        m["pde.steps"] = count("pde.step")
        m["pde.step_ms"] = median_ms("pde.step")
        m["pde.stability_limit_s"] = total("pde.stability_limit")
        m["pde.solve_s"] = total("pde.solve")
        m["pde.self_s"] = layer_self("pde")

        m["exactsmall.evolve_s"] = total("exactsmall.evolve")
        m["exactsmall.self_s"] = layer_self("exactsmall")

        m["harness.self_s"] = layer_self("harness")
        m["harness.config_parse_s"] = total("harness.config_parse")

        top = ~has_parent
        m["trace.covered_s"] = covered_seconds(
            list(zip(a["start"][top], a["end"][top])), after_setup)
        m["trace.spans"] = len(nid)
        return m


def engine_matrices(engine) -> list:
    """The sparse matrices a matvec reads: degree-preserving and -changing arrows.

    `packed.matvec_bytes` is computed from them, not measured: every stored
    value, column index and row pointer read once, plus the input and output
    vectors streamed once each; cache misses and temporaries are not counted.
    """
    if engine is None:
        return []
    return [mat for mat in (getattr(engine, "keep", None), getattr(engine, "updown", None))
            if mat is not None]


def covered_seconds(intervals, window: tuple) -> float:
    """Length of the part of `window` covered by the union of the intervals."""
    lo, hi = window
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    covered, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered
