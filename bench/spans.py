"""Span recording around penmfg's public functions, from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper at every penmfg
module that holds a reference to it (``penmfg.equilibrium.simulate``,
``penmfg.dp.simulate``, ``penmfg.cli.simulate`` ... all get the same
wrapper), so no call site is missed and nothing under ``src/`` changes.
Each call appends one span ``[name, start, end, parent]`` to an in-memory
list; counts of work done are read off arguments and return values at the
same boundary.  :func:`layer_metrics` turns spans and counts into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _sim_counts(counts, args, result):
    paths = result[0]
    counts["simulate.particle_steps"] += paths.n_particles * paths.n_steps


def _w2_counts(counts, args, result):
    counts["measures.w2_frames"] += len(args[0].frames)


def _chain_counts(counts, args, result):
    counts["dp.slices"] += result.n_slices
    counts["dp.substeps"] += int(result.substeps.sum())


def _solve_counts(counts, args, result):
    counts["dp.solve_slices"] += args[0].n_slices


def _equilibrium_counts(counts, args, result):
    counts["equilibrium.iterations"] += result.iterations
    counts["equilibrium.converged"] += int(result.converged)


# (module, function, span name, count hook).  Artifact writers share the
# "write" prefix so their total is the CLI's artifact time.
TRACED = [
    ("penmfg.config", "parse_config_file", "config.parse", None),
    ("penmfg.config", "apply_overrides", "config.overrides", None),
    ("penmfg.config", "build_model", "config.build_model", None),
    ("penmfg.cli", "_write_text", "write.text", None),
    ("penmfg.simulate", "paths_to_csv", "write.paths_to_csv", None),
    ("penmfg.measures", "flow_to_csv", "write.flow_to_csv", None),
    ("penmfg.dp", "value_to_csv", "write.value_to_csv", None),
    ("penmfg.simulate", "simulate", "simulate", _sim_counts),
    ("penmfg.simulate", "evaluate_cost", "evaluate_cost", None),
    ("penmfg.rng", "step_normals", "step_normals", None),
    ("penmfg.domain", "project", "project", None),
    ("penmfg.controls", "sample_control", "sample_control", None),
    ("penmfg.measures", "w2_flow", "w2_flow", _w2_counts),
    ("penmfg.measures", "d_relaxed", "d_relaxed", None),
    ("penmfg.dp", "build_chain", "build_chain", _chain_counts),
    ("penmfg.dp", "solve_dp", "solve_dp", _solve_counts),
    ("penmfg.dp", "exploitability", "exploitability", None),
    ("penmfg.equilibrium", "solve_equilibrium", "solve_equilibrium",
     _equilibrium_counts),
]


class Tracer:
    """In-memory span recorder; call :meth:`install` after importing penmfg."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every traced function at each penmfg module that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.split(".")[0] == "penmfg"]
        for mod_name, fn_name, span, hook in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(span, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _aggregate(spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] += 1
        incl[name] += dur[i]
        self_s[name] += dur[i] - child[i]
    return calls, incl, self_s


def _iteration_seconds(spans):
    """Fixed-point loop time: each solve minus its set-up and closing calls.

    The first ``simulate`` child of a solve is the self-interacting start,
    and ``evaluate_cost`` and ``exploitability`` run after the loop.
    """
    total = 0.0
    started = set()
    for name, start, end, parent in spans:
        if name == "solve_equilibrium":
            total += end - start
        elif parent >= 0 and spans[parent][0] == "solve_equilibrium":
            first = parent not in started
            started.add(parent)
            if (first and name == "simulate") or name in ("evaluate_cost",
                                                          "exploitability"):
                total -= end - start
    return total


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer figures; ``_s`` values are self time unless noted."""
    calls, incl, self_s = _aggregate(tracer.spans)
    c = tracer.counts
    write_s = sum(v for k, v in incl.items() if k.startswith("write."))
    psteps = c["simulate.particle_steps"]
    solves = calls["solve_equilibrium"]
    iters = c["equilibrium.iterations"]
    return {
        "cli.artifact_bytes": (artifact_bytes, "count"),
        "cli.artifact_write_s": (write_s, "s"),
        "cli.write_mb_per_s": (_ratio(artifact_bytes, write_s, 1e-6), "MB/s"),
        "config.setup_s": (incl["config.parse"] + incl["config.overrides"]
                           + incl["config.build_model"], "s"),
        "simulate.calls": (calls["simulate"], "count"),
        "simulate.particle_steps": (psteps, "count"),
        "simulate.self_s": (self_s["simulate"], "s"),
        # inclusive: the whole scheme step, control sampling and noise too
        "simulate.ns_per_particle_step": (
            _ratio(incl["simulate"], psteps, 1e9), "ns"),
        "simulate.paths_to_csv_s": (incl["write.paths_to_csv"], "s"),
        "simulate.evaluate_cost_s": (self_s["evaluate_cost"], "s"),
        "rng.step_normals_s": (self_s["step_normals"], "s"),
        "domain.project_calls": (calls["project"], "count"),
        "domain.project_s": (self_s["project"], "s"),
        "controls.sample_control_calls": (calls["sample_control"], "count"),
        "controls.sample_control_s": (self_s["sample_control"], "s"),
        "controls.ns_per_particle_step": (
            _ratio(self_s["sample_control"], psteps, 1e9), "ns"),
        "measures.w2_flow_calls": (calls["w2_flow"], "count"),
        "measures.w2_frames": (c["measures.w2_frames"], "count"),
        "measures.w2_flow_s": (self_s["w2_flow"], "s"),
        "measures.us_per_frame": (
            _ratio(self_s["w2_flow"], c["measures.w2_frames"], 1e6), "us"),
        "measures.d_relaxed_s": (self_s["d_relaxed"], "s"),
        "measures.flow_to_csv_s": (incl["write.flow_to_csv"], "s"),
        "dp.build_chain_s": (self_s["build_chain"], "s"),
        "dp.slices": (c["dp.slices"], "count"),
        "dp.build_chain_ms_per_slice": (
            _ratio(self_s["build_chain"], c["dp.slices"], 1e3), "ms"),
        "dp.solve_dp_s": (self_s["solve_dp"], "s"),
        "dp.solve_dp_ms_per_slice": (
            _ratio(self_s["solve_dp"], c["dp.solve_slices"], 1e3), "ms"),
        "dp.substeps": (c["dp.substeps"], "count"),
        "dp.exploitability_s": (incl["exploitability"], "s"),
        "dp.value_to_csv_s": (incl["write.value_to_csv"], "s"),
        "equilibrium.solves": (solves, "count"),
        "equilibrium.iterations": (iters, "count"),
        "equilibrium.converged_frac": (
            _ratio(c["equilibrium.converged"], solves), "ratio"),
        # inclusive, mean over fixed-point iterations
        "equilibrium.iteration_s": (
            _ratio(_iteration_seconds(tracer.spans), iters), "s"),
        "equilibrium.self_s": (self_s["solve_equilibrium"], "s"),
    }


def call_counts(tracer: Tracer) -> dict:
    calls, _, _ = _aggregate(tracer.spans)
    return dict(calls)
