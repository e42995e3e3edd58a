"""Spans and counts around calls into each phaseirls layer, for the traced run only.

``traced(tracer)`` rebinds public names in the phaseirls modules (for example
``phaseirls.irls.apply_system`` or ``phaseirls.kernels.apply_system_blocks``)
to wrappers that record a span per call, and restores the originals on exit.
Nothing under ``src/`` is edited.  A name is rebound where its caller looks it
up: ``irls`` imports its collaborators by name, while ``operators``, ``phase``
and ``preconditioner`` reach the kernels and ``sylvester_solve`` through
module globals.  Spans stay in memory until the run ends.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metrics of the traced run, with their units.  Values are means per
# traced unit.  "computed" rates divide operation or byte counts derived from
# array shapes by measured time; they ignore cache effects.
PER_LAYER = {
    "preconditioner.apply_preconditioner.s": "s",
    "preconditioner.apply_preconditioner.calls": "count",
    "preconditioner.sylvester_solve.s": "s",
    "preconditioner.sylvester_solve.gflop_computed": "GFLOP",
    "preconditioner.sylvester_solve.gflops_computed": "GFLOP/s",
    "preconditioner.build_spectral_cache.s": "s",
    "preconditioner.build_preconditioner.s": "s",
    "preconditioner.self.s": "s",
    "operators.apply_system.s": "s",
    "operators.apply_system.calls": "count",
    "operators.build_rhs.s": "s",
    "operators.self.s": "s",
    "kernels.apply_system_blocks.s": "s",
    "kernels.apply_system_blocks.gb_computed": "GB",
    "kernels.apply_system_blocks.gbps_computed": "GB/s",
    "kernels.stencil.s": "s",
    "kernels.stencil.calls": "count",
    "kernels.self.s": "s",
    "pcg.pcg_solve.s": "s",
    "pcg.self.s": "s",
    "pcg.iters": "count",
    "pcg.solves": "count",
    "pcg.converged_frac": "frac",
    "pcg.budget_frac": "frac",
    "objective.eval_h_delta.s": "s",
    "objective.eval_h_delta.calls": "count",
    "objective.update_weights.s": "s",
    "objective.candidate_step.s": "s",
    "objective.self.s": "s",
    "irls.unwrap.s": "s",
    "irls.self.s": "s",
    "irls.outer_iters": "count",
    "irls.fallbacks": "count",
    "irls.accept_frac": "frac",
    "phase.wrapped_gradients.s": "s",
    "phase.self.s": "s",
    "arrayio.load_grid.s": "s",
    "arrayio.save_grid.s": "s",
    "arrayio.mb": "MB",
    "arrayio.self.s": "s",
    "cli.self.s": "s",
    "quality.objective_l1": "rad/arc",
    "trace.overhead_frac": "frac",
}

LAYERS = ("cli", "arrayio", "irls", "phase", "operators", "kernels", "pcg",
          "preconditioner", "objective")

_STENCILS = ("diff_rows", "diff_cols", "adj_diff_rows", "adj_diff_cols")


def _count_unwrap(counts, args, kwargs, out):
    counts["irls.outer_iters"] += len(out.trace)
    counts["irls.fallbacks"] += out.trace.fallback_count()


def _count_pcg(counts, args, kwargs, out):
    counts["pcg.solves"] += 1
    counts["pcg.iters"] += out.iterations
    counts["pcg.converged"] += bool(out.converged)
    counts["pcg.budget"] += kwargs["max_iters"]


def _count_sylvester(counts, args, kwargs, out):
    n, m = args[0].shape
    # two dense products forward and two back: 4n^2m + 4nm^2 flops
    counts["sylvester.flop"] += 4 * n * n * m + 4 * n * m * m


def _count_blocks(counts, args, kwargs, out):
    # five input grids (u, vv, vh, dv, dh) read and three written
    counts["blocks.bytes"] += sum(a.nbytes for a in args[:5]) + sum(o.nbytes for o in out)


def _count_load(counts, args, kwargs, out):
    counts["arrayio.bytes"] += out.nbytes


def _count_save(counts, args, kwargs, out):
    counts["arrayio.bytes"] += np.asarray(args[1]).size * 8


# (module, attribute, span name, count hook)
TARGETS = [
    ("phaseirls.cli", "main", "cli.main", None),
    ("phaseirls.cli", "load_grid", "arrayio.load_grid", _count_load),
    ("phaseirls.cli", "save_grid", "arrayio.save_grid", _count_save),
    ("phaseirls.cli", "unwrap", "irls.unwrap", _count_unwrap),
    ("phaseirls.irls", "unwrap", "irls.unwrap", _count_unwrap),
    ("phaseirls.irls", "wrapped_gradients", "phase.wrapped_gradients", None),
    ("phaseirls.irls", "build_rhs", "operators.build_rhs", None),
    ("phaseirls.irls", "apply_system", "operators.apply_system", None),
    ("phaseirls.irls", "build_spectral_cache", "preconditioner.build_spectral_cache", None),
    ("phaseirls.irls", "build_preconditioner", "preconditioner.build_preconditioner", None),
    ("phaseirls.irls", "apply_preconditioner", "preconditioner.apply_preconditioner", None),
    ("phaseirls.preconditioner", "sylvester_solve", "preconditioner.sylvester_solve",
     _count_sylvester),
    ("phaseirls.irls", "pcg_solve", "pcg.pcg_solve", _count_pcg),
    ("phaseirls.irls", "update_weights", "objective.update_weights", None),
    ("phaseirls.irls", "eval_h_delta", "objective.eval_h_delta", None),
    ("phaseirls.irls", "candidate_step", "objective.candidate_step", None),
    ("phaseirls.kernels", "apply_system_blocks", "kernels.apply_system_blocks", _count_blocks),
] + [("phaseirls.kernels", name, "kernels.stencil", None) for name in _STENCILS]


class Tracer:
    """Spans ``[name, start, end, parent, unit]`` and per-unit counts, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._unit = None

    def begin_unit(self, unit):
        self._unit = unit
        self.counts[unit] = defaultdict(float)

    def wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._unit]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[self._unit], args, kwargs, out)
            return out

        return wrapper


@contextmanager
def traced(tracer):
    """Rebind every target to a timing wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, span_name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def per_unit_metrics(tracer, units):
    """Means over ``units`` of the span-derived and counted per-layer metrics."""
    wanted = set(units)
    spans = tracer.spans
    selfs = self_times(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        name, start, end, _, unit = span
        if unit not in wanted:
            continue
        incl[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
    counts = defaultdict(float)
    for unit in units:
        for key, value in tracer.counts[unit].items():
            counts[key] += value

    k = len(units)
    out = {f"{layer}.self.s": t / k for layer, t in layer_self.items()}
    for key in PER_LAYER:
        span, _, suffix = key.rpartition(".")
        if suffix == "calls":
            out[key] = calls[span] / k
        elif suffix == "s" and not span.endswith(".self"):
            out[key] = incl[span] / k
    syl_s = incl["preconditioner.sylvester_solve"]
    blk_s = incl["kernels.apply_system_blocks"]
    out["preconditioner.sylvester_solve.gflop_computed"] = counts["sylvester.flop"] / 1e9 / k
    out["preconditioner.sylvester_solve.gflops_computed"] = (
        counts["sylvester.flop"] / 1e9 / syl_s if syl_s > 0 else 0.0)
    out["kernels.apply_system_blocks.gb_computed"] = counts["blocks.bytes"] / 1e9 / k
    out["kernels.apply_system_blocks.gbps_computed"] = (
        counts["blocks.bytes"] / 1e9 / blk_s if blk_s > 0 else 0.0)
    out["pcg.iters"] = counts["pcg.iters"] / k
    out["pcg.solves"] = counts["pcg.solves"] / k
    solves = counts["pcg.solves"]
    out["pcg.converged_frac"] = counts["pcg.converged"] / solves if solves else 0.0
    out["pcg.budget_frac"] = counts["pcg.iters"] / counts["pcg.budget"] if counts["pcg.budget"] else 0.0
    outer = counts["irls.outer_iters"]
    out["irls.outer_iters"] = outer / k
    out["irls.fallbacks"] = counts["irls.fallbacks"] / k
    out["irls.accept_frac"] = 1.0 - counts["irls.fallbacks"] / outer if outer else 0.0
    out["arrayio.mb"] = counts["arrayio.bytes"] / 1e6 / k
    return out

