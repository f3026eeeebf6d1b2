"""Span recorder for the traced benchmark pass.

The program is traced from outside: each module function that ``harness``
calls is replaced, where its caller looks it up, by a wrapper that
records a span (name, start, end, parent). Spans stay in memory and are
written out when the benchmark ends; per-layer self times are computed
from them afterwards. ``instrument`` restores every original on exit.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from maicnet import harness, strategies, theory, weight_opt


class SpanRecorder:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Per-name total self time.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        totals[name] += (end - start) - covered
    return dict(totals)


def durations(spans, name: str) -> list[float]:
    return [end - start for span_name, start, end, _ in spans if span_name == name]


def _count_qp(counts, args, result):
    _, ok = result
    counts["qp_instances"] += len(ok)
    counts["qp_fallbacks"] += int((~ok).sum())


def _count_p1(counts, args, result):
    certificate = result[1]
    counts["p1_iterations"] += certificate.iterations
    counts["solves"] += 1
    counts["certified"] += bool(certificate.certified)


def _count_p2(counts, args, result):
    solutions = result[1]
    counts["p2_iterations"] += sum(s.iterations for s in solutions)
    counts["solves"] += len(solutions)
    counts["certified"] += sum(bool(s.certified) for s in solutions)


def _count_analyze(counts, args, result):
    model = args[2]
    stacked = model.n_nodes * model.dim
    counts["lifted_mb"] = max(counts["lifted_mb"], stacked**4 * 8 / 1e6)


def _count_draw(counts, args, result):
    counts["draw_mb"] += sum(array.nbytes for array in result[:4]) / 1e6


# (owner, attribute, span name, counter). Each name is patched where its
# caller looks it up: harness imported the topology and signal-model
# functions by name, while the weight solvers, theory and the steps are
# read from their modules at call time.
PATCHES = (
    (harness, "run_scenario", "harness.run", None),
    (harness, "compile_scenario", "harness.compile", None),
    (harness, "_simulate_chunk", "harness.chunk", None),
    (harness, "_draw_chunk", "harness.draw", _count_draw),
    (harness.ScenarioResult, "write_outputs", "harness.write", None),
    (harness.ClusteredTopology, "from_edges", "topology.build", None),
    (harness, "metropolis_weights", "topology.build", None),
    (harness, "validate_column_stochastic", "topology.build", None),
    (harness, "averaging_rule_weights", "topology.build", None),
    (harness, "cooperation_from_regularizer", "topology.build", None),
    (harness.SignalModel, "from_profiles", "signal_model.models", None),
    (harness, "noise_profile_uniform_db", "signal_model.models", None),
    (harness, "sample_parameters", "signal_model.sample_parameters", None),
    (weight_opt, "solve_p1", "weight_opt.p1", _count_p1),
    (weight_opt, "solve_p2_all_nodes", "weight_opt.p2", _count_p2),
    (weight_opt, "solve_simplex_qp_batch", "weight_opt.qp_batch", _count_qp),
    (theory, "analyze", "theory.analyze", _count_analyze),
    (strategies, "maic_step", "strategies.fixed_step", None),
    (strategies, "mdlms_step", "strategies.mdlms_step", None),
    (strategies, "maic_adaptive_step", "strategies.adaptive_step", None),
)


@contextmanager
def patched(replacements):
    """Set ``owner.attribute = make(original)`` for each entry, restoring on exit.

    Class attributes are handled through the raw descriptor, so a
    classmethod stays a classmethod. A missing attribute raises
    ``KeyError``.
    """
    saved = []
    try:
        for owner, attribute, make in replacements:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def instrument(recorder: SpanRecorder):
    """Patch every layer boundary in ``PATCHES`` to record into ``recorder``."""
    return patched(
        [
            (owner, attribute, lambda fn, n=name, c=count: recorder.wrap(n, fn, c))
            for owner, attribute, name, count in PATCHES
        ]
    )


def timed_compile(times: list):
    """Patch only ``harness.compile_scenario`` to append its wall time."""

    def make(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - start)

        return timed

    return patched([(harness, "compile_scenario", make)])


def timed_pool(walls: list):
    """Patch ``harness.ProcessPoolExecutor`` to record the pool's wall time
    in the parent, from creation until every worker has been joined."""

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_start = time.perf_counter()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                walls.append(time.perf_counter() - self._bench_start)

    return patched([(harness, "ProcessPoolExecutor", lambda _: TimedPool)])


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer figures of one traced ``run_scenario`` plus ``write_outputs``."""
    spans = recorder.spans
    own = self_times(spans)
    counts = recorder.counts
    chunks = durations(spans, "harness.chunk")
    instances = counts["qp_instances"]
    solves = counts["solves"]
    step_calls = sum(
        len(durations(spans, name))
        for name in ("strategies.fixed_step", "strategies.mdlms_step", "strategies.adaptive_step")
    )
    return {
        "weight_opt.qp_batch_s": own.get("weight_opt.qp_batch", 0.0),
        "weight_opt.qp_batch_calls": len(durations(spans, "weight_opt.qp_batch")),
        "weight_opt.qp_batch_instances": instances,
        "weight_opt.qp_fallback_frac": counts["qp_fallbacks"] / instances if instances else 0.0,
        "weight_opt.p1_s": own.get("weight_opt.p1", 0.0),
        "weight_opt.p1_iterations": counts["p1_iterations"],
        "weight_opt.p2_s": own.get("weight_opt.p2", 0.0),
        "weight_opt.p2_iterations": counts["p2_iterations"],
        "weight_opt.certified_frac": counts["certified"] / solves if solves else 0.0,
        "theory.analyze_s": own.get("theory.analyze", 0.0),
        "theory.analyze_calls": len(durations(spans, "theory.analyze")),
        "theory.lifted_mb": counts["lifted_mb"],
        "strategies.adaptive_step_s": own.get("strategies.adaptive_step", 0.0),
        "strategies.fixed_step_s": own.get("strategies.fixed_step", 0.0),
        "strategies.mdlms_step_s": own.get("strategies.mdlms_step", 0.0),
        "strategies.step_calls": step_calls,
        "signal_model.models_s": own.get("signal_model.models", 0.0),
        "signal_model.sample_parameters_s": own.get("signal_model.sample_parameters", 0.0),
        "topology.build_s": own.get("topology.build", 0.0),
        "harness.draw_s": own.get("harness.draw", 0.0),
        "harness.draw_mb": counts["draw_mb"],
        "harness.loop_self_s": own.get("harness.chunk", 0.0),
        "harness.chunk_s.median": statistics.median(chunks) if chunks else 0.0,
        "harness.chunk_s.max": max(chunks, default=0.0),
        "harness.chunk_sum_s": sum(chunks),
        "harness.compile_self_s": own.get("harness.compile", 0.0),
        "harness.reduce_s": own.get("harness.run", 0.0),
        "harness.write_s": own.get("harness.write", 0.0),
    }
