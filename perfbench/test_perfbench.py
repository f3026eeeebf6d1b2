"""Tests for the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maicnet import harness, theory  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],  # overlaps a: the root loses [1, 6] once
        ["a", 7.0, 8.0, 0],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"root": 10.0 - 5.0 - 1.0, "a": 2.0 + 1.0, "leaf": 1.0, "b": 3.0})
    assert tracing.durations(spans, "a") == [3.0, 1.0]


def test_recorder_nests_spans_and_restores_originals():
    original_step = vars(harness.strategies)["maic_step"]
    original_factory = vars(harness.ClusteredTopology)["from_edges"]
    recorder = tracing.SpanRecorder()
    outer = recorder.wrap("outer", lambda: inner())
    inner = recorder.wrap("inner", lambda: 1)
    assert outer() == 1
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [("outer", -1), ("inner", 0)]
    with tracing.instrument(tracing.SpanRecorder()):
        assert vars(harness.strategies)["maic_step"] is not original_step
        assert isinstance(vars(harness.ClusteredTopology)["from_edges"], classmethod)
    assert vars(harness.strategies)["maic_step"] is original_step
    assert vars(harness.ClusteredTopology)["from_edges"] is original_factory


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    for seed in (0, 5):
        first = workloads.build(name, seed).to_dict()
        assert workloads.build(name, seed).to_dict() == first
        assert workloads.build(name, seed + workloads.VARIANTS).to_dict() == first
    assert workloads.build(name, 0).to_dict() != workloads.build(name, 1).to_dict()


def test_compile_n24_stays_in_the_theory_regime():
    for seed in range(workloads.VARIANTS):
        scenario = workloads.build("compile-n24", seed)
        shape = workloads.shape(scenario)
        assert (shape["n_nodes"], shape["clusters"], shape["dim"]) == (24, 4, 2)
        assert scenario.n_nodes * scenario.dim <= theory.SIZE_CAP
        workloads.require_theory_regime(scenario)


def test_names_follow_the_contract():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names + metrics:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names + metrics)) == len(names + metrics)
    assert set(names) == set(run.WORKERS) == set(workloads.GENERATORS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.layer_metrics(tracing.SpanRecorder())) <= layer_names
