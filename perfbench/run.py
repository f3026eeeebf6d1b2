#!/usr/bin/env python3
"""maicnet benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload study-a --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats ``run_scenario`` plus ``write_outputs`` for
``--seconds`` seconds with only ``harness.compile_scenario`` timed, and
reports the end-to-end metrics of ``BENCHMARK.json`` as medians over the
repetitions. ``--trace 1`` alternates untraced and traced single-worker
repetitions (plus, for multi-worker workloads, a run with the process
pool timed) and reports the per-layer metrics. Either way the outputs
are checked against ``perfbench/reference.json``; the last line of
standard output is the result JSON, and the exit code is nonzero if a
check failed. Run artifacts, including the recorded spans, go to
``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Worker processes per workload.
WORKERS = {"study-a": 1, "compile-n24": 1, "study-b-2w": 2}
# One BLAS thread per process keeps workers x threads <= nproc for every
# workload. With two threads, peak RSS on compile-n24 flipped between
# runs by one 32 MB OpenBLAS thread buffer.
BLAS_THREADS = 1
SETUP_REPEATS = 31

# Timed in a fresh interpreter: importing maicnet and building the scenario.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
import maicnet
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> None:
    """Apply ``BLAS_THREADS``; must run before numpy is imported."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)


def python_path() -> str:
    parts = [str(ROOT / "src"), str(BENCH), os.environ.get("PYTHONPATH", "")]
    return os.pathsep.join(p for p in parts if p)


def measure_setup(workload: str, seed: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=python_path())
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, workload, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def repeat(body, seconds: float) -> None:
    """Call ``body`` at least once, and again until one more call would
    overrun ``seconds``."""
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - rep_start) > started + seconds:
            return


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blas_build(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "maicnet").is_dir():
        print(f"error: no maicnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workers = WORKERS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import numpy as np

    import checks
    import tracing
    import workloads
    from maicnet import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scenario = workloads.build(args.workload, args.seed)
    if workloads.build(args.workload, args.seed).to_dict() != scenario.to_dict():
        raise RuntimeError("the workload generator is not deterministic")
    if args.workload == "compile-n24":
        workloads.require_theory_regime(scenario)
    variant = workloads.variant(args.seed)
    expected = checks.load_reference(args.workload, variant)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def run_once(workers_now: int, subdir: str):
        start = time.perf_counter()
        result = harness.run_scenario(scenario, workers=workers_now)
        result.write_outputs(out / subdir)
        return result, time.perf_counter() - start

    work_per_rep = scenario.runs * scenario.iterations * len(scenario.strategies)
    totals, compiles, traced_totals, recorders, pool_walls = [], [], [], [], []
    # Per run_scenario call, its stream digest and aborted-run count. Only
    # the last result is kept, so peak RSS does not grow with the number
    # of repetitions.
    reps, last = [], []

    def keep(result):
        aborted = sum(len(runs) for runs in result.diagnostics["aborted"].values())
        reps.append((result.stream_digest, aborted))
        last[:] = [result]

    def untraced_rep():
        with tracing.timed_compile(compiles):
            result, total = run_once(workers, "run")
        totals.append(total)
        keep(result)

    def traced_rep():
        totals.append(run_once(1, "untraced")[1])
        recorder = tracing.SpanRecorder()
        with tracing.instrument(recorder):
            result, total = run_once(1, "run")
        recorders.append(recorder)
        traced_totals.append(total)
        if workers > 1:
            with tracing.timed_pool(pool_walls):
                keep(run_once(workers, "pool")[0])
        keep(result)

    repeat(traced_rep if args.trace else untraced_rep, args.seconds)
    # Read before the setup probes, so that only pool workers count as children.
    rss = peak_rss_mb()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    # The last result is the one whose files are in out/run.
    result = last[0]
    found = [
        ("stream_digest.rep", digest == expected["stream_digest"], digest)
        for digest, _ in reps[:-1]
    ]
    found += checks.check_outputs(result, out / "run", expected)
    if workers > 1:
        if args.trace:
            found.append(checks.check_same_curves(out / "pool", out / "run"))
        else:
            run_once(1, "one_worker")
            found.append(checks.check_same_curves(out / "run", out / "one_worker"))
    aborted = sum(n for _, n in reps)
    attempted = len(reps) * scenario.runs * len(scenario.strategies) + len(found)
    failed = aborted + sum(not ok for _, ok, _ in found)

    if args.trace:
        layers = [tracing.layer_metrics(r) for r in recorders]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        pool_wall = statistics.median(pool_walls) if pool_walls else 0.0
        metrics["harness.pool_wall_s"] = pool_wall
        metrics["harness.parallel_efficiency"] = (
            metrics["harness.chunk_sum_s"] / (workers * pool_wall) if pool_wall else 0.0
        )
        metrics["harness.curves_bitwise_match"] = float(
            checks.file_sha256(out / "run" / "curves.csv") == expected["curves_sha256"]
        )
        metrics["trace.overhead_frac"] = statistics.median(
            t / u - 1.0 for t, u in zip(traced_totals, totals)
        )
        metrics["theory_gap_db"] = checks.theory_gap_db(result.summary_dict())
        metrics["failed_frac"] = failed / attempted
        spans = [recorder.spans for recorder in recorders]
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "compile_s": statistics.median(compiles),
            "total_s": statistics.median(totals),
            "sim_runiters_per_s": statistics.median(
                work_per_rep / (t - c) for t, c in zip(totals, compiles)
            ),
            "peak_rss_mb": rss,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "shape": workloads.shape(scenario),
        "workers": workers,
        "env": {
            "nproc": nproc,
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_build(np),
        },
        "repetitions": len(totals),
        "total_s": totals,
        "compile_s": compiles,
        "traced_total_s": traced_totals,
        "setup_s": setup,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in found],
        "metrics": metrics,
    }
    (out / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, ok, detail in found:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("shape", "env", "repetitions")}))
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, entry in reported.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
