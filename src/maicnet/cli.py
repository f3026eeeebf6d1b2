"""Command-line front end.

Subcommands: ``topology inspect``, ``theory``, ``optimize-weights``, and
``simulate``. Scenario arguments accept a preset name or a path to a
scenario JSON file. Any invariant violation surfaces as a nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, presets


def _load_scenario(spec: str, **overrides) -> harness.Scenario:
    if spec.lower() in presets.PRESET_NAMES:
        return presets.get_scenario(spec, **overrides)
    for knob, preset in presets.PRESET_KNOBS.items():
        if knob in overrides:
            raise ValueError(f"{knob} only applies to preset {preset}")
    return replace(harness.Scenario.from_json(spec), **overrides)


# command-line flag -> the scenario field or preset knob it overrides
_OVERRIDES = {"runs": "runs", "iters": "iterations", "seed": "master_seed",
              "strategies": "strategies", "gamma12": "gamma12", "delta": "delta"}


def _scenario_overrides(args) -> dict:
    return {name: getattr(args, flag) for flag, name in _OVERRIDES.items()
            if getattr(args, flag, None) is not None}


def _cmd_topology_inspect(args) -> int:
    scenario = _load_scenario(args.scenario)
    compiled = harness.compile_scenario(replace(scenario, strategies=()))
    top = compiled.topology
    combine = compiled.combine
    inter = top.adjacency & ~top.intra
    groups = {"neighbors": top.adjacency, "intra": top.intra, "inter": inter,
              "inter_plus": top.inter_plus}
    report = {
        "n_nodes": top.n_nodes,
        "n_clusters": top.n_clusters,
        "clusters": [np.flatnonzero(top.cluster_of == p).tolist() for p in range(top.n_clusters)],
        "nodes": [
            {"node": k, "cluster": int(top.cluster_of[k]),
             **{name: np.flatnonzero(mask[:, k]).tolist() for name, mask in groups.items()}}
            for k in range(top.n_nodes)
        ],
        "combine_doubly_stochastic": bool(
            np.allclose(combine.sum(axis=1), 1.0, atol=1e-12)
            and np.allclose(combine.sum(axis=0), 1.0, atol=1e-12)
        ),
        "averaging_rule_zero_columns": np.flatnonzero(~inter.any(axis=0)).tolist(),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_theory(args) -> int:
    overrides = _scenario_overrides(args)
    scenario = _load_scenario(args.scenario, **overrides)
    if args.strategy not in harness.FIXED_WEIGHT_STRATEGIES:
        print(
            f"error: no closed-form report for strategy {args.strategy!r}; "
            "pick one with fixed cooperation weights",
            file=sys.stderr,
        )
        return 2
    plan = harness.compile_scenario(replace(scenario, strategies=(args.strategy,))).plans[0]
    payload = {
        "scenario": scenario.name,
        "strategy": args.strategy,
        "segments": [report.to_dict() for report in plan.reports],
    }
    # strict JSON, as summary.json: a non-finite radius is written as null
    text = json.dumps(harness._finite_or_none(payload), indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_optimize_weights(args) -> int:
    scenario = _load_scenario(args.scenario, **_scenario_overrides(args))
    os.makedirs(args.out, exist_ok=True)
    method = args.method
    name = f"maic-{method.split('-')[0]}"  # p1 -> maic-p1, adaptive-preview -> maic-adaptive
    path = os.path.join(args.out, f"weights_{name}.csv")
    if method in ("p1", "p2"):
        plan = harness.compile_scenario(replace(scenario, strategies=(name,))).plans[0]
        harness.write_weight_csv(path, plan.weights)
        certificate = {
            "method": method,
            "scenario": scenario.name,
            "segments": list(plan.certificates),
        }
    else:  # adaptive-preview: short simulation, report the final learned weights
        preview = replace(scenario, strategies=(name,), runs=args.preview_runs)
        result = harness.run_scenario(preview)
        harness.write_weight_csv(path, result.weights[name])
        certificate = {
            "method": "adaptive-preview",
            "scenario": scenario.name,
            "preview_runs": args.preview_runs,
            "iterations": preview.iterations,
            "qp_fallbacks": result.diagnostics["qp_fallbacks"][name],
        }
    cert_path = os.path.join(args.out, "certificate.json")
    with open(cert_path, "w", encoding="utf-8") as handle:
        json.dump(certificate, handle, indent=2)
        handle.write("\n")
    print(f"wrote weights and certificate to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, **_scenario_overrides(args))
    result = harness.run_scenario(scenario, workers=args.workers)
    result.write_outputs(args.out)
    baseline = harness.BASELINE
    diverged = [name for name, curve in result.curves.items() if curve.n_valid_runs == 0]
    print(f"scenario {scenario.name}: {scenario.runs} runs x {scenario.iterations} iterations")
    for name, curve in result.curves.items():
        aborted = len(result.diagnostics["aborted"][name])
        if name in diverged:
            print(f"  {name:16s} all {aborted} runs diverged")
            continue
        line = f"  {name:16s} steady-state {curve.steady_state_db():8.3f} dB"
        if baseline in result.curves and name != baseline and baseline not in diverged:
            gain = harness.msd_gain(curve, result.curves[baseline])
            line += f"  gain over {baseline} {gain:6.3f} dB"
        if aborted:
            line += f"  ({aborted} aborted runs)"
        print(line)
    print(f"outputs in {args.out}")
    if diverged:
        print(f"error: every run diverged for {', '.join(diverged)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maicnet",
        description="Multitask diffusion LMS over clustered networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="topology utilities")
    topo_sub = topo.add_subparsers(dest="topology_command", required=True)
    inspect = topo_sub.add_parser("inspect", help="print neighbor groups and checks")
    inspect.add_argument("--scenario", required=True)
    inspect.set_defaults(func=_cmd_topology_inspect)

    theory_cmd = sub.add_parser("theory", help="closed-form steady-state report")
    theory_cmd.add_argument("--scenario", required=True)
    theory_cmd.add_argument("--strategy", default="maic-p2")
    theory_cmd.add_argument("--gamma12", type=float, default=None)
    theory_cmd.add_argument("--delta", type=float, default=None)
    theory_cmd.add_argument("--out", default=None)
    theory_cmd.set_defaults(func=_cmd_theory)

    optw = sub.add_parser("optimize-weights", help="solve cooperation weights")
    optw.add_argument("--scenario", required=True)
    optw.add_argument("--method", choices=("p1", "p2", "adaptive-preview"), required=True)
    optw.add_argument("--out", required=True)
    optw.add_argument("--gamma12", type=float, default=None)
    optw.add_argument("--delta", type=float, default=None)
    optw.add_argument("--iters", type=int, default=None)
    optw.add_argument("--preview-runs", type=int, default=10)
    optw.set_defaults(func=_cmd_optimize_weights)

    sim = sub.add_parser("simulate", help="run the Monte-Carlo comparison")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--runs", type=int, default=None)
    sim.add_argument("--iters", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--strategies", default=None, help="comma-separated list",
                     type=lambda text: tuple(s.strip() for s in text.split(",")))
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--gamma12", type=float, default=None)
    sim.add_argument("--delta", type=float, default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
