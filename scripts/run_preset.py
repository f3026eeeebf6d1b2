#!/usr/bin/env python3
"""Run one preset scenario end to end and print the comparison table."""

import argparse

from maicnet import harness, presets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("preset", choices=presets.PRESET_NAMES)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="directory for csv/json outputs")
    args = parser.parse_args()

    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.iters is not None:
        overrides["iterations"] = args.iters
    scenario = presets.get_scenario(args.preset, **overrides)
    result = harness.run_scenario(scenario, workers=args.workers)

    atc = result.curves.get("atc")
    print(f"{scenario.name}: {scenario.runs} runs x {scenario.iterations} iterations")
    header = f"{'strategy':18s} {'steady dB':>10s} {'se dB':>8s} {'gain dB':>8s} {'theory dB':>10s}"
    print(header)
    for name, curve in result.curves.items():
        gain = "" if atc is None or name == "atc" else f"{harness.msd_gain_se(curve, atc)[0]:8.3f}"
        reports = result.reports[name]
        theory_db = "" if not reports else f"{reports[-1].msd_db:10.3f}"
        print(
            f"{name:18s} {curve.steady_state_db():10.3f} {curve.steady_se_db():8.3f} "
            f"{gain:>8s} {theory_db:>10s}"
        )
    if args.out:
        result.write_outputs(args.out)
        print(f"outputs written to {args.out}")


if __name__ == "__main__":
    main()
