"""Command-line interface: parsing, outputs, and failure modes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from maicnet import cli, harness, presets
from maicnet.harness import Scenario, SegmentSpec
from maicnet.signal_model import draw_noises


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(path, cluster_of, edges, dim, strategies):
    """A one-segment scenario file on a user topology with clusters 0..P-1."""
    n = len(cluster_of)
    clusters = max(cluster_of) + 1
    gamma = tuple(tuple(1.0 if p == q else 0.5 for q in range(clusters)) for p in range(clusters))
    Scenario(
        name=path.stem,
        n_nodes=n,
        edges=tuple(edges),
        cluster_of=tuple(cluster_of),
        dim=dim,
        reg_power=tuple(1.0 + 0.02 * k for k in range(n)),
        sigma_w=(1.0,) * clusters,
        spread_scale=0.05**2,
        step_size=0.02,
        eta=10.0,
        alpha=0.9,
        segments=(
            SegmentSpec(
                start=0,
                cluster_means=tuple((1.0 + 0.2 * p,) * dim for p in range(clusters)),
                gamma=gamma,
            ),
        ),
        iterations=20,
        runs=2,
        master_seed=5,
        strategies=tuple(strategies),
        noise_var=tuple(0.01 + 0.001 * k for k in range(n)),
    ).to_json(path)
    return path


def star_scenario(path, strategies):
    """Hub 0 borders all 11 leaves, which form a chain in cluster 1: the
    hub's inter-cluster support has 12 nodes."""
    edges = [(0, j) for j in range(1, 12)] + [(j, j + 1) for j in range(1, 11)]
    return write_scenario(path, (0,) + (1,) * 11, edges, 2, strategies)


class TestTopologyInspect:
    def test_reports_network_structure(self, capsys):
        code, out, _ = run_cli(capsys, "topology", "inspect", "--scenario", "a")
        assert code == 0
        report = json.loads(out)
        assert report["n_nodes"] == 10
        assert report["n_clusters"] == 3
        clusters = presets.TEN_NODE_CLUSTERS
        assert report["clusters"] == [
            [k for k, c in enumerate(clusters) if c == p] for p in sorted(set(clusters))
        ]
        assert report["combine_doubly_stochastic"] is True
        hubless = set(report["averaging_rule_zero_columns"])
        scenario = presets.get_scenario("a")
        for node in hubless:
            cluster = scenario.cluster_of[node]
            for a, b in scenario.edges:
                if a == node:
                    assert scenario.cluster_of[b] == cluster
                if b == node:
                    assert scenario.cluster_of[a] == cluster

    def test_malformed_scenario_json_fails_with_one_error_line(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"name": "x", "n_nodes": 3}')
        code, out, err = run_cli(capsys, "topology", "inspect", "--scenario", str(spec))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "segments" in err

    def test_repeated_edge_fails_with_one_error_line(self, capsys, tmp_path):
        edges = [(0, 1), (1, 2), (2, 1)]
        spec = write_scenario(tmp_path / "twice.json", (0, 0, 1), edges, 1, ("atc",))
        code, out, err = run_cli(capsys, "topology", "inspect", "--scenario", str(spec))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: edge (2, 1) is listed twice, in one direction or both"
        ]

    def test_cluster_partition_is_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "topology", "inspect", "--scenario", "b")
        report = json.loads(out)
        members = sorted(sum(report["clusters"], []))
        assert members == list(range(10))
        for entry in report["nodes"]:
            inter_plus = set(entry["inter_plus"])
            assert entry["node"] in inter_plus
            assert inter_plus == set(entry["inter"]) | {entry["node"]}


class TestTheoryCommand:
    def test_emits_segment_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--scenario", "a", "--strategy", "maic-p2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "a"
        assert payload["strategy"] == "maic-p2"
        segment = payload["segments"][0]
        assert segment["mean_square_stable"] is True
        assert segment["msd_db"] < 0

    def test_writes_to_a_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "theory",
            "--scenario",
            "a",
            "--strategy",
            "atc",
            "--out",
            str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["strategy"] == "atc"

    def test_rejects_strategies_without_fixed_weights(self, capsys):
        code, _, err = run_cli(
            capsys, "theory", "--scenario", "a", "--strategy", "maic-adaptive"
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "fixed cooperation weights" in err

    def test_reports_above_the_old_size_cap(self, capsys, tmp_path):
        # 24 nodes in 4 ring clusters, ring neighbors linked across clusters;
        # dim 3 gives NM = 72
        cluster_of = [k // 6 for k in range(24)]
        edges = [(6 * p + i, 6 * p + (i + 1) % 6) for p in range(4) for i in range(6)]
        edges += [(6 * p + 5, (6 * p + 6) % 24) for p in range(4)]
        spec = write_scenario(tmp_path / "n24d3.json", cluster_of, edges, 3, ("atc",))
        code, out, err = run_cli(capsys, "theory", "--scenario", str(spec))
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["segments"]) == 1
        assert payload["segments"][0]["msd_db"] < 0

    def test_huge_transition_radius_writes_strict_json(self, capsys, tmp_path):
        # rho_mean near 5e298: its square saturates to inf, written as null
        scenario = presets.get_scenario("a")
        spec = tmp_path / "huge.json"
        replace(scenario, reg_power=(1e300,) * scenario.n_nodes).to_json(spec)
        code, out, err = run_cli(capsys, "theory", "--scenario", str(spec))
        assert code == 0, err

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        segment = json.loads(out, parse_constant=reject)["segments"][0]
        assert segment["rho_variance"] is None
        assert segment["rho_mean"] > 1e298
        assert segment["mean_square_stable"] is False and segment["msd"] is None

    def test_unknown_preset_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--scenario", "zz")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("eta",), 50.0, "cooperation diagonal for node 1 is -1.5; reduce eta"),
            (("segments", 0, "gamma"), [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]],
             "parameter covariance is not positive semidefinite, most negative eigenvalue -0.000"),
        ],
        ids=["cooperation-diagonal", "parameter-covariance"],
    )
    def test_errors_print_plain_numbers(self, capsys, tmp_path, path, value, message):
        data = json.loads(json.dumps(presets.get_scenario("a", runs=2, iterations=20).to_dict()))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "theory", "--scenario", str(spec), "--strategy", "maic-averaging"
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")
        assert "np.float64" not in err


class TestOptimizeWeights:
    def test_p2_writes_weights_and_certificate(self, capsys, tmp_path):
        out_dir = tmp_path / "w"
        code, out, _ = run_cli(
            capsys,
            "optimize-weights",
            "--scenario",
            "a",
            "--method",
            "p2",
            "--out",
            str(out_dir),
        )
        assert code == 0
        weights_csv = out_dir / "weights_maic-p2.csv"
        assert weights_csv.exists()
        rows = weights_csv.read_text().splitlines()
        assert len(rows) == 11
        certificate = json.loads((out_dir / "certificate.json").read_text())
        assert certificate["method"] == "p2"
        assert certificate["segments"][0]["certified"] is True

    def test_adaptive_preview_reports_fallbacks(self, capsys, tmp_path):
        out_dir = tmp_path / "w"
        code, out, _ = run_cli(
            capsys,
            "optimize-weights",
            "--scenario",
            "a",
            "--method",
            "adaptive-preview",
            "--iters",
            "40",
            "--preview-runs",
            "4",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert (out_dir / "weights_maic-adaptive.csv").exists()
        certificate = json.loads((out_dir / "certificate.json").read_text())
        assert certificate["method"] == "adaptive-preview"
        assert certificate["preview_runs"] == 4
        assert certificate["qp_fallbacks"] == 0


class TestSimulate:
    def test_end_to_end_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "b",
            "--runs",
            "6",
            "--iters",
            "50",
            "--strategies",
            "atc,maic-p2",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert "steady-state" in out
        assert "gain over atc" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"]["runs"] == 6
        assert set(summary["strategies"]) == {"atc", "maic-p2"}
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert len(curves) == 51

    def test_failed_draw_prints_one_error_line(self, capsys, monkeypatch, tmp_path):
        # the last run of the chunk: with several drawing threads, not the caller's
        def failing(model, n_iters, rng):
            if rng.bit_generator.seed_seq.entropy[1] == 5:
                raise ValueError("noise draw failed on run 5")
            return draw_noises(model, n_iters, rng)

        monkeypatch.setattr(harness, "draw_noises", failing)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "b", "--runs", "6", "--iters", "30",
            "--strategies", "atc", "--out", str(tmp_path / "sim"),
        )
        assert code == 1
        assert err == "error: noise draw failed on run 5\n"

    def test_single_run_prints_no_warning(self, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr as a user sees them
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out_dir = tmp_path / "sim"
        completed = subprocess.run(
            [sys.executable, "-W", "always", "-m", "maicnet.cli", "simulate", "--scenario", "a",
             "--runs", "1", "--iters", "50", "--out", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["strategies"]["atc"]["steady_se"] is None

    def test_noiseless_scenario_prints_no_warning(self, capsys, tmp_path):
        # without noise the closed-form MSD of atc and maic-p1 is exactly 0:
        # its dB value is null, not log10(0), which the test filter makes an error
        spec = tmp_path / "noiseless.json"
        scenario = presets.get_scenario("a", runs=3, iterations=40)
        replace(scenario, noise_var=(0.0,) * scenario.n_nodes).to_json(spec)
        out_dir = tmp_path / "sim"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(spec), "--out", str(out_dir))
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        for name in ("atc", "maic-p1"):
            report = summary["strategies"][name]["theory"][0]
            assert report["msd"] == 0.0
            assert report["msd_db"] is None and report["msd_approx_db"] is None

    def test_scenario_json_round_trip_through_cli(self, capsys, tmp_path):
        scenario = presets.get_scenario(
            "b", runs=4, iterations=30, strategies=("atc",)
        )
        spec = tmp_path / "custom.json"
        scenario.to_json(spec)
        out_dir = tmp_path / "sim"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--out", str(out_dir)
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"]["master_seed"] == scenario.master_seed

    def test_gamma12_knob_passes_through(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "b",
            "--runs",
            "4",
            "--iters",
            "30",
            "--strategies",
            "atc",
            "--gamma12",
            "0.2",
            "--out",
            str(out_dir),
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"]["segments"][0]["gamma"][0][1] == 0.2

    @pytest.mark.parametrize("knob", ["--gamma12", "--delta"])
    def test_preset_knob_on_a_scenario_file_fails_cleanly(self, capsys, tmp_path, knob):
        spec = tmp_path / "custom.json"
        presets.get_scenario("b", runs=4, iterations=30).to_json(spec)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), knob, "0.5", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {knob[2:]} only applies to preset")

    @pytest.mark.parametrize(
        "preset, path, value, message",
        [
            ("a", ("edges",), 5, "scenario edges must be a list, got int"),
            ("a", ("segments", 0, "cluster_means"), 1.0, "segment 0 cluster_means must be a list"),
            ("b", ("noise_db_range",), [-10.0], "scenario noise_db_range must have 2 entries"),
            ("a", ("segments",), {"start": 0}, "scenario segments must be a list, got dict"),
            ("a", ("edges", 0), [0, 1, 2], "scenario edges[0] must have 2 entries, got 3"),
            ("a", ("strategies",), "atc", "scenario strategies must be a list, got str"),
            ("a", ("runs",), 2.7, "scenario runs must be of type int, got float"),
            ("a", ("dim",), 2.5, "scenario dim must be of type int, got float"),
            ("a", ("iterations",), True, "scenario iterations must be of type int, got bool"),
            ("a", ("name",), 5, "scenario name must be of type str, got int"),
            ("a", ("master_seed",), "12", "scenario master_seed must be of type int, got str"),
            ("a", ("profile_sed",), 3, "scenario has unknown field(s): profile_sed"),
            ("a", ("step_size",), float("nan"), "scenario step_size must be finite, got nan"),
            ("a", ("segments", 0, "gamma", 1, 1), float("inf"),
             "segment 0 gamma[1][1] must be finite, got inf"),
            ("a", ("strategies",), ["atc", "maic-p1", "atc"],
             "strategies are listed more than once: ['atc']"),
            ("a", ("strategies",), [], "scenario strategies must name at least one strategy"),
            ("a", ("alpha",), 2.0, "alpha must lie in [0, 1], got 2.0"),
            ("a", ("reg_power", 0), 0.0, "reg_power[0] must be positive, got 0.0"),
            ("a", ("master_seed",), -1, "master_seed must be non-negative, got -1"),
            ("a", ("eta",), -5.0, "eta must be non-negative, got -5.0"),
            ("a", ("step_size",), 0.0, "step_size must be positive, got 0.0"),
            ("a", ("step_size",), -0.01, "step_size must be positive, got -0.01"),
            ("a", ("segments", 0, "cluster_means", 0, 0), 1e160,
             "parameter second moment overflows float64"),
            ("a", ("sigma_w", 0), 1e200, "parameter covariance overflows float64"),
        ],
    )
    def test_malformed_scenario_file_fails_with_one_error_line(
        self, capsys, tmp_path, preset, path, value, message
    ):
        data = json.loads(json.dumps(presets.get_scenario(preset, runs=2, iterations=20).to_dict()))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_fail_with_one_error_line(self, capsys, tmp_path, workers):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "a", "--runs", "2", "--iters", "20",
            "--workers", workers, "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: workers must be at least 1, got {workers}"]
        assert not (tmp_path / "x").exists()

    def test_repeated_strategy_fails_with_one_error_line(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "a", "--strategies", "atc,atc",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: strategies are listed more than once: ['atc']"]
        assert not (tmp_path / "x").exists()

    def test_invalid_override_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "a",
            "--runs",
            "0",
            "--out",
            str(tmp_path / "x"),
        )
        assert code == 1
        assert "error:" in err

    def test_adaptive_rule_runs_on_a_large_support(self, capsys, tmp_path):
        spec = star_scenario(tmp_path / "star.json", ("atc",))
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--strategies", "maic-adaptive,atc",
            "--out", str(out_dir),
        )
        assert code == 0, err
        assert err == ""
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["strategies"]["maic-adaptive"]["qp_fallbacks"] == 0

    def test_p2_on_a_large_support_is_certified(self, capsys, tmp_path):
        spec = star_scenario(tmp_path / "star.json", ("atc",))
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--strategies", "atc,maic-p2",
            "--out", str(out_dir),
        )
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["strategies"]["maic-p2"]["certificates"][0]["certified"] is True

    @pytest.mark.parametrize(
        "field, value, diverged",
        [
            ("eta", 1e300, "mdlms-averaging"),
            ("reg_power", 1e300, "maic-p1, maic-p2, maic-adaptive, mdlms-averaging, atc"),
            ("cluster_means", 1e150, "maic-p1, maic-p2, maic-adaptive, mdlms-averaging, atc"),
        ],
    )
    def test_overflowing_runs_abort_without_a_warning(self, capsys, tmp_path, field, value,
                                                      diverged):
        # the runs overflow to inf and NaN, which the abort test catches; the
        # test filter would turn any overflow warning into an exception
        scenario = presets.get_scenario("a", runs=4, iterations=40)
        if field == "eta":
            scenario = replace(scenario, eta=value)
        elif field == "reg_power":
            scenario = replace(scenario, reg_power=(value,) * scenario.n_nodes)
        else:
            means = tuple((value,) * scenario.dim for _ in scenario.sigma_w)
            scenario = replace(scenario, segments=(replace(scenario.segments[0],
                                                           cluster_means=means),))
        spec = tmp_path / "overflow.json"
        scenario.to_json(spec)
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--out", str(tmp_path / "sim")
        )
        assert code == 1
        assert err.splitlines() == [f"error: every run diverged for {diverged}"]

    def test_all_diverged_runs_write_strict_json_and_fail(self, capsys, tmp_path):
        scenario = replace(
            presets.get_scenario(
                "a", runs=4, iterations=60, strategies=("maic-adaptive", "atc")
            ),
            step_size=5.0,
        )
        spec = tmp_path / "divergent.json"
        scenario.to_json(spec)
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(spec), "--out", str(out_dir)
        )
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: every run diverged for maic-adaptive, atc"
        ]
        assert "all 4 runs diverged" in out

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        with open(out_dir / "summary.json", encoding="utf-8") as handle:
            summary = json.load(handle, parse_constant=reject)
        for entry in summary["strategies"].values():
            assert entry["all_runs_diverged"] is True
            assert entry["n_valid_runs"] == 0
            assert entry["steady_state_db"] is None
            assert entry["cluster_steady"] is None
        assert summary["strategies"]["maic-adaptive"]["gain_over_atc_db"] is None


class TestParser:
    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_entry_point_is_exposed(self):
        parser = cli.build_parser()
        assert parser.prog == "maicnet"
