"""Scenario plumbing: validation, compilation, seeding, and statistics."""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maicnet import harness, presets, strategies, theory, weight_opt
from maicnet.harness import (
    KNOWN_STRATEGIES,
    MsdCurve,
    Scenario,
    compile_scenario,
    msd_gain,
    msd_gain_se,
    run_scenario,
)
from maicnet.signal_model import SignalModel, draw_noises, draw_regressors, sample_parameters
from maicnet.topology import (
    ClusteredTopology,
    averaging_rule_weights,
    metropolis_weights,
)
from oracles import atc_step


def small(name, **overrides):
    defaults = {"runs": 8, "iterations": 60}
    defaults.update(overrides)
    return presets.get_scenario(name, **defaults)


class TestScenarioValidation:
    def test_nonpositive_runs_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            small("a", runs=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_scenario(small("a", runs=2, iterations=10), workers=workers)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategies"):
            small("a", strategies=("gradient-descent",))

    def test_first_segment_must_start_at_zero(self):
        scenario = small("a")
        bad = (replace(scenario.segments[0], start=5),)
        with pytest.raises(ValueError, match="start at iteration 0"):
            replace(scenario, segments=bad)

    def test_segment_starts_must_fit_the_horizon(self):
        with pytest.raises(ValueError, match="inside the horizon"):
            presets.get_scenario("nonstationary", iterations=600)

    def test_exactly_one_noise_specification(self):
        with pytest.raises(ValueError, match="exactly one of"):
            small("b", noise_var=(0.1,) * 10)
        with pytest.raises(ValueError, match="exactly one of"):
            small("a", noise_var=None)

    def test_known_strategies_are_accepted(self):
        scenario = small("a", strategies=KNOWN_STRATEGIES)
        assert scenario.strategies == KNOWN_STRATEGIES

    def test_missing_fields_are_named(self):
        with pytest.raises(ValueError, match="missing required field.*segments"):
            Scenario.from_dict({"name": "x", "n_nodes": 3})
        data = small("a").to_dict()
        del data["segments"][0]["gamma"]
        with pytest.raises(ValueError, match="segment 0 is missing required field.*gamma"):
            Scenario.from_dict(data)
        with pytest.raises(ValueError, match="must be a JSON object"):
            Scenario.from_dict(["a"])


def _scenario_json(name):
    """Preset ``name`` as a scenario file decodes: lists, and floats in float fields."""
    return json.loads(json.dumps(Scenario.from_dict(presets.get_scenario(name).to_dict()).to_dict()))


def _below(value, path=()):
    """Every (path, item) strictly below a decoded JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,), item
        yield from _below(item, path + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


# lists whose length the scenario fixes ("#" stands for any index)
SIZED = {
    ("cluster_of",), ("reg_power",), ("sigma_w",), ("noise_var",), ("noise_db_range",),
    ("edges", "#"), ("segments", "#", "cluster_means"), ("segments", "#", "cluster_means", "#"),
    ("segments", "#", "gamma"), ("segments", "#", "gamma", "#"),
}


class TestMalformedScenarios:
    @given(
        name=st.sampled_from(presets.PRESET_NAMES),
        mutation=st.sampled_from(("drop", "retype", "resize", "nest", "unknown")),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_dicts_raise_value_error(self, name, mutation, data):
        scenario = _scenario_json(name)
        below = list(_below(scenario))
        if mutation == "drop":  # a key whose absence no default covers
            keys = [p for p, v in below if isinstance(p[-1], str) and v is not None]
            path = data.draw(st.sampled_from([p for p in keys if p != ("profile_seed",)]))
            del _parent(scenario, path)[path[-1]]
        elif mutation == "retype":  # a value of another JSON type
            path, value = data.draw(st.sampled_from(below))
            wrong = st.sampled_from([True, 2.5, "x", {}, None]).filter(lambda w: type(w) is not type(value))
            _parent(scenario, path)[path[-1]] = data.draw(wrong)
        elif mutation == "resize":  # one entry more or fewer
            sized = [p for p, v in below if isinstance(v, list)
                     and tuple("#" if isinstance(k, int) else k for k in p) in SIZED]
            path = data.draw(st.sampled_from(sized))
            entries = _parent(scenario, path)[path[-1]]
            if data.draw(st.booleans()):
                entries.append(entries[-1])
            else:
                entries.pop()
        elif mutation == "nest":  # one list level more, or one fewer
            path, value = data.draw(st.sampled_from(below))
            unwrap = isinstance(value, list) and value and data.draw(st.booleans())
            _parent(scenario, path)[path[-1]] = value[0] if unwrap else [value]
        else:  # a key no field declares, on the scenario or on a segment
            objects = [scenario] + [v for _, v in below if isinstance(v, dict)]
            target = data.draw(st.sampled_from(objects))
            target[data.draw(st.sampled_from(["profile_sed", "noun", "Gamma", ""]))] = 0
        with pytest.raises(ValueError):
            Scenario.from_dict(scenario)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"reg_power": (1.0,) * 9}, "reg_power has 9 entries, expected 10"),
            ({"cluster_of": (0,) * 11}, "cluster_of has 11 entries, expected 10"),
            ({"noise_var": (0.5,) * 3}, "noise_var has 3 entries, expected 10"),
            ({"sigma_w": (1.0, 1.0)}, "sigma_w has 2 entries, expected 3"),
        ],
    )
    def test_per_node_and_per_cluster_lengths_are_checked(self, change, match):
        with pytest.raises(ValueError, match=match):
            replace(small("a"), **change)

    def test_segment_shapes_are_checked_ragged_rows_included(self):
        scenario = small("a")
        segment = scenario.segments[0]
        ragged = (segment.gamma[0], segment.gamma[1][:2], segment.gamma[2])
        with pytest.raises(ValueError, match=r"segment 0 gamma must be 3 x 3"):
            replace(scenario, segments=(replace(segment, gamma=ragged),))
        with pytest.raises(ValueError, match=r"segment 0 cluster_means must be 3 x 2"):
            replace(scenario, segments=(replace(segment, cluster_means=segment.cluster_means[:2]),))

    def test_noise_db_range_runs_low_to_high(self):
        with pytest.raises(ValueError, match="low to high"):
            small("b", noise_db_range=(-5.0, -15.0))

    def test_errors_name_the_nested_field(self):
        data = _scenario_json("a")
        data["segments"][0]["gamma"][1] = [0.9, 1.0]
        with pytest.raises(ValueError, match=r"segment 0 gamma must be 3 x 3"):
            Scenario.from_dict(data)
        data["segments"][0]["gamma"][1] = [0.9, "1", 0.5]
        with pytest.raises(ValueError, match=r"segment 0 gamma\[1\]\[1\] must be of type float, got str"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_named(self, value):
        # Python's json writes and reads NaN, Infinity and -Infinity
        data = _scenario_json("a")
        data["step_size"] = value
        data["segments"][0]["cluster_means"][2][1] = value
        with pytest.raises(ValueError, match=f"scenario step_size must be finite, got {value}"):
            Scenario.from_dict(json.loads(json.dumps(data)))
        data["step_size"] = 0.1
        with pytest.raises(ValueError, match=r"segment 0 cluster_means\[2\]\[1\] must be finite"):
            Scenario.from_dict(json.loads(json.dumps(data)))

    def test_repeated_strategies_are_listed(self):
        with pytest.raises(ValueError, match=r"listed more than once: \['atc', 'maic-p1'\]"):
            small("a", strategies=("maic-p1", "atc", "mdlms-averaging", "atc", "maic-p1"))

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("strategies", [], "scenario strategies must name at least one strategy"),
            ("alpha", 2.0, r"alpha must lie in \[0, 1\], got 2.0"),
            ("reg_power", [1.0] * 3 + [0.0] + [1.0] * 6, r"reg_power\[3\] must be positive, got 0.0"),
            ("master_seed", -1, "master_seed must be non-negative, got -1"),
        ],
    )
    def test_values_outside_their_domain_are_named(self, key, value, match):
        # each of these once ended in a traceback, a numerical error or a silent run
        data = _scenario_json("a")
        data[key] = value
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict(data)

    def test_large_seeds_stay_exact_and_huge_floats_are_named(self):
        data = _scenario_json("a")
        data["master_seed"] = 2**64 - 1
        assert Scenario.from_dict(data).master_seed == 2**64 - 1
        data["step_size"] = 10**400
        with pytest.raises(ValueError, match="step_size is out of range"):
            Scenario.from_dict(data)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        scenario = presets.get_scenario("nonstationary")
        path = tmp_path / "scenario.json"
        scenario.to_json(path)
        loaded = Scenario.from_json(path)
        assert loaded == scenario

    def test_dict_round_trip_for_db_profile(self):
        scenario = presets.get_scenario("b")
        loaded = Scenario.from_dict(scenario.to_dict())
        assert loaded == scenario
        assert loaded.noise_var is None
        assert loaded.noise_db_range == (-15.0, -5.0)

    @given(
        name=st.sampled_from(presets.PRESET_NAMES),
        names=st.lists(st.sampled_from(KNOWN_STRATEGIES), unique=True, min_size=1),
        runs=st.integers(min_value=1, max_value=10**6),
        extra_iterations=st.integers(min_value=1, max_value=10**6),
        master_seed=st.integers(min_value=0, max_value=2**64 - 1),
        step_size=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_through_json(
        self, name, names, runs, extra_iterations, master_seed, step_size
    ):
        preset = presets.get_scenario(name)
        scenario = replace(
            preset,
            strategies=tuple(names),
            runs=runs,
            iterations=preset.segments[-1].start + extra_iterations,
            master_seed=master_seed,
            step_size=step_size,
        )
        assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    def test_boundaries_property(self):
        scenario = presets.get_scenario("nonstationary")
        assert scenario.boundaries == (250, 500, 750)


class TestCompilation:
    def test_combine_is_metropolis_on_intra_links(self):
        scenario = small("a", strategies=("atc",))
        compiled = compile_scenario(scenario)
        top = ClusteredTopology.from_edges(
            scenario.n_nodes, scenario.edges, scenario.cluster_of
        )
        assert np.array_equal(compiled.combine, metropolis_weights(top))

    def test_plans_follow_the_strategy_list(self):
        scenario = small("a", runs=4)
        compiled = compile_scenario(scenario)
        assert [p.name for p in compiled.plans] == list(scenario.strategies)
        kinds = {p.name: p.kind for p in compiled.plans}
        assert kinds["maic-p1"] == "fixed"
        assert kinds["maic-p2"] == "fixed"
        assert kinds["atc"] == "fixed"
        assert kinds["mdlms-averaging"] == "mdlms"
        assert kinds["maic-adaptive"] == "adaptive"

    def test_fixed_plans_carry_reports_and_certificates(self):
        scenario = small("a", runs=4, strategies=("maic-p1", "maic-p2", "atc"))
        compiled = compile_scenario(scenario)
        for plan in compiled.plans:
            assert plan.weights.shape == (1, 10, 10)
            assert len(plan.reports) == 1
            assert plan.reports[0].mean_square_stable
        by_name = {p.name: p for p in compiled.plans}
        assert by_name["atc"].certificates is None
        assert by_name["maic-p1"].certificates[0]["certified"]
        assert by_name["maic-p2"].certificates[0]["certified"]
        assert np.array_equal(by_name["atc"].weights[0], np.eye(10))

    def test_mdlms_plan_uses_the_averaging_regularizer(self):
        scenario = small("a", runs=4, strategies=("mdlms-averaging",))
        compiled = compile_scenario(scenario)
        plan = compiled.plans[0]
        assert plan.reports is None
        rho = averaging_rule_weights(compiled.topology)
        assert np.array_equal(plan.weights, rho[None])

    def test_strategy_table_orders_the_known_strategies(self):
        assert KNOWN_STRATEGIES == (
            "atc", "mdlms-averaging", "maic-averaging", "maic-p1", "maic-p2", "maic-adaptive"
        )
        assert harness.FIXED_WEIGHT_STRATEGIES == ("atc", "maic-averaging", "maic-p1", "maic-p2")
        assert harness.BASELINE == "atc"

    def test_segment_lookup_covers_the_horizon(self):
        scenario = presets.get_scenario("nonstationary", runs=2, strategies=("atc",))
        compiled = compile_scenario(scenario)
        seg = compiled.segment_of
        assert seg.shape == (1000,)
        assert seg[0] == 0 and seg[249] == 0
        assert seg[250] == 1 and seg[499] == 1
        assert seg[500] == 2 and seg[750] == 3 and seg[999] == 3
        assert len(compiled.models) == 4

    def test_db_noise_profile_is_deterministic_and_in_range(self):
        scenario = small("b", strategies=("atc",))
        first = compile_scenario(scenario).models[0].noise_var
        second = compile_scenario(scenario).models[0].noise_var
        assert np.array_equal(first, second)
        assert np.all(first >= 10 ** (-1.5)) and np.all(first <= 10 ** (-0.5))


class TestSeeding:
    def test_stream_digest_matches_documented_draw_order(self):
        scenario = small("a", runs=4, iterations=30, strategies=("atc",))
        result = run_scenario(scenario)

        top = ClusteredTopology.from_edges(
            scenario.n_nodes, scenario.edges, scenario.cluster_of
        )
        seg = scenario.segments[0]
        model = SignalModel.from_profiles(
            top,
            dim=scenario.dim,
            reg_power=scenario.reg_power,
            noise_var=scenario.noise_var,
            step_size=scenario.step_size,
            cluster_means=seg.cluster_means,
            sigma_w=scenario.sigma_w,
            spread_scale=scenario.spread_scale,
            gamma=seg.gamma,
        )
        total = hashlib.sha256()
        for r in range(scenario.runs):
            rng = np.random.default_rng(
                np.random.SeedSequence((scenario.master_seed, r))
            )
            w = np.empty((1, 10, scenario.dim))
            w[0] = sample_parameters(model, rng)
            z = rng.standard_normal((scenario.iterations, 10, scenario.dim))
            u = np.einsum("nij,tnj->tni", model._reg_sqrt, z)
            v = rng.standard_normal((scenario.iterations, 10)) * np.sqrt(model.noise_var)
            digest = hashlib.sha256()
            digest.update(w.tobytes())
            digest.update(u.tobytes())
            digest.update(v.tobytes())
            total.update(digest.digest())
        assert result.stream_digest == total.hexdigest()

    def test_per_run_steady_state_reproduced_from_the_seed(self):
        scenario = small("a", runs=5, iterations=50, strategies=("atc",))
        result = run_scenario(scenario)
        curve = result.curves["atc"]

        top = ClusteredTopology.from_edges(
            scenario.n_nodes, scenario.edges, scenario.cluster_of
        )
        combine = metropolis_weights(top)
        seg = scenario.segments[0]
        model = SignalModel.from_profiles(
            top,
            dim=2,
            reg_power=scenario.reg_power,
            noise_var=scenario.noise_var,
            step_size=scenario.step_size,
            cluster_means=seg.cluster_means,
            sigma_w=scenario.sigma_w,
            spread_scale=scenario.spread_scale,
            gamma=seg.gamma,
        )
        horizon = scenario.iterations
        window_start = horizon - max(1, round(0.1 * horizon))
        mu = np.full(10, scenario.step_size)
        for r in range(scenario.runs):
            rng = np.random.default_rng(
                np.random.SeedSequence((scenario.master_seed, r))
            )
            w_true = sample_parameters(model, rng)
            z = rng.standard_normal((horizon, 10, 2))
            u = np.einsum("nij,tnj->tni", model._reg_sqrt, z)
            v = rng.standard_normal((horizon, 10)) * np.sqrt(model.noise_var)
            d = np.einsum("tnm,nm->tn", u, w_true) + v

            state = strategies.init_state(10, 2)
            acc = 0.0
            for t in range(horizon):
                atc_step(state, u[t], d[t], combine, mu)
                if t >= window_start:
                    diff = w_true - state.weights
                    acc += float(np.einsum("nm,nm->n", diff, diff).sum())
            steady = acc / ((horizon - window_start) * 10)
            assert np.isclose(curve.run_steady[r], steady, rtol=1e-10, atol=0.0)

    def test_rerun_is_bitwise_identical(self):
        scenario = small("b", runs=24, iterations=120)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stream_digest == second.stream_digest
        for name in scenario.strategies:
            assert np.array_equal(
                first.curves[name].network, second.curves[name].network
            )
            assert np.array_equal(
                first.curves[name].run_steady, second.curves[name].run_steady
            )

    def test_master_seed_changes_the_stream(self):
        base = small("b", runs=6, iterations=40, strategies=("atc",))
        other = replace(base, master_seed=base.master_seed + 1)
        assert (
            run_scenario(base).stream_digest != run_scenario(other).stream_digest
        )


@pytest.fixture(scope="module")
def statistics_result():
    return run_scenario(small("a", runs=12, iterations=80, strategies=("atc", "maic-p2")))


class TestCurveStatistics:
    @pytest.fixture
    def result(self, statistics_result):
        return statistics_result

    def test_one_run_has_no_standard_error(self):
        # RuntimeWarnings are errors here: one run must not reach numpy's spread estimators
        result = run_scenario(small("a", runs=1, iterations=30, strategies=("maic-p2", "atc")))
        summary = result.summary_dict()["strategies"]
        for entry in summary.values():
            assert entry["n_valid_runs"] == 1 and entry["steady_state_db"] is not None
            assert entry["steady_se"] is None and entry["steady_se_db"] is None
        gain, se = msd_gain_se(result.curves["maic-p2"], result.curves["atc"])
        assert summary["maic-p2"]["gain_over_atc_db"] == gain == msd_gain(
            result.curves["maic-p2"], result.curves["atc"]
        )
        assert np.isnan(se) and summary["maic-p2"]["gain_over_atc_se_db"] is None

    def test_window_and_counts(self, result):
        curve = result.curves["atc"]
        assert curve.window_start == 72
        assert curve.counts.tolist() == [12] * 80
        assert curve.n_valid_runs == 12

    def test_steady_state_consistency(self, result):
        curve = result.curves["atc"]
        assert np.isclose(
            curve.steady_state(), float(np.nanmean(curve.run_steady)), rtol=1e-12
        )
        assert np.isclose(
            curve.steady_state(),
            float(curve.network[curve.window_start :].mean()),
            rtol=1e-12,
        )
        assert np.isclose(
            10 * np.log10(curve.steady_state()), curve.steady_state_db(), rtol=1e-12
        )

    def test_cluster_split_recombines(self, result):
        curve = result.curves["atc"]
        sizes = np.array([4, 3, 3])
        network = float(sizes @ curve.cluster_steady()) / 10
        assert np.isclose(network, curve.steady_state(), rtol=1e-12)

    def test_standard_errors_scale_like_root_n(self, result):
        curve = result.curves["atc"]
        spread = float(np.nanstd(curve.run_steady, ddof=1))
        assert np.isclose(curve.steady_se(), spread / np.sqrt(12), rtol=1e-12)
        assert curve.steady_se_db() > 0

    def test_paired_gain_of_a_curve_with_itself_is_zero(self, result):
        curve = result.curves["atc"]
        assert msd_gain(curve, curve) == 0.0

    def test_gain_se_is_tighter_than_independent_errors(self, result):
        atc = result.curves["atc"]
        p2 = result.curves["maic-p2"]
        gain, se = msd_gain_se(p2, atc)
        assert np.isfinite(gain) and se > 0
        naive = np.hypot(atc.steady_se_db(), p2.steady_se_db())
        assert se <= naive * 1.5  # paired runs share their draws

    def test_gain_pairs_the_runs_valid_in_both(self):
        def curve(run_steady):
            run_steady = np.array(run_steady)
            return MsdCurve(
                network=np.ones(4), per_cluster=np.ones((4, 1)), counts=np.full(4, 3),
                run_steady=run_steady, run_cluster_steady=run_steady[:, None], window_start=2,
            )

        candidate = curve([0.1, 0.2, 10.0])
        baseline = curve([1.0, 2.0, np.nan])  # the baseline lost its third run
        gain = msd_gain(candidate, baseline)
        assert gain == msd_gain_se(candidate, baseline)[0]
        assert gain == pytest.approx(10.0, abs=1e-12)
        # averaging each curve over its own valid runs would count the third run
        assert baseline.steady_state_db() - candidate.steady_state_db() != gain


class TestDivergenceHandling:
    def test_runaway_step_size_aborts_and_reports(self):
        scenario = small(
            "b", runs=5, iterations=150, strategies=("atc",), step_size=8.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_scenario(scenario)
        curve = result.curves["atc"]
        aborted = result.diagnostics["aborted"]["atc"]
        assert len(aborted) == 5
        assert all(t >= 0 for _, t in aborted)
        assert np.isnan(curve.run_steady).all()
        assert curve.n_valid_runs == 0
        assert curve.counts[-1] == 0

    def test_all_diverged_strategies_raise_no_warning(self):
        scenario = replace(small("a", runs=20, iterations=60), step_size=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scenario(scenario)
        for curve in result.curves.values():
            assert curve.n_valid_runs == 0
            dead = curve.counts == 0
            assert dead[-1]
            assert np.isnan(curve.network[dead]).all()
            assert np.isnan(curve.per_cluster[dead]).all()
            assert np.isfinite(curve.network[~dead]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_aborted_runs_are_frozen(self):
        # every run diverges early; frozen runs must not overflow afterwards
        scenario = replace(small("a", runs=20, iterations=400), step_size=5.0)
        result = run_scenario(scenario)
        for name, curve in result.curves.items():
            assert len(result.diagnostics["aborted"][name]) == 20
            assert curve.counts[-1] == 0
        assert np.isfinite(result.weights["maic-adaptive"]).all()
        assert result.diagnostics["qp_fallbacks"]["maic-adaptive"] == 0

    def test_a_live_run_keeps_its_curve_next_to_aborted_ones(self):
        scenario = replace(
            small("a", runs=20, iterations=1500, strategies=("maic-p1",)), step_size=1.1
        )
        curve = run_scenario(scenario).curves["maic-p1"]
        assert 0 < curve.n_valid_runs < 20
        assert curve.counts[-1] == curve.n_valid_runs
        assert np.isfinite(curve.network).all()

    def test_stable_scenario_has_no_aborts(self):
        result = run_scenario(small("b", runs=6, iterations=60, strategies=("atc",)))
        assert result.diagnostics["aborted"]["atc"] == []


@pytest.fixture(scope="module")
def outputs_result():
    return run_scenario(
        small(
            "a",
            runs=6,
            iterations=40,
            strategies=("maic-p2", "maic-adaptive", "mdlms-averaging", "atc"),
        )
    )


class TestOutputs:
    @pytest.fixture
    def result(self, outputs_result):
        return outputs_result

    def test_summary_block_structure(self, result):
        summary = result.summary_dict()
        assert summary["scenario"]["name"] == "a"
        assert summary["window_start"] == 36
        block = summary["strategies"]["maic-p2"]
        assert block["n_valid_runs"] == 6
        assert "gain_over_atc_db" in block
        assert block["theory"][0]["mean_square_stable"] is True
        assert block["certificates"][0]["certified"]
        assert summary["strategies"]["atc"]["theory"][0]["msd"] > 0
        assert summary["strategies"]["mdlms-averaging"]["theory"] is None
        assert summary["strategies"]["maic-adaptive"]["qp_fallbacks"] == 0

    def test_adaptive_weights_are_the_mean_final_matrix(self, result):
        stack = result.weights["maic-adaptive"]
        assert stack.shape == (1, 10, 10)
        assert np.allclose(stack[0].sum(axis=0), 1.0, atol=1e-9)

    def test_write_outputs_produces_the_documented_files(self, result, tmp_path):
        out = tmp_path / "exp"
        result.write_outputs(out)
        names = {p.name for p in out.iterdir()}
        assert names == {
            "curves.csv",
            "summary.json",
            "weights_maic-p2.csv",
            "weights_maic-adaptive.csv",
            "weights_mdlms-averaging.csv",
            "weights_atc.csv",
        }
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "iteration"
        assert len(lines) == 41
        assert lines[1].startswith("1,")
        reloaded = json.loads((out / "summary.json").read_text())
        assert reloaded["stream_digest"] == result.stream_digest
        weight_lines = (out / "weights_maic-p2.csv").read_text().splitlines()
        assert weight_lines[0].startswith("segment,row,col0")
        assert len(weight_lines) == 11


class TestPresets:
    def test_preset_names(self):
        assert presets.PRESET_NAMES == ("a", "b", "c", "nonstationary")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            presets.get_scenario("z")

    def test_gamma12_knob_only_for_preset_b(self):
        scenario = presets.get_scenario("b", gamma12=0.3)
        assert scenario.segments[0].gamma[0][1] == 0.3
        assert scenario.segments[0].gamma[0][2] == 0.5
        with pytest.raises(ValueError, match="gamma12"):
            presets.get_scenario("a", gamma12=0.3)

    def test_delta_knob_only_for_preset_c(self):
        scenario = presets.get_scenario("c", delta=0.1)
        means = scenario.segments[0].cluster_means
        assert means[0] == (0.9, 0.9)
        assert means[2] == pytest.approx((1.1, 1.1))
        with pytest.raises(ValueError, match="delta"):
            presets.get_scenario("b", delta=0.1)

    def test_strategy_override_is_coerced_to_tuple(self):
        scenario = presets.get_scenario("a", strategies=["atc", "maic-p2"])
        assert scenario.strategies == ("atc", "maic-p2")

    def test_study_constants(self):
        a = presets.get_scenario("a")
        assert a.dim == 2 and a.step_size == 0.05 and a.eta == 1.0
        assert a.segments[0].cluster_means == ((0.7, 0.7),) * 3
        b = presets.get_scenario("b")
        assert b.dim == 1 and b.step_size == 0.1 and b.eta == 5.0
        assert b.noise_db_range == (-15.0, -5.0)
        assert b.spread_scale == 0.03**2
        c = presets.get_scenario("c")
        assert c.segments[0].cluster_means == (
            (0.7, 0.7),
            (1.0, 1.0),
            (1.3, 1.3),
        )
        ns = presets.get_scenario("nonstationary")
        assert ns.iterations == 1000 and ns.eta == 12.0
        assert [s.start for s in ns.segments] == [0, 250, 500, 750]


class TestSimulationHotPath:
    def test_one_einsum_per_segment(self, monkeypatch):
        # no einsum at all: the responses are noise plus a row_dot signal added
        # step by step, and a short-axis einsum runs one tiny loop per output
        # element
        scenario = small("a", runs=3, iterations=20)
        compiled = harness.compile_scenario(scenario)
        assert {plan.kind for plan in compiled.plans} == {"fixed", "mdlms", "adaptive"}
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs)
        )
        harness._simulate_chunk(compiled, 0, 3)
        assert calls == []

    def test_draws_are_time_major(self):
        # each run rebuilt from its own substream, in the contract's draw order
        scenario = small("nonstationary", runs=3, iterations=800)
        compiled = harness.compile_scenario(scenario)
        w_true, regressors, noises, responses, digests = harness._draw_chunk(compiled, 1, 3)
        assert regressors.shape == (800, 2, 10, 2) and responses.shape == (800, 2, 10)
        assert noises is responses  # no separate noise array
        for j in range(2):
            rng = np.random.default_rng(np.random.SeedSequence((scenario.master_seed, 1 + j)))
            params = np.stack([sample_parameters(model, rng) for model in compiled.models])
            run_regressors = draw_regressors(compiled.models[0], 800, rng)
            run_noises = draw_noises(compiled.models[0], 800, rng)
            signal = (run_regressors * params[compiled.segment_of]).sum(axis=-1)
            assert np.array_equal(w_true[j], params)
            assert np.array_equal(regressors[:, j], run_regressors)
            assert np.array_equal(responses[:, j], run_noises + signal)
            digest = hashlib.sha256(params.tobytes() + run_regressors.tobytes() + run_noises.tobytes())
            assert digests[j] == digest.digest()

    def test_draws_are_laid_out_m_major(self):
        # the (N, M) draws share the iterates' (M, N) memory order
        compiled = harness.compile_scenario(small("nonstationary", runs=3, iterations=800))
        w_true, regressors, _, responses, _ = harness._draw_chunk(compiled, 0, 3)
        assert w_true.shape == (3, 4, 10, 2) and regressors.shape == (800, 3, 10, 2)
        assert np.swapaxes(w_true, -1, -2).flags.c_contiguous
        assert np.swapaxes(regressors, -1, -2).flags.c_contiguous
        assert responses.flags.c_contiguous
        assert regressors.base is responses.base  # one allocation for both


class TestSharedPass:
    """All strategies of a chunk step in one pass over time, the fixed-weight
    rules as one stack; each must still see exactly what it would alone."""

    @staticmethod
    def assert_isolated(scenario):
        together = run_scenario(scenario)
        for name in scenario.strategies:
            alone = run_scenario(replace(scenario, strategies=(name,)))
            a, b = together.curves[name], alone.curves[name]
            for field in ("network", "per_cluster", "counts", "run_steady", "run_cluster_steady"):
                assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), (name, field)
            assert together.diagnostics["aborted"][name] == alone.diagnostics["aborted"][name]
            assert np.array_equal(together.weights[name], alone.weights[name])
        return together

    def test_diverging_runs_stay_with_their_strategy(self):
        scenario = replace(
            small(
                "a",
                runs=20,
                iterations=1500,
                strategies=("maic-p1", "maic-p2", "atc", "mdlms-averaging"),
            ),
            step_size=1.1,
        )
        result = self.assert_isolated(scenario)
        aborted = {name: {run for run, _ in runs} for name, runs in result.diagnostics["aborted"].items()}
        assert aborted["maic-p1"] == {1, 4, 17}
        assert aborted["maic-p2"] == {12}
        assert aborted["atc"] == aborted["mdlms-averaging"] == set(range(20))

    def test_every_step_kind_matches_its_solo_run(self):
        scenario = small("a", runs=6, iterations=80)
        compiled = harness.compile_scenario(scenario)
        assert {plan.kind for plan in compiled.plans} == {"fixed", "mdlms", "adaptive"}
        self.assert_isolated(scenario)

    def test_one_run_of_scalar_tasks_matches_its_solo_run(self):
        # one run with M = 1 makes each strategy's mix a one-row product, which
        # BLAS computes as a GEMV, not as rows of a larger GEMM
        self.assert_isolated(small("b", runs=1, iterations=200))


class TestCallTimeLookups:
    """The traced benchmark wraps these names at their module attributes;
    a caller that kept its own reference would bypass the wrapper."""

    def test_wrapped_names_are_looked_up_at_call_time(self, monkeypatch):
        calls = Counter()
        targets = (
            (strategies, "maic_step"),
            (strategies, "mdlms_step"),
            (strategies, "maic_adaptive_step"),
            (weight_opt, "solve_p1"),
            (weight_opt, "solve_p2_all_nodes"),
            (weight_opt, "solve_simplex_qp_batch"),
            (theory, "analyze"),
            (harness, "cooperation_from_regularizer"),
        )
        for owner, name in targets:

            def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        iterations = 5
        result = run_scenario(
            small("a", runs=2, iterations=iterations, strategies=KNOWN_STRATEGIES)
        )
        groups = sum(supports.shape[1] > 1 for _, supports in result.topology.inter_plus_groups)
        assert groups > 0
        fixed = len(harness.FIXED_WEIGHT_STRATEGIES)
        assert calls == {
            "maic_step": iterations,  # the fixed-weight rules step as one stack
            "mdlms_step": iterations,
            "maic_adaptive_step": iterations,
            "solve_p1": 1,
            "solve_p2_all_nodes": 1,
            # P2 at compile time, then the adaptive step at every iteration
            "solve_simplex_qp_batch": groups * (iterations + 1),
            "analyze": fixed,
            "cooperation_from_regularizer": 1,
        }
