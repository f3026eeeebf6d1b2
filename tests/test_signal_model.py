"""Observation model assembly, validation, and sampling behavior."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maicnet import harness, presets
from maicnet.signal_model import (
    SignalModel,
    block_trace,
    draw_noises,
    draw_regressors,
    noise_profile_uniform_db,
    parameter_moments_from_correlation,
    sample_parameters,
)
from oracles import (
    broadcast_color,
    cov_stack,
    einsum_color,
    mean_stack,
    parameter_second_moment,
    regressor_roots,
    stacked_parameter_moments,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _compile_n24_variant0():
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads

    return workloads.build("compile-n24", 0)


def _stacked_cases(line_model):
    """(model, stacked_parameter_moments arguments) for the line fixture,
    preset a and the benchmark's compile-n24 variant 0."""
    yield line_model, (line_model.cluster_of, 1, ((1.0,), (1.4,)), (1.0, 0.8), 0.05**2,
                       ((1.0, 0.6), (0.6, 1.0)))
    for scenario in (presets.get_scenario("a"), _compile_n24_variant0()):
        model = harness.compile_scenario(replace(scenario, strategies=())).models[0]
        segment = scenario.segments[0]
        yield model, (scenario.cluster_of, scenario.dim, segment.cluster_means,
                      scenario.sigma_w, scenario.spread_scale, segment.gamma)


class TestMomentConstruction:
    def test_mean_stack_repeats_cluster_means(self, line_model):
        assert np.array_equal(mean_stack(line_model), [1.0, 1.0, 1.4, 1.4])

    def test_covariance_blocks_scale_with_correlation(self, line_model):
        scale = 0.05**2
        cov = cov_stack(line_model)
        assert np.isclose(cov[0, 1], scale * 1.0 * 1.0 * 1.0)  # same cluster, gamma 1
        assert np.isclose(cov[0, 2], scale * 0.6 * 1.0 * 0.8)  # across clusters
        assert np.isclose(cov[2, 3], scale * 1.0 * 0.8 * 0.8)
        assert np.allclose(cov, cov.T)

    def test_second_moment_adds_mean_outer_product(self, line_model):
        second = parameter_second_moment(line_model)
        mean = mean_stack(line_model)
        assert np.allclose(second, cov_stack(line_model) + np.outer(mean, mean))

    def test_cluster_mean_collapses_nodes(self, line_model):
        assert np.array_equal(line_model.cluster_means, [[1.0], [1.4]])

    def test_stacked_moments_match_the_membership_lift_bitwise(self, line_model):
        for model, args in _stacked_cases(line_model):
            mean, cov, cluster_sqrt = stacked_parameter_moments(*args)
            traces = block_trace(cov + np.outer(mean, mean), model.dim)
            assert model.second_moment_traces.tobytes() == traces.tobytes()
            assert model._cluster_sqrt.tobytes() == cluster_sqrt.tobytes()

    def test_gamma_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 1, np.ones((2, 1)), np.ones(2), 1.0,
                np.array([[1.0, 0.3], [0.4, 1.0]]),
            )

    def test_gamma_must_have_unit_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 1, np.ones((2, 1)), np.ones(2), 1.0,
                np.array([[1.0, 0.3], [0.3, 0.9]]),
            )

    def test_gamma_entries_bounded(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 1, np.ones((2, 1)), np.ones(2), 1.0,
                np.array([[1.0, 1.4], [1.4, 1.0]]),
            )

    def test_indefinite_gamma_reports_most_negative_eigenvalue(self):
        gamma = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        with pytest.raises(ValueError, match="most negative eigenvalue"):
            parameter_moments_from_correlation(
                np.array([0, 1, 2]), 1, np.ones((3, 1)), np.ones(3), 1.0, gamma
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="gamma has shape"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 1, np.ones((2, 1)), np.ones(2), 1.0, np.eye(3)
            )
        with pytest.raises(ValueError, match="cluster_means has shape"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 2, np.ones((2, 1)), np.ones(2), 1.0, np.eye(2)
            )


class TestModelValidation:
    def test_regressor_covariance_must_be_psd(self, line_model):
        # node k's covariance is reg_power[k] * I: a nonpositive power is refused
        for bad in (-1.0, 0.0):
            with pytest.raises(ValueError, match="reg_power must be a length-N vector of positive"):
                replace(line_model, reg_power=np.array([bad, 1.3, 0.8, 1.1]))

    def test_negative_noise_rejected(self, line_model):
        with pytest.raises(ValueError):
            replace(line_model, noise_var=np.array([-0.1, 0.1, 0.1, 0.1]))

    def test_step_size_must_be_nonnegative(self, line_model):
        assert line_model.step_size == 0.1
        assert replace(line_model, step_size=0.0).step_size == 0.0
        with pytest.raises(ValueError, match="step_size must be nonnegative, got -0.1"):
            replace(line_model, step_size=-0.1)

    def test_moments_that_overflow_float64_are_refused_by_name(self, two_cluster_line, line_model):
        # refused before any eigen-decomposition, and with no overflow warning
        with pytest.raises(ValueError, match="parameter covariance overflows float64"):
            parameter_moments_from_correlation(
                np.array([0, 1]), 1, np.ones((2, 1)), np.array([1e200, 1.0]), 1.0, np.eye(2)
            )
        with pytest.raises(ValueError, match="parameter second moment overflows float64"):
            replace(line_model, cluster_means=np.array([[1e160], [1.4]]))
        # opposite huge means: the cross traces are inf - inf
        with pytest.raises(ValueError, match="parameter second moment overflows float64"):
            SignalModel.from_profiles(
                two_cluster_line, 2, np.ones(4), np.ones(4), 0.1,
                np.array([[1e200, -1e200], [1e200, 1e200]]), (1.0, 0.8), 0.05**2, np.eye(2),
            )

    def test_fields_are_read_only(self, line_model):
        with pytest.raises(ValueError, match="read-only"):
            line_model.reg_power[0] = 2.0

    def test_the_callers_arrays_stay_writeable(self, two_cluster_line):
        noise_var = np.array([0.02, 0.015, 0.025, 0.01])
        means = np.array([[1.0, 0.5], [1.4, -0.2]])
        model = SignalModel.from_profiles(
            two_cluster_line, 2, np.ones(4), noise_var, 0.1, means, (1.0, 0.8), 0.05**2, np.eye(2)
        )
        assert noise_var.flags.writeable and means.flags.writeable
        for name in ("reg_power", "noise_var", "cluster_means", "cluster_cov", "cluster_of"):
            assert not getattr(model, name).flags.writeable, name
        noise_var[0] = 5.0
        means[0, 0] = 9.0
        assert model.noise_var[0] == 0.02 and model.cluster_means[0, 0] == 1.0


class TestSampling:
    def test_same_cluster_nodes_draw_identical_parameters(self, line_model):
        rng = np.random.default_rng(7)
        blocks = sample_parameters(line_model, rng)
        assert blocks.shape == (4, line_model.dim)
        assert np.array_equal(blocks[0], blocks[1])
        assert np.array_equal(blocks[2], blocks[3])
        assert not np.array_equal(blocks[0], blocks[2])

    def test_parameter_mean_and_spread_match_moments(self, line_model):
        rng = np.random.default_rng(11)
        draws = np.stack(
            [sample_parameters(line_model, rng).reshape(-1) for _ in range(4000)]
        )
        assert np.allclose(draws.mean(axis=0), mean_stack(line_model), atol=5e-3)
        cov = np.cov(draws.T)
        assert np.allclose(cov, cov_stack(line_model), atol=5e-4)

    def test_regressor_covariance_matches_profile(self, line_model):
        rng = np.random.default_rng(3)
        u = draw_regressors(line_model, 20000, rng)
        power = np.mean(u[:, :, 0] ** 2, axis=0)
        assert np.allclose(power, [1.0, 1.3, 0.8, 1.1], atol=0.05)

    @staticmethod
    def _colored_both_ways(power, dim, reference=einsum_color):
        n = power.size
        model = SignalModel(
            dim=dim, reg_power=power, noise_var=np.ones(n), step_size=0.1,
            cluster_means=np.zeros((1, dim)), cluster_cov=np.eye(dim),
            cluster_of=np.zeros(n, dtype=int),
        )
        u = draw_regressors(model, 50, np.random.default_rng(dim))
        z = np.random.default_rng(dim).standard_normal((50, n, dim))
        return u, reference(regressor_roots(model), z)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_isotropic_coloring_matches_the_einsum_bitwise(self, dim):
        power = np.random.default_rng(dim).uniform(0.5, 2.0, 6)
        u, expected = self._colored_both_ways(power, dim)
        assert np.array_equal(u, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_coloring_matches_the_broadcast_reference_bitwise(self, dim):
        power = np.random.default_rng(10 + dim).uniform(0.1, 3.0, 6)
        u, expected = self._colored_both_ways(power, dim, broadcast_color)
        assert np.array_equal(u, expected)
        assert u.shape == (50, 6, dim)
        assert np.moveaxis(u, -1, 0).flags.c_contiguous  # laid out (M, T, N)

    def test_noise_variance_matches_profile(self, line_model):
        rng = np.random.default_rng(4)
        v = draw_noises(line_model, 20000, rng)
        assert np.allclose(v.mean(axis=0), 0.0, atol=0.01)
        assert np.allclose(np.var(v, axis=0), line_model.noise_var, atol=0.002)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_noise_profile_stays_inside_interval(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        profile = noise_profile_uniform_db(n_nodes, -15.0, -5.0, rng)
        assert profile.shape == (n_nodes,)
        assert np.all(profile >= 10 ** (-15 / 10) - 1e-15)
        assert np.all(profile <= 10 ** (-5 / 10) + 1e-15)

    def test_noise_profile_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match="reversed"):
            noise_profile_uniform_db(3, -5.0, -15.0, np.random.default_rng(0))

    def test_noise_profile_is_seed_deterministic(self):
        a = noise_profile_uniform_db(8, -15.0, -5.0, np.random.default_rng(37))
        b = noise_profile_uniform_db(8, -15.0, -5.0, np.random.default_rng(37))
        assert np.array_equal(a, b)

