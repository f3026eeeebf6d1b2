"""Observation model assembly, validation, and sampling behavior."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maicnet.signal_model import (
    draw_noises,
    draw_regressors,
    noise_profile_uniform_db,
    parameter_moments_from_correlation,
    sample_parameters,
)


class TestMomentConstruction:
    def test_mean_stack_repeats_cluster_means(self, line_model):
        assert np.array_equal(line_model.mean_stack, [1.0, 1.0, 1.4, 1.4])

    def test_covariance_blocks_scale_with_correlation(self, line_model):
        scale = 0.05**2
        cov = line_model.cov_stack
        assert np.isclose(cov[0, 1], scale * 1.0 * 1.0 * 1.0)  # same cluster, gamma 1
        assert np.isclose(cov[0, 2], scale * 0.6 * 1.0 * 0.8)  # across clusters
        assert np.isclose(cov[2, 3], scale * 1.0 * 0.8 * 0.8)
        assert np.allclose(cov, cov.T)

    def test_second_moment_adds_mean_outer_product(self, line_model):
        second = line_model.parameter_second_moment
        mean = line_model.mean_stack
        assert np.allclose(second, line_model.cov_stack + np.outer(mean, mean))

    def test_cluster_mean_collapses_nodes(self, line_model):
        assert np.array_equal(line_model.cluster_mean(), [[1.0], [1.4]])

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
    def test_inconsistent_node_mean_rejected(self, line_model):
        bad = line_model.mean_stack.copy()
        bad[1] = 2.0
        with pytest.raises(ValueError, match="differs from its cluster representative"):
            replace(line_model, mean_stack=bad)

    def test_inconsistent_covariance_block_rejected(self, line_model):
        bad = line_model.cov_stack.copy()
        bad[0, 2] += 1e-3
        bad[2, 0] += 1e-3
        with pytest.raises(ValueError, match="inconsistent with its cluster pair"):
            replace(line_model, cov_stack=bad)

    def test_regressor_covariance_must_be_psd(self, line_model):
        bad = line_model.reg_cov.copy()
        bad[0] = -np.eye(1)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            replace(line_model, reg_cov=bad)

    def test_negative_noise_rejected(self, line_model):
        with pytest.raises(ValueError):
            replace(line_model, noise_var=np.array([-0.1, 0.1, 0.1, 0.1]))

    def test_uniform_step_size_requires_uniformity(self, line_model):
        assert line_model.uniform_step_size() == 0.1
        uneven = replace(line_model, step_sizes=np.array([0.1, 0.1, 0.2, 0.1]))
        with pytest.raises(ValueError, match="not uniform"):
            uneven.uniform_step_size()


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
        assert np.allclose(draws.mean(axis=0), line_model.mean_stack, atol=5e-3)
        cov = np.cov(draws.T)
        assert np.allclose(cov, line_model.cov_stack, atol=5e-4)

    def test_regressor_covariance_matches_profile(self, line_model):
        rng = np.random.default_rng(3)
        u = draw_regressors(line_model, 20000, rng)
        power = np.mean(u[:, :, 0] ** 2, axis=0)
        assert np.allclose(power, [1.0, 1.3, 0.8, 1.1], atol=0.05)

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

