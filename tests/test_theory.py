"""Closed-form mean and mean-square analysis against independent routes."""

from __future__ import annotations

import numpy as np
import pytest

from maicnet.theory import (
    SIZE_CAP,
    TheoryReport,
    analyze,
    contraction_bound,
    mean_bias_vector,
    mean_error_trajectory,
    mean_stability_bounds,
    mean_transition,
    msd_forcing_terms,
    sampled_variance_transition,
    spectral_radius,
    solve_stein,
    steady_state_msd,
    vec,
)
from maicnet.topology import averaging_rule_weights, metropolis_weights
from oracles import (
    cross_forcing_fixed_point,
    forcing_matrices_reference,
    lifted_transition_bruteforce,
    mean_transition_reference,
    msd_series,
    random_cooperation,
    variance_transition,
)

SCALAR_MSD = 1e-4 / 0.19  # mu^2 sigma_v^2 sigma_u^2 / (1 - (1 - mu sigma_u^2)^2)


def _line_weights(topology):
    return metropolis_weights(topology), averaging_rule_weights(topology)


def _coop_from_regularizer(topology, model, eta=1.0):
    from maicnet.topology import cooperation_from_regularizer

    rho = averaging_rule_weights(topology)
    return cooperation_from_regularizer(topology, rho, eta=eta, step_sizes=model.step_sizes)


class TestMeanTransition:
    def test_matches_looped_block_assembly(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        transition = mean_transition(combine, coop, line_model)
        reference = mean_transition_reference(combine, coop, line_model)
        assert np.allclose(transition, reference, atol=1e-14)

    def test_scalar_network_value(self, scalar_node):
        _, model = scalar_node
        transition = mean_transition(np.eye(1), np.eye(1), model)
        assert np.allclose(transition, [[0.9]])

    def test_bias_vanishes_for_shared_means(self, two_cluster_line):
        from maicnet.signal_model import SignalModel

        model = SignalModel.from_profiles(
            two_cluster_line,
            dim=2,
            reg_power=(1.0, 1.3, 0.8, 1.1),
            noise_var=(0.02, 0.015, 0.025, 0.01),
            step_size=0.1,
            cluster_means=((0.7, 0.7), (0.7, 0.7)),
            sigma_w=(1.0, 0.8),
            spread_scale=1e-4,
            gamma=((1.0, 0.5), (0.5, 1.0)),
        )
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, model)
        bias = mean_bias_vector(combine, coop, model)
        assert np.allclose(bias, 0.0, atol=1e-14)

    def test_bias_nonzero_for_distinct_means(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        bias = mean_bias_vector(combine, coop, line_model)
        assert np.linalg.norm(bias) > 1e-4

    def test_trajectory_reaches_the_fixed_point(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        transition = mean_transition(combine, coop, line_model)
        bias = mean_bias_vector(combine, coop, line_model)
        start = -line_model.mean_stack
        path = mean_error_trajectory(transition, bias, start, 4000)
        assert path.shape == (4001, 4)
        assert np.array_equal(path[0], start)
        limit = np.linalg.solve(np.eye(4) - transition, bias)
        assert np.allclose(path[-1], limit, atol=1e-12)
        # one manual step of the recursion
        assert np.allclose(path[1], transition @ start + bias, atol=1e-15)

    def test_stability_bounds_for_white_regressors(self, line_model):
        bounds, ok = mean_stability_bounds(line_model)
        assert np.allclose(bounds, 2.0 / np.array([1.0, 1.3, 0.8, 1.1]))
        assert ok

    def test_contraction_dominates_the_transition_radius(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        rng = np.random.default_rng(17)
        bound = contraction_bound(line_model)
        for _ in range(20):
            coop = random_cooperation(two_cluster_line, rng)
            rho = spectral_radius(mean_transition(combine, coop, line_model))
            assert rho <= bound + 1e-12


class TestVarianceTransition:
    def test_matches_four_index_bruteforce(self):
        b = np.array([[0.9, 0.05], [0.1, 0.8]])
        assert np.array_equal(variance_transition(b), lifted_transition_bruteforce(b))

    def test_lift_acts_as_congruence_on_vectorized_matrices(self):
        rng = np.random.default_rng(2)
        b = 0.4 * rng.standard_normal((3, 3))
        lifted = variance_transition(b)
        for _ in range(5):
            x = rng.standard_normal((3, 3))
            assert np.allclose(lifted @ vec(x), vec(b.T @ x @ b), atol=1e-13)

    def test_radius_is_squared_mean_radius(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        rng = np.random.default_rng(23)
        for _ in range(10):
            coop = random_cooperation(two_cluster_line, rng)
            transition = mean_transition(combine, coop, line_model)
            rho_mean = spectral_radius(transition)
            rho_var = spectral_radius(variance_transition(transition))
            assert abs(rho_var - rho_mean**2) <= 1e-8

    def test_size_cap_guards_the_lift(self):
        with pytest.raises(ValueError, match="size cap"):
            variance_transition(np.eye(SIZE_CAP + 1))

    def test_sampled_transition_sees_fourth_moments(self, scalar_node):
        _, model = scalar_node
        estimate, rho, spread = sampled_variance_transition(
            np.eye(1), np.eye(1), model, n_samples=4000, rng=np.random.default_rng(0)
        )
        # E (1 - mu u^2)^2 = 1 - 2 mu + 3 mu^2 for unit-power Gaussian u
        exact = 1.0 - 2 * 0.1 + 3 * 0.1**2
        assert estimate.shape == (1, 1)
        assert abs(rho - exact) <= max(5 * spread, 0.01)
        assert rho > spectral_radius(variance_transition(np.array([[0.9]])))


def _scaled_to_radius(rng, n, radius):
    """Random nonsymmetric matrix rescaled to the given spectral radius."""
    b = rng.standard_normal((n, n))
    return b * (radius / spectral_radius(b))


def _lifted_solve(transition, rhs):
    """Solve ``S = B' S B + Y`` through the Kronecker lift, column-major."""
    n = transition.shape[0]
    system = np.eye(n * n) - variance_transition(transition)
    return np.linalg.solve(system, vec(rhs)).reshape(n, n, order="F")


class TestSteinSolve:
    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_matches_the_lifted_solve(self, n):
        rng = np.random.default_rng(300 + n)
        transition = _scaled_to_radius(rng, n, 0.95)
        groups = rng.permutation(np.arange(n) % min(n, 3))
        rhs = [np.eye(n)] + [np.diag((groups == p).astype(float)) for p in range(min(n, 3))]
        solution = solve_stein(transition, np.stack(rhs))
        for s, y in zip(solution, rhs):
            reference = _lifted_solve(transition, y)
            assert np.linalg.norm(s - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_cluster_msd_matches_the_lifted_solve(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        _, _, cluster_msd = steady_state_msd(combine, coop, line_model, per_cluster=True)
        transition = mean_transition(combine, coop, line_model)
        terms = msd_forcing_terms(combine, coop, line_model)
        full = terms.gradient_noise + terms.parameter_spread + terms.cross_limit
        for p, size in enumerate(np.bincount(line_model.cluster_of)):
            indicator = np.diag((line_model.cluster_of == p).astype(float))
            reference = full @ vec(_lifted_solve(transition, indicator)) / size
            assert np.isclose(cluster_msd[p], reference, rtol=1e-12, atol=0.0)

    def test_near_unit_radius_converges(self):
        transition = _scaled_to_radius(np.random.default_rng(8), 6, np.sqrt(0.9995))
        assert spectral_radius(transition) ** 2 >= 0.999
        # raises if the doubling cap or the residual check is hit
        solution = solve_stein(transition, np.eye(6)[None])[0]
        reference = _lifted_solve(transition, np.eye(6))
        assert np.linalg.norm(solution - reference) <= 1e-9 * np.linalg.norm(reference)

    def test_unit_radius_hits_the_doubling_cap(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_stein(np.eye(2), np.eye(2)[None])


class TestForcingTerms:
    def test_noise_and_spread_match_looped_assembly(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        terms = msd_forcing_terms(combine, coop, line_model)
        noise_ref, spread_ref = forcing_matrices_reference(combine, coop, line_model)
        assert np.allclose(terms.gradient_noise, vec(noise_ref), atol=1e-14)
        assert np.allclose(terms.parameter_spread, vec(spread_ref), atol=1e-14)

    def test_cross_limit_agrees_with_fixed_point_iteration(
        self, two_cluster_line, line_model
    ):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        terms = msd_forcing_terms(combine, coop, line_model)
        transition = mean_transition_reference(combine, coop, line_model)
        _, spread_ref = forcing_matrices_reference(combine, coop, line_model)
        limit = cross_forcing_fixed_point(transition, spread_ref)
        reference = 2.0 * vec(limit)
        scale = max(np.linalg.norm(reference), 1e-300)
        assert np.linalg.norm(terms.cross_limit - reference) <= 1e-10 * scale

    def test_unstable_configuration_is_rejected(self, scalar_node):
        from dataclasses import replace

        _, model = scalar_node
        runaway = replace(model, step_sizes=np.array([3.0]))
        with pytest.raises(ValueError, match="mean-unstable"):
            msd_forcing_terms(np.eye(1), np.eye(1), runaway)


class TestSteadyStateMsd:
    def test_scalar_frozen_value(self, scalar_node):
        _, model = scalar_node
        msd, msd_approx = steady_state_msd(np.eye(1), np.eye(1), model)
        assert abs(msd - SCALAR_MSD) <= 1e-9 * SCALAR_MSD
        assert abs(msd_approx - SCALAR_MSD) <= 1e-9 * SCALAR_MSD

    def test_matches_series_summation(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        msd, msd_approx = steady_state_msd(combine, coop, line_model)

        transition = mean_transition_reference(combine, coop, line_model)
        noise_ref, spread_ref = forcing_matrices_reference(combine, coop, line_model)
        cross_ref = cross_forcing_fixed_point(transition, spread_ref)
        n = line_model.n_nodes
        full = noise_ref + spread_ref + 2.0 * cross_ref
        series = msd_series(transition, full, np.eye(n)) / n
        series_approx = msd_series(transition, noise_ref + spread_ref, np.eye(n)) / n
        assert np.isclose(msd, series, rtol=1e-9, atol=0.0)
        assert np.isclose(msd_approx, series_approx, rtol=1e-9, atol=0.0)

    def test_cluster_split_recombines_to_the_network_value(
        self, two_cluster_line, line_model
    ):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        msd, _, cluster_msd = steady_state_msd(
            combine, coop, line_model, per_cluster=True
        )
        sizes = np.bincount(line_model.cluster_of)
        assert np.isclose(float(sizes @ cluster_msd), line_model.n_nodes * msd, rtol=1e-12)

    def test_unstable_configuration_is_rejected(self, scalar_node):
        from dataclasses import replace

        _, model = scalar_node
        runaway = replace(model, step_sizes=np.array([3.0]))
        with pytest.raises(ValueError, match="mean-square-unstable"):
            steady_state_msd(np.eye(1), np.eye(1), runaway)

    def test_cooperation_helps_under_strong_correlation(self, two_cluster_line):
        """Borrowing across clusters lowers the network deviation when the
        tasks are similar, and the effect reverses once they drift apart."""
        from maicnet.signal_model import SignalModel

        def build(mean_gap):
            return SignalModel.from_profiles(
                two_cluster_line,
                dim=1,
                reg_power=(1.0, 1.0, 1.0, 1.0),
                noise_var=(0.05, 0.05, 0.05, 0.05),
                step_size=0.1,
                cluster_means=((1.0,), (1.0 + mean_gap,)),
                sigma_w=(1.0, 1.0),
                spread_scale=1e-4,
                gamma=((1.0, 0.9), (0.9, 1.0)),
            )

        combine, rho = _line_weights(two_cluster_line)
        close = build(0.0)
        coop = _coop_from_regularizer(two_cluster_line, close, eta=2.0)
        msd_coop, _ = steady_state_msd(combine, coop, close)
        msd_alone, _ = steady_state_msd(combine, np.eye(4), close)
        assert msd_coop < msd_alone

        far = build(3.0)
        coop_far = _coop_from_regularizer(two_cluster_line, far, eta=2.0)
        msd_coop_far, _ = steady_state_msd(combine, coop_far, far)
        msd_alone_far, _ = steady_state_msd(combine, np.eye(4), far)
        assert msd_coop_far > msd_alone_far


class TestAnalyze:
    def test_report_fields_are_consistent(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        report = analyze(combine, coop, line_model)
        assert isinstance(report, TheoryReport)
        assert report.mean_stable and report.mean_square_stable
        assert abs(report.rho_variance - report.rho_mean**2) <= 1e-8
        assert report.rho_mean <= report.contraction + 1e-12
        direct = steady_state_msd(combine, coop, line_model)
        assert np.isclose(report.msd, direct[0], rtol=1e-12)
        assert report.msd_db == pytest.approx(10 * np.log10(report.msd))
        assert report.cluster_msd.shape == (2,)

    def test_variance_radius_is_exactly_the_squared_mean_radius(
        self, two_cluster_line, line_model, scalar_node
    ):
        from dataclasses import replace

        combine, _ = _line_weights(two_cluster_line)
        rng = np.random.default_rng(31)
        _, scalar = scalar_node
        cases = [(combine, random_cooperation(two_cluster_line, rng), line_model) for _ in range(5)]
        cases.append((np.eye(1), np.eye(1), replace(scalar, step_sizes=np.array([3.0]))))
        for combine_, coop, model in cases:
            report = analyze(combine_, coop, model)
            assert report.rho_variance == report.rho_mean**2
            assert report.mean_square_stable == (report.rho_mean < 1.0)

    def test_unstable_report_carries_no_deviation(self, scalar_node):
        from dataclasses import replace

        _, model = scalar_node
        runaway = replace(model, step_sizes=np.array([3.0]))
        report = analyze(np.eye(1), np.eye(1), runaway)
        assert not report.mean_square_stable
        assert report.msd is None and report.msd_approx is None
        assert report.msd_db is None
        assert report.to_dict()["msd"] is None

    def test_report_serializes_to_plain_types(self, two_cluster_line, line_model):
        import json

        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        payload = analyze(combine, coop, line_model).to_dict()
        text = json.dumps(payload)
        assert "rho_mean" in payload and "msd_db" in payload
        assert isinstance(json.loads(text)["step_size_bounds"], list)
