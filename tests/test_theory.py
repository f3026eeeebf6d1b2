"""Closed-form mean and mean-square analysis against independent routes.

The theory runs on N x N matrices. The references here run on the stacked
(N*M, N*M) matrices, built by explicit block expansion, and check the
identity ``X = X_N ⊗ I_M`` that lets the theory drop the lift.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maicnet import harness, presets, theory
from maicnet.signal_model import SignalModel, block_trace
from maicnet.theory import (
    SIZE_CAP,
    TheoryReport,
    analyze,
    contraction_bound,
    mean_stability_bounds,
    spectral_radius,
    solve_stein,
)
from maicnet.topology import (
    ClusteredTopology,
    averaging_rule_weights,
    cooperation_from_regularizer,
    metropolis_weights,
)
from oracles import (
    cross_forcing_fixed_point,
    expand_blocks,
    forcing_matrices_reference,
    lifted_analysis,
    lifted_transition_bruteforce,
    mean_bias_vector,
    mean_error_trajectory,
    mean_stack,
    mean_transition_reference,
    msd_forcing_terms,
    msd_series,
    primal_msd,
    random_cooperation,
    regressor_covariances,
    sampled_variance_transition,
    variance_transition,
    vec,
)

SCALAR_MSD = 1e-4 / 0.19  # mu^2 sigma_v^2 sigma_u^2 / (1 - (1 - mu sigma_u^2)^2)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _line_weights(topology):
    return metropolis_weights(topology), averaging_rule_weights(topology)


def _coop_from_regularizer(topology, model, eta=1.0):
    rho = averaging_rule_weights(topology)
    return cooperation_from_regularizer(topology, rho, eta=eta, step_size=model.step_size)


def _dim3_model(topology):
    """The line fixture's profiles with three parameters per node."""
    return SignalModel.from_profiles(
        topology,
        dim=3,
        reg_power=(1.0, 1.3, 0.8, 1.1),
        noise_var=(0.02, 0.015, 0.025, 0.01),
        step_size=0.1,
        cluster_means=((1.0, 0.5, -0.2), (1.4, 0.9, 0.1)),
        sigma_w=(1.0, 0.8),
        spread_scale=0.05**2,
        gamma=((1.0, 0.6), (0.6, 1.0)),
    )


def _line_models(topology, line_model):
    return line_model, _dim3_model(topology)


def _traced_forcing(combine, cooperation, model):
    """The theory's (N, N) noise, spread and cross forcing."""
    operators = theory._operators(combine, cooperation, model)
    return theory._forcing(model, operators)


def _node_means(model):
    """(N, M) parameter mean of every node."""
    return model.cluster_means[model.cluster_of]


def _relative(value, reference):
    return np.max(np.abs(np.asarray(value) - reference)) / np.max(np.abs(reference))


class TestMeanTransition:
    def test_matches_looped_block_assembly(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            transition = theory._operators(combine, coop, model)[2]
            reference = mean_transition_reference(combine, coop, model)
            assert np.allclose(expand_blocks(transition, model.dim), reference, atol=1e-14)

    def test_scalar_network_value(self, scalar_node):
        _, model = scalar_node
        transition = theory._operators(np.eye(1), np.eye(1), model)[2]
        assert np.allclose(transition, [[0.9]])

    def test_bias_vanishes_for_shared_means(self, two_cluster_line):
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
        leak = theory._operators(combine, coop, model)[1]
        assert np.allclose(leak @ _node_means(model), 0.0, atol=1e-14)
        assert np.allclose(mean_bias_vector(combine, coop, model), 0.0, atol=1e-14)

    def test_bias_nonzero_for_distinct_means(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            leak = theory._operators(combine, coop, model)[1]
            bias = (leak @ _node_means(model)).reshape(-1)
            assert np.linalg.norm(bias) > 1e-4
            assert np.allclose(bias, mean_bias_vector(combine, coop, model), atol=1e-15)

    def test_trajectory_reaches_the_fixed_point(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        _, leak, transition = theory._operators(combine, coop, line_model)
        bias = (leak @ _node_means(line_model)).reshape(-1)
        start = -mean_stack(line_model)
        path = mean_error_trajectory(transition, bias, start, 4000)
        assert path.shape == (4001, 4)
        assert np.array_equal(path[0], start)
        limit = np.linalg.solve(np.eye(4) - transition, bias)
        assert np.allclose(path[-1], limit, atol=1e-12)
        # one manual step of the recursion
        assert np.allclose(path[1], transition @ start + bias, atol=1e-15)

    def test_stability_bounds_for_white_regressors(self, line_model):
        bounds, ok = mean_stability_bounds(line_model)
        assert np.array_equal(bounds, 2.0 / np.array([1.0, 1.3, 0.8, 1.1]))
        assert ok
        # the lifted form: 2 / the largest eigenvalue of each covariance block
        lifted = [2.0 / np.linalg.eigvalsh(c)[-1] for c in regressor_covariances(line_model)]
        assert np.allclose(bounds, lifted, rtol=1e-15, atol=0.0)
        assert not mean_stability_bounds(replace(line_model, step_size=2.0 / 1.3))[1]

    def test_contraction_dominates_the_transition_radius(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        rng = np.random.default_rng(17)
        for model in _line_models(two_cluster_line, line_model):
            bound = contraction_bound(model)
            lifted = max(
                float(np.max(np.abs(np.linalg.eigvalsh(np.eye(model.dim) - model.step_size * c))))
                for c in regressor_covariances(model)
            )
            assert np.isclose(bound, lifted, rtol=1e-15, atol=0.0)
            for _ in range(20):
                coop = random_cooperation(two_cluster_line, rng)
                rho = spectral_radius(theory._operators(combine, coop, model)[2])
                assert rho <= bound + 1e-12
                stacked = mean_transition_reference(combine, coop, model)
                assert np.isclose(rho, spectral_radius(stacked), rtol=1e-12, atol=0.0)


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
            transition = theory._operators(combine, coop, line_model)[2]
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
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            cluster_msd = analyze(combine, coop, model).cluster_msd
            transition = mean_transition_reference(combine, coop, model)
            terms = msd_forcing_terms(combine, coop, model)
            full = terms.gradient_noise + terms.parameter_spread + terms.cross_limit
            stacked_of = np.repeat(model.cluster_of, model.dim)
            for p, size in enumerate(np.bincount(model.cluster_of)):
                indicator = np.diag((stacked_of == p).astype(float))
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

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_adjoint_solve_is_dual_to_the_primal(self, n):
        """``<F, S(Y)> = <X(F), Y>`` for ``S = B' S B + Y`` and ``X = B X B' + F``."""
        rng = np.random.default_rng(500 + n)
        for radius in (0.3, 0.9, 0.99):
            transition = _scaled_to_radius(rng, n, radius)
            forcing, rhs = rng.standard_normal((2, 1, n, n))
            primal = np.vdot(forcing, solve_stein(transition, rhs))
            dual = np.vdot(solve_stein(transition.T, forcing), rhs)
            assert abs(primal - dual) <= 1e-12 * abs(primal)

    def test_zero_right_hand_side_has_the_zero_solution(self):
        transition = _scaled_to_radius(np.random.default_rng(9), 4, 0.9)
        assert not solve_stein(transition, np.zeros((2, 4, 4))).any()


class TestForcingTerms:
    def test_noise_and_spread_match_looped_assembly(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            noise, spread, _ = _traced_forcing(combine, coop, model)
            noise_ref, spread_ref = forcing_matrices_reference(combine, coop, model)
            assert _relative(noise, block_trace(noise_ref, model.dim)) <= 1e-14
            assert _relative(spread, block_trace(spread_ref, model.dim)) <= 1e-14

    def test_cross_limit_agrees_with_fixed_point_iteration(
        self, two_cluster_line, line_model
    ):
        combine, _ = _line_weights(two_cluster_line)
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            _, _, cross = _traced_forcing(combine, coop, model)
            transition = mean_transition_reference(combine, coop, model)
            _, spread_ref = forcing_matrices_reference(combine, coop, model)
            limit = cross_forcing_fixed_point(transition, spread_ref)
            reference = 2.0 * block_trace(limit, model.dim)
            scale = max(np.linalg.norm(reference), 1e-300)
            assert np.linalg.norm(cross - reference) <= 1e-10 * scale

    def test_unstable_configuration_is_rejected(self, scalar_node, monkeypatch):
        _, model = scalar_node
        runaway = replace(model, step_size=3.0)

        def unreachable(*args):
            raise AssertionError("forcing formed for a mean-unstable configuration")

        # the theory forms its forcing only for a mean-stable configuration
        monkeypatch.setattr(theory, "_forcing", unreachable)
        assert analyze(np.eye(1), np.eye(1), runaway).msd is None
        with pytest.raises(ValueError, match="mean-unstable"):
            msd_forcing_terms(np.eye(1), np.eye(1), runaway)


class TestSteadyStateMsd:
    def test_scalar_frozen_value(self, scalar_node):
        _, model = scalar_node
        report = analyze(np.eye(1), np.eye(1), model)
        msd, msd_approx = report.msd, report.msd_approx
        assert abs(msd - SCALAR_MSD) <= 1e-9 * SCALAR_MSD
        assert abs(msd_approx - SCALAR_MSD) <= 1e-9 * SCALAR_MSD

    def test_matches_series_summation(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        for model in _line_models(two_cluster_line, line_model):
            coop = _coop_from_regularizer(two_cluster_line, model)
            report = analyze(combine, coop, model)
            msd, msd_approx = report.msd, report.msd_approx

            transition = mean_transition_reference(combine, coop, model)
            noise_ref, spread_ref = forcing_matrices_reference(combine, coop, model)
            cross_ref = cross_forcing_fixed_point(transition, spread_ref)
            n, size = model.n_nodes, transition.shape[0]
            full = noise_ref + spread_ref + 2.0 * cross_ref
            series = msd_series(transition, full, np.eye(size)) / n
            series_approx = msd_series(transition, noise_ref + spread_ref, np.eye(size)) / n
            assert np.isclose(msd, series, rtol=1e-9, atol=0.0)
            assert np.isclose(msd_approx, series_approx, rtol=1e-9, atol=0.0)

    def test_cluster_split_recombines_to_the_network_value(
        self, two_cluster_line, line_model
    ):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        report = analyze(combine, coop, line_model)
        msd, cluster_msd = report.msd, report.cluster_msd
        sizes = np.bincount(line_model.cluster_of)
        assert np.isclose(float(sizes @ cluster_msd), line_model.n_nodes * msd, rtol=1e-12)

    def test_unstable_configuration_is_rejected(self, scalar_node):
        _, model = scalar_node
        runaway = replace(model, step_size=3.0)
        report = analyze(np.eye(1), np.eye(1), runaway)
        assert report.mean_square_stable is False
        assert report.msd is None

    def test_cooperation_helps_under_strong_correlation(self, two_cluster_line):
        """Borrowing across clusters lowers the network deviation when the
        tasks are similar, and the effect reverses once they drift apart."""

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
        msd_coop = analyze(combine, coop, close).msd
        msd_alone = analyze(combine, np.eye(4), close).msd
        assert msd_coop < msd_alone

        far = build(3.0)
        coop_far = _coop_from_regularizer(two_cluster_line, far, eta=2.0)
        msd_coop_far = analyze(combine, coop_far, far).msd
        msd_alone_far = analyze(combine, np.eye(4), far).msd
        assert msd_coop_far > msd_alone_far


class TestAdjointRoute:
    """The adjoint solve gives what one primal solve per cluster gives."""

    @staticmethod
    def _assert_matches_the_primal(combine, cooperation, model):
        report = analyze(combine, cooperation, model)
        msd, msd_approx, cluster_msd = report.msd, report.msd_approx, report.cluster_msd
        reference = primal_msd(combine, cooperation, model)
        assert _relative(msd, reference[0]) <= 1e-12
        assert _relative(msd_approx, reference[1]) <= 1e-12
        for value, expected in zip(cluster_msd, reference[2]):
            assert _relative(value, expected) <= 1e-12

    @pytest.mark.parametrize("name", presets.PRESET_NAMES + ("compile-n24-7",))
    def test_every_fixed_rule_on_every_segment(self, name):
        for combine, coop, model, _ in _fixed_rule_cases(name):
            self._assert_matches_the_primal(combine, coop, model)

    @pytest.mark.parametrize("n, clusters", [(5, 1), (8, 3), (12, 12)])
    def test_random_connected_networks(self, n, clusters):
        rng = np.random.default_rng(700 + n)
        for _ in range(3):
            self._assert_matches_the_primal(*_random_network(rng, n, 2, clusters))

    @pytest.mark.parametrize("n, clusters", [(5, 1), (12, 4), (12, 12)])
    def test_one_solve_on_two_right_hand_sides(self, monkeypatch, n, clusters):
        combine, coop, model = _random_network(np.random.default_rng(n), n, 2, clusters)
        shapes = []

        def spy(transition, rhs):
            shapes.append(np.shape(rhs))
            return solve_stein(transition, rhs)

        monkeypatch.setattr(theory, "solve_stein", spy)
        analyze(combine, coop, model)
        assert shapes == [(2, n, n)]


class TestAnalyze:
    def test_report_fields_are_consistent(self, two_cluster_line, line_model):
        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        report = analyze(combine, coop, line_model)
        assert isinstance(report, TheoryReport)
        assert report.mean_stable and report.mean_square_stable
        assert abs(report.rho_variance - report.rho_mean**2) <= 1e-8
        assert report.rho_mean <= report.contraction + 1e-12
        direct = primal_msd(combine, coop, line_model)
        assert np.isclose(report.msd, direct[0], rtol=1e-12)
        assert report.msd_db == pytest.approx(10 * np.log10(report.msd))
        assert report.cluster_msd.shape == (2,)

    def test_variance_radius_is_exactly_the_squared_mean_radius(
        self, two_cluster_line, line_model, scalar_node
    ):
        combine, _ = _line_weights(two_cluster_line)
        rng = np.random.default_rng(31)
        _, scalar = scalar_node
        cases = [(combine, random_cooperation(two_cluster_line, rng), line_model) for _ in range(5)]
        cases.append((np.eye(1), np.eye(1), replace(scalar, step_size=3.0)))
        for combine_, coop, model in cases:
            report = analyze(combine_, coop, model)
            assert report.rho_variance == report.rho_mean**2
            assert report.mean_square_stable == (report.rho_mean < 1.0)

    def test_unstable_report_carries_no_deviation(self, scalar_node):
        _, model = scalar_node
        runaway = replace(model, step_size=3.0)
        report = analyze(np.eye(1), np.eye(1), runaway)
        assert not report.mean_square_stable
        assert report.msd is None and report.msd_approx is None
        assert report.msd_db is None
        assert report.to_dict()["msd"] is None

    def test_huge_radius_saturates_the_variance_radius(self, scalar_node):
        # rho_mean = |1 - 0.1 * 1e300|, whose float power rho**2 would raise OverflowError
        _, model = scalar_node
        report = analyze(np.eye(1), np.eye(1), replace(model, reg_power=np.array([1e300])))
        assert report.rho_mean == pytest.approx(1e299)
        assert report.rho_variance == np.inf
        assert not report.mean_square_stable
        assert report.msd is None and report.cluster_msd is None

    def test_nonpositive_deviation_has_no_decibel_value(self, scalar_node):
        # a noiseless node with a known parameter has a closed-form MSD of 0
        _, model = scalar_node
        report = analyze(np.eye(1), np.eye(1), replace(model, noise_var=np.zeros(1)))
        assert report.msd == 0.0 and report.msd_approx == 0.0
        assert report.msd_db is None and report.msd_approx_db is None

    def test_report_serializes_to_plain_types(self, two_cluster_line, line_model):
        import json

        combine, _ = _line_weights(two_cluster_line)
        coop = _coop_from_regularizer(two_cluster_line, line_model)
        payload = analyze(combine, coop, line_model).to_dict()
        text = json.dumps(payload)
        assert "rho_mean" in payload and "msd_db" in payload
        assert isinstance(json.loads(text)["step_size_bounds"], list)


def _compile_n24(seed):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads

    return workloads.build("compile-n24", seed)


def _random_network(rng, n, dim, clusters=None):
    """A connected network of n nodes in contiguous, internally connected
    clusters (``clusters`` of them, or 1 to 4 at random), a white model on
    it, and random combine and cooperation weights."""
    p = int(rng.integers(1, min(n, 4) + 1)) if clusters is None else clusters
    cuts = np.sort(rng.choice(np.arange(1, n), size=p - 1, replace=False))
    cluster_of = np.searchsorted(cuts, np.arange(n), side="right")
    edges = {(k, k + 1) for k in range(n - 1)}
    for _ in range(n):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    topology = ClusteredTopology.from_edges(n, sorted(edges), cluster_of)
    reg_power = rng.uniform(0.5, 2.0, n)
    loadings = rng.uniform(0.3, 0.9, p)
    gamma = np.outer(loadings, loadings)
    np.fill_diagonal(gamma, 1.0)
    model = SignalModel.from_profiles(
        topology,
        dim=dim,
        reg_power=reg_power,
        noise_var=rng.uniform(0.01, 0.5, n),
        step_size=float(rng.uniform(0.2, 0.9) / reg_power.max()),
        cluster_means=rng.uniform(-1.0, 1.0, (p, dim)),
        sigma_w=rng.uniform(0.5, 1.5, p),
        spread_scale=float(rng.uniform(1e-4, 1e-2)),
        gamma=gamma,
    )
    return metropolis_weights(topology), random_cooperation(topology, rng), model


def _fixed_rule_cases(name):
    """``(combine, cooperation, model, report)`` of every fixed rule on every
    segment of a preset, or of ``compile-n24-<seed>``."""
    if name.startswith("compile-n24"):
        scenario = _compile_n24(int(name.rsplit("-", 1)[1]))
    else:
        scenario = presets.get_scenario(name)
    scenario = replace(scenario, strategies=harness.FIXED_WEIGHT_STRATEGIES)
    compiled = harness.compile_scenario(scenario)
    cases = [
        (compiled.combine, coop, model, report)
        for plan in compiled.plans
        for coop, model, report in zip(plan.weights, compiled.models, plan.reports)
    ]
    assert len(cases) == len(harness.FIXED_WEIGHT_STRATEGIES) * len(scenario.segments)
    return cases


class TestBlockTraceIdentity:
    """The N x N analysis equals the lifted (N*M, N*M) one to rounding."""

    @staticmethod
    def _assert_matches_the_lift(combine, cooperation, model, report):
        rho, msd, msd_approx, cluster_msd = lifted_analysis(combine, cooperation, model)
        assert report.mean_square_stable
        assert _relative(report.rho_mean, rho) <= 1e-12
        assert report.rho_variance == report.rho_mean**2
        assert _relative(report.msd, msd) <= 1e-12
        assert _relative(report.msd_approx, msd_approx) <= 1e-12
        for value, reference in zip(report.cluster_msd, cluster_msd):
            assert _relative(value, reference) <= 1e-12

    @pytest.mark.parametrize("name", presets.PRESET_NAMES + ("compile-n24-0", "compile-n24-7"))
    def test_every_fixed_rule_on_every_segment(self, name):
        for case in _fixed_rule_cases(name):
            self._assert_matches_the_lift(*case)

    @pytest.mark.parametrize(
        "n, dim", [(3, 1), (5, 2), (6, 3), (8, 4), (12, 3), (16, 4), (21, 3), (32, 2)]
    )
    def test_random_connected_networks(self, n, dim):
        assert n * dim <= SIZE_CAP
        rng = np.random.default_rng(1000 * n + dim)
        for _ in range(3):
            combine, coop, model = _random_network(rng, n, dim)
            self._assert_matches_the_lift(combine, coop, model, analyze(combine, coop, model))
