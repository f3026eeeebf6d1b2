"""Per-iteration strategy updates and their reductions to one another."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from maicnet.strategies import (
    _solve_learned_columns,
    adapt,
    init_state,
    inter_cluster_combine,
    intra_cluster_combine,
    maic_adaptive_step,
    maic_step,
    mdlms_step,
    row_dot,
)
from maicnet.topology import (
    ClusteredTopology,
    averaging_rule_weights,
    metropolis_weights,
)
from maicnet import weight_opt
from maicnet.weight_opt import solve_simplex_qp_batch
from oracles import (
    atc_step,
    einsum_gram,
    einsum_inter_cluster_combine,
    einsum_intra_cluster_combine,
    einsum_mdlms_pull,
    einsum_node_dot,
    loop_maic_step,
    loop_mdlms_pull,
    random_cooperation,
    solve_learned_columns_loop,
)


def _draw_inputs(rng, n, dim, batch=()):
    regressors = rng.standard_normal(batch + (n, dim))
    responses = rng.standard_normal(batch + (n,))
    return regressors, responses


class TestAdapt:
    def test_scalar_frozen_value(self):
        # w = 0, mu = 0.1, u = 1, d = 2 gives psi = 0.2 exactly
        psi = adapt(
            np.zeros((1, 1)), np.ones((1, 1)), np.array([2.0]), np.array([0.1])
        )
        assert psi.tolist() == [[0.2]]

    def test_matches_per_node_formula(self):
        rng = np.random.default_rng(0)
        n, dim = 5, 3
        w = rng.standard_normal((n, dim))
        u, d = _draw_inputs(rng, n, dim)
        mu = rng.uniform(0.01, 0.2, size=n)
        psi = adapt(w, u, d, mu)
        for k in range(n):
            err = d[k] - float(u[k] @ w[k])
            assert np.allclose(psi[k], w[k] + mu[k] * err * u[k], atol=1e-14)

    def test_batched_adapt_equals_loop_over_batch(self):
        rng = np.random.default_rng(1)
        n, dim, batch = 4, 2, 7
        w = rng.standard_normal((batch, n, dim))
        u, d = _draw_inputs(rng, n, dim, (batch,))
        mu = np.full(n, 0.1)
        together = adapt(w, u, d, mu)
        for b in range(batch):
            assert np.array_equal(together[b], adapt(w[b], u[b], d[b], mu))


class TestCombines:
    def test_inter_cluster_combine_column_convention(self):
        psi = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        coop = np.zeros((3, 3))
        coop[0, 0] = 1.0
        coop[0, 1] = 0.25  # node 1 borrows a quarter from node 0
        coop[1, 1] = 0.75
        coop[2, 2] = 1.0
        phi = inter_cluster_combine(psi, coop)
        assert np.allclose(phi[1], 0.25 * psi[0] + 0.75 * psi[1])
        assert np.array_equal(phi[0], psi[0])
        assert np.array_equal(phi[2], psi[2])

    def test_batched_cooperation_matrices(self):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((4, 3, 2))
        coops = rng.random((4, 3, 3))
        phi = inter_cluster_combine(psi, coops)
        for b in range(4):
            assert np.allclose(phi[b], inter_cluster_combine(psi[b], coops[b]))

    def test_intra_combine_is_matrix_product(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((5, 2))
        combine = rng.random((5, 5))
        out = intra_cluster_combine(phi, combine)
        assert np.allclose(out, combine.T @ phi, atol=1e-14)


def _assert_norm_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestRowDot:
    """The elementwise contraction over the parameter axis against einsum."""

    @staticmethod
    def _operands(dim):
        rng = np.random.default_rng(dim)
        return rng.standard_normal((2, 240, 24, dim)), rng.standard_normal((60, 10, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bitwise_equal_to_the_einsum_forms(self, dim):
        (a, b), w = self._operands(dim)
        assert np.array_equal(row_dot(a, b), einsum_node_dot(a, b))
        assert np.array_equal(row_dot(w[:, :, None], w[:, None]), einsum_gram(w))

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_close_to_the_einsum_forms_above_two_coordinates(self, dim):
        (a, b), w = self._operands(dim)
        _assert_norm_close(row_dot(a, b), einsum_node_dot(a, b), rtol=1e-15)
        _assert_norm_close(row_dot(w[:, :, None], w[:, None]), einsum_gram(w), rtol=1e-15)


class TestNodeMixing:
    """The GEMM route over the node axis against the einsum contractions."""

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 10, 24])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_einsum_contractions(self, dim, n, batch):
        rng = np.random.default_rng(100 * dim + n + len(batch))
        x = rng.standard_normal(batch + (n, dim))
        matrix = rng.random((n, n))
        per_run = rng.random(batch + (n, n))
        _assert_norm_close(
            inter_cluster_combine(x, matrix), einsum_inter_cluster_combine(x, matrix)
        )
        _assert_norm_close(
            inter_cluster_combine(x, per_run), einsum_inter_cluster_combine(x, per_run)
        )
        _assert_norm_close(
            intra_cluster_combine(x, matrix), einsum_intra_cluster_combine(x, matrix)
        )

        regularizer = rng.random((n, n))
        mu = rng.uniform(0.01, 0.1, size=n)
        u, d = _draw_inputs(rng, n, dim, batch)
        state = init_state(n, dim, batch)
        state.weights = x.copy()
        mdlms_step(state, u, d, matrix, regularizer, 1.5, mu)
        psi = adapt(x, u, d, mu) + mu[:, None] * 1.5 * einsum_mdlms_pull(x, regularizer)
        _assert_norm_close(state.weights, einsum_intra_cluster_combine(psi, matrix))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_identity_cooperation_is_atc_bitwise(self, dim):
        rng = np.random.default_rng(40 + dim)
        n = 24
        combine = rng.random((n, n))
        combine /= combine.sum(axis=0)
        mu = np.full(n, 0.05)
        state_a = init_state(n, dim, (50,))
        state_b = init_state(n, dim, (50,))
        for _ in range(10):
            u, d = _draw_inputs(rng, n, dim, (50,))
            atc_step(state_a, u, d, combine, mu)
            maic_step(state_b, u, d, combine, np.eye(n), mu)
            assert np.array_equal(state_a.weights, state_b.weights)

    def test_non_finite_values_stay_in_their_run(self):
        rng = np.random.default_rng(12)
        batch, n, dim = 5, 10, 2
        clean = rng.standard_normal((batch, n, dim))
        broken = clean.copy()
        broken[2, 3, 0] = np.inf
        broken[2, 7, 1] = np.nan
        matrix = rng.random((n, n))
        per_run = rng.random((batch, n, n))
        u, d = _draw_inputs(rng, n, dim, (batch,))
        mu = np.full(n, 0.1)

        def mdlms(x):
            state = init_state(n, dim, (batch,))
            state.weights = x.copy()
            return mdlms_step(state, u, d, matrix, matrix, 1.5, mu)

        others = np.arange(batch) != 2
        for mix in (
            lambda x: inter_cluster_combine(x, matrix),
            lambda x: inter_cluster_combine(x, per_run),
            lambda x: intra_cluster_combine(x, matrix),
            mdlms,
        ):
            with np.errstate(invalid="ignore"):  # BLAS may form inf * 0 in the broken run
                got = mix(broken)
            assert np.array_equal(got[others], mix(clean)[others])
            assert np.isfinite(got[others]).all()
            assert not np.isfinite(got[2]).all()


class TestStepEquivalences:
    """The three families collapse onto one another in the degenerate cases."""

    def _topology(self):
        return ClusteredTopology.from_edges(
            4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 1)
        )

    def test_maic_with_identity_cooperation_is_atc_bitwise(self):
        top = self._topology()
        combine = metropolis_weights(top)
        mu = np.full(4, 0.1)
        rng = np.random.default_rng(5)
        state_a = init_state(4, 2, (6,))
        state_b = init_state(4, 2, (6,))
        for _ in range(25):
            u, d = _draw_inputs(rng, 4, 2, (6,))
            atc_step(state_a, u, d, combine, mu)
            maic_step(state_b, u, d, combine, np.eye(4), mu)
            assert np.array_equal(state_a.weights, state_b.weights)

    def test_mdlms_with_zero_strength_is_atc_bitwise(self):
        top = self._topology()
        combine = metropolis_weights(top)
        rho = averaging_rule_weights(top)
        mu = np.full(4, 0.1)
        rng = np.random.default_rng(6)
        state_a = init_state(4, 2, (6,))
        state_b = init_state(4, 2, (6,))
        for _ in range(25):
            u, d = _draw_inputs(rng, 4, 2, (6,))
            atc_step(state_a, u, d, combine, mu)
            mdlms_step(state_b, u, d, combine, rho, 0.0, mu)
            assert np.array_equal(state_a.weights, state_b.weights)

    def test_all_three_share_the_trajectory_on_one_stream(self):
        top = self._topology()
        combine = metropolis_weights(top)
        rho = averaging_rule_weights(top)
        mu = np.full(4, 3e-2)
        states = [init_state(4, 1) for _ in range(3)]
        rng = np.random.default_rng(7)
        for _ in range(40):
            u, d = _draw_inputs(rng, 4, 1)
            a = atc_step(states[0], u, d, combine, mu)
            b = maic_step(states[1], u, d, combine, np.eye(4), mu)
            c = mdlms_step(states[2], u, d, combine, rho, 0.0, mu)
            assert np.array_equal(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("runs", [1, 7, 250])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_strategy_stack_steps_like_each_strategy_alone(self, dim, runs):
        # (F, N, N) cooperation and combine stacks on shared inputs, bitwise as F
        # separate steps; one run of scalar tasks makes one-row products
        top = ClusteredTopology.from_edges(
            5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 3)), (0, 0, 0, 1, 1)
        )
        combine = metropolis_weights(top)
        rng = np.random.default_rng(60 + dim)
        coops = np.stack([np.eye(5)] + [random_cooperation(top, rng) for _ in range(2)])
        mu = np.array([0.05, 0.1, 0.08, 0.12, 0.07])
        stacked = init_state(5, dim, (3, runs))
        alone = [init_state(5, dim, (runs,)) for _ in coops]
        for _ in range(6):
            u, d = _draw_inputs(rng, 5, dim, (runs,))
            u = _m_major(u)
            maic_step(stacked, u, d, np.broadcast_to(combine, coops.shape), coops, mu)
            for state, coop in zip(alone, coops):
                maic_step(state, u, d, combine, coop, mu)
            assert np.array_equal(stacked.weights, np.stack([s.weights for s in alone]))
            assert np.swapaxes(stacked.weights, -1, -2).flags.c_contiguous


def _m_major(x):
    """A copy of ``x`` (..., N, M) laid out (..., M, N) in memory."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)


class TestMemoryOrder:
    """Iterates and draws are stored (..., M, N) in memory; a step must not
    depend on that, and must hand its iterates back in that order."""

    @pytest.mark.parametrize("rule", ["maic", "mdlms", "adaptive"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_steps_match_on_both_memory_orders(self, rule, batch, dim):
        top = ClusteredTopology.from_edges(
            5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 3)), (0, 0, 0, 1, 1)
        )
        combine = metropolis_weights(top)
        coop = random_cooperation(top, np.random.default_rng(dim))
        rho = averaging_rule_weights(top)
        mu = np.array([0.05, 0.1, 0.08, 0.12, 0.07])
        rng = np.random.default_rng(40 + dim)
        start = rng.standard_normal(batch + (5, dim))
        inputs = [_draw_inputs(rng, 5, dim, batch) for _ in range(4)]
        finals = []
        for layout in (np.ascontiguousarray, _m_major):
            state = init_state(5, dim, batch, adaptive=rule == "adaptive")
            state.weights = start
            for u, d in inputs:
                state.weights = layout(state.weights)
                if rule == "maic":
                    maic_step(state, layout(u), d, combine, coop, mu)
                elif rule == "mdlms":
                    mdlms_step(state, layout(u), d, combine, rho, 2.5, mu)
                else:
                    maic_adaptive_step(state, layout(u), d, combine, top, 0.7, mu)
                assert np.swapaxes(state.weights, -1, -2).flags.c_contiguous
            finals.append(state)
        c_order, m_major = finals
        assert np.array_equal(c_order.weights, m_major.weights)
        if rule == "adaptive":
            assert np.array_equal(c_order.learned_weights, m_major.learned_weights)
            assert np.array_equal(c_order.increment_power, m_major.increment_power)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_init_state_lays_the_iterates_out_m_major(self, adaptive):
        state = init_state(5, 3, (4,), adaptive=adaptive)
        assert state.weights.shape == (4, 5, 3)
        assert np.swapaxes(state.weights, -1, -2).flags.c_contiguous
        assert not state.weights.any()


class TestMaicStep:
    def test_matches_per_node_loops(self):
        top = ClusteredTopology.from_edges(4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 1))
        combine = metropolis_weights(top)
        coop = np.eye(4)
        coop[:, 1] = 0.0
        coop[1, 1] = 0.6
        coop[2, 1] = 0.4  # node 1 borrows from its inter-cluster neighbor 2
        mu = np.array([0.05, 0.1, 0.08, 0.12])
        rng = np.random.default_rng(8)
        state = init_state(4, 3)
        w = state.weights.copy()
        for _ in range(10):
            u, d = _draw_inputs(rng, 4, 3)
            maic_step(state, u, d, combine, coop, mu)
            w = loop_maic_step(w, u, d, combine, coop, mu)
            assert np.allclose(state.weights, w, atol=1e-13)

    def test_state_records_intermediate_stages(self):
        top = ClusteredTopology.from_edges(4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 1))
        combine = metropolis_weights(top)
        coop = random_cooperation(top, np.random.default_rng(9))
        mu = np.full(4, 0.1)
        state = init_state(4, 2)
        u, d = _draw_inputs(np.random.default_rng(9), 4, 2)
        new = maic_step(state, u, d, combine, coop, mu)
        staged = intra_cluster_combine(
            inter_cluster_combine(adapt(np.zeros((4, 2)), u, d, mu), coop), combine
        )
        assert np.array_equal(new, staged)
        assert np.array_equal(state.weights, staged)


class TestMdlmsStep:
    def test_pull_matches_loop_formula(self):
        top = ClusteredTopology.from_edges(4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 1))
        combine = metropolis_weights(top)
        rho = averaging_rule_weights(top)
        mu = np.full(4, 0.1)
        eta = 2.5
        rng = np.random.default_rng(10)
        state = init_state(4, 2)
        for _ in range(5):
            w_before = state.weights.copy()
            u, d = _draw_inputs(rng, 4, 2)
            mdlms_step(state, u, d, combine, rho, eta, mu)
            psi = adapt(w_before, u, d, mu)
            psi = psi + mu[:, None] * eta * loop_mdlms_pull(w_before, rho)
            expected = intra_cluster_combine(psi, combine)
            assert np.allclose(state.weights, expected, atol=1e-13)


class TestAdaptiveStep:
    def _setup(self):
        top = ClusteredTopology.from_edges(
            5, ((0, 1), (1, 2), (2, 3), (3, 4)), (0, 0, 0, 1, 1)
        )
        return top, metropolis_weights(top)

    def test_learned_columns_are_stochastic_on_the_support(self):
        top, combine = self._setup()
        mu = np.full(5, 0.1)
        state = init_state(5, 2, (3,), adaptive=True)
        rng = np.random.default_rng(11)
        mask = top.inter_plus
        for _ in range(6):
            u, d = _draw_inputs(rng, 5, 2, (3,))
            maic_adaptive_step(state, u, d, combine, top, 0.7, mu)
            learned = state.learned_weights
            assert np.all(learned[..., ~mask] == 0.0)
            assert np.allclose(learned.sum(axis=-2), 1.0, atol=1e-9)
            assert learned.min() >= -1e-12

    def test_isolated_nodes_keep_the_self_column(self):
        top, combine = self._setup()
        mu = np.full(5, 0.1)
        state = init_state(5, 2, adaptive=True)
        rng = np.random.default_rng(12)
        for _ in range(4):
            u, d = _draw_inputs(rng, 5, 2)
            maic_adaptive_step(state, u, d, combine, top, 0.7, mu)
        # nodes 0, 1, and 4 have no inter-cluster neighbor
        for k in (0, 1, 4):
            column = state.learned_weights[:, k]
            expected = np.zeros(5)
            expected[k] = 1.0
            assert np.array_equal(column, expected)

    def test_increment_power_is_smoothed_on_the_support(self):
        top, combine = self._setup()
        mu = np.full(5, 0.1)
        alpha = 0.7
        state = init_state(5, 1, adaptive=True)
        u, d = _draw_inputs(np.random.default_rng(13), 5, 1)
        w_before = state.weights.copy()
        maic_adaptive_step(state, u, d, combine, top, alpha, mu)
        psi = adapt(w_before, u, d, mu)
        power = state.increment_power
        # nodes 2 and 3 border each other; every other link is intra-cluster
        assert np.count_nonzero(top.adjacency & ~top.intra) == 2
        for k in range(5):
            for l in range(5):
                if top.inter_plus[l, k]:
                    expected = (1 - alpha) * float(
                        np.sum((psi[l] - w_before[k]) ** 2)
                    )
                    assert expected > 0.0
                    assert np.isclose(power[l, k], expected, atol=1e-12)
                else:
                    assert power[l, k] == 0.0
        # the local programs never read intra-only pairs, so they are not tracked
        intra_only = top.intra & ~top.inter_plus
        assert intra_only.sum() == 6 and not power[intra_only].any()

    def test_increment_power_does_not_cancel(self, two_cluster_line):
        # iterates near 1e3 that move by 1e-3: a squared-norm expansion
        # would lose every digit of the increment to cancellation
        rng = np.random.default_rng(17)
        w = 1e3 * rng.standard_normal(2) + 1e-3 * rng.standard_normal((3, 4, 2))
        psi = w + 1e-3 * rng.standard_normal((3, 4, 2))
        state = init_state(4, 2, (3,), adaptive=True)
        state.weights = w
        _solve_learned_columns(state, psi, two_cluster_line, 0.0)
        senders, receivers = np.nonzero(two_cluster_line.inter_plus)
        for b in range(3):
            for l, k in zip(senders, receivers):
                exact = sum((Fraction(psi[b, l, m]) - Fraction(w[b, k, m])) ** 2 for m in range(2))
                got = Fraction(state.increment_power[b, l, k])
                assert abs(got - exact) <= Fraction(1e-12) * exact

    def test_fallback_counter_stays_zero_on_healthy_inputs(self):
        top, combine = self._setup()
        mu = np.full(5, 0.1)
        state = init_state(5, 2, (2,), adaptive=True)
        rng = np.random.default_rng(14)
        for _ in range(5):
            u, d = _draw_inputs(rng, 5, 2, (2,))
            maic_adaptive_step(state, u, d, combine, top, 0.7, mu)
        assert state.fallback_count == 0


class TestGroupedColumns:
    """One solver call per support size against the one-call-per-node loop."""

    @staticmethod
    def _topology():
        # inter_plus sizes: node 0 -> 1; nodes 3, 5, 7 -> 2; nodes 2, 4, 6 -> 3; node 1 -> 4
        return ClusteredTopology.from_edges(
            8,
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 4), (1, 6), (2, 7)),
            (0, 0, 1, 1, 2, 2, 3, 3),
        )

    @staticmethod
    def _failing_solver(quad, lin):
        """Fails the instances picked by their own data, so the grouped and
        the per-node call see the same failures; failed weights are NaN."""
        weights, ok = solve_simplex_qp_batch(quad, lin)
        failed = lin[:, 0] > lin[:, -1]
        weights[failed] = np.nan
        return weights, ok & ~failed

    def _compare(self, monkeypatch, batch, qp_solver, steps=4):
        monkeypatch.setattr(weight_opt, "solve_simplex_qp_batch", qp_solver)
        top = self._topology()
        assert [s.shape[1] for _, s in top.inter_plus_groups] == [1, 2, 3, 4]
        rng = np.random.default_rng(31)
        grouped = init_state(8, 3, batch, adaptive=True)
        looped = init_state(8, 3, batch, adaptive=True)
        for _ in range(steps):
            weights = rng.standard_normal(batch + (8, 3))
            psi = rng.standard_normal(batch + (8, 3))
            grouped.weights = weights
            looped.weights = weights.copy()
            learned = _solve_learned_columns(grouped, psi, top, 0.7)
            expected = solve_learned_columns_loop(looped, psi, top, 0.7, qp_solver)
            assert np.array_equal(learned, expected)
            assert np.array_equal(grouped.increment_power, looped.increment_power)
            assert grouped.fallback_count == looped.fallback_count
        return top, weights, learned, grouped

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_the_per_node_loop(self, monkeypatch, batch):
        _, _, _, state = self._compare(monkeypatch, batch, solve_simplex_qp_batch)
        assert state.fallback_count == 0

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_failed_instances_keep_the_own_node(self, monkeypatch, batch):
        top, weights, learned, state = self._compare(
            monkeypatch, batch, self._failing_solver, steps=1
        )
        flat_w = weights.reshape(-1, 8, 3)
        learned = learned.reshape(-1, 8, 8)
        failures = 0
        for k, support in enumerate(top.inter_plus.T):
            if support.sum() == 1:
                continue
            lin = row_dot(flat_w[:, support], flat_w[:, k, None])
            failed = lin[:, 0] > lin[:, -1]
            own = np.zeros(8)
            own[k] = 1.0
            assert all(np.array_equal(column, own) for column in learned[failed, :, k])
            assert not np.isnan(learned[:, :, k]).any()
            failures += int(failed.sum())
        assert state.fallback_count == failures > 0
