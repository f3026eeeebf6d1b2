"""Per-iteration strategy updates and their reductions to one another."""

from __future__ import annotations

import numpy as np
import pytest

from maicnet.strategies import (
    _solve_learned_columns,
    adapt,
    atc_step,
    init_state,
    inter_cluster_combine,
    intra_cluster_combine,
    maic_adaptive_step,
    maic_step,
    mdlms_step,
)
from maicnet.topology import (
    ClusteredTopology,
    averaging_rule_weights,
    metropolis_weights,
)
from maicnet.weight_opt import solve_simplex_qp_batch
from oracles import loop_maic_step, loop_mdlms_pull, solve_learned_columns_loop


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
        coop = np.eye(4)
        mu = np.full(4, 0.1)
        state = init_state(4, 2)
        u, d = _draw_inputs(np.random.default_rng(9), 4, 2)
        maic_step(state, u, d, combine, coop, mu)
        assert np.array_equal(state.adapted, adapt(np.zeros((4, 2)), u, d, mu))
        assert np.array_equal(state.cooperated, state.adapted)  # identity cooperation
        assert np.array_equal(state.weights, intra_cluster_combine(state.cooperated, combine))


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
        mask = top.inter_plus_mask()
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

    def test_increment_power_is_smoothed_on_the_adjacency(self):
        top, combine = self._setup()
        mu = np.full(5, 0.1)
        alpha = 0.7
        state = init_state(5, 1, adaptive=True)
        u, d = _draw_inputs(np.random.default_rng(13), 5, 1)
        w_before = state.weights.copy()
        maic_adaptive_step(state, u, d, combine, top, alpha, mu)
        psi = adapt(w_before, u, d, mu)
        power = state.increment_power
        for k in range(5):
            for l in range(5):
                if top.adjacency[l, k]:
                    expected = (1 - alpha) * float(
                        np.sum((psi[l] - w_before[k]) ** 2)
                    )
                    assert np.isclose(power[l, k], expected, atol=1e-12)
                else:
                    assert power[l, k] == 0.0

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

    def _compare(self, batch, qp_solver, steps=4):
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
            learned = _solve_learned_columns(grouped, psi, top, 0.7, qp_solver)
            expected = solve_learned_columns_loop(looped, psi, top, 0.7, qp_solver)
            assert np.array_equal(learned, expected)
            assert np.array_equal(grouped.increment_power, looped.increment_power)
            assert grouped.fallback_count == looped.fallback_count
        return top, weights, learned, grouped

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_the_per_node_loop(self, batch):
        _, _, _, state = self._compare(batch, solve_simplex_qp_batch)
        assert state.fallback_count == 0

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_failed_instances_keep_the_own_node(self, batch):
        top, weights, learned, state = self._compare(batch, self._failing_solver, steps=1)
        flat_w = weights.reshape(-1, 8, 3)
        learned = learned.reshape(-1, 8, 8)
        failures = 0
        for k, support in enumerate(top.inter_plus):
            if len(support) == 1:
                continue
            lin = np.einsum("bim,bm->bi", flat_w[:, list(support)], flat_w[:, k])
            failed = lin[:, 0] > lin[:, -1]
            own = np.zeros(8)
            own[k] = 1.0
            assert all(np.array_equal(column, own) for column in learned[failed, :, k])
            assert not np.isnan(learned[:, :, k]).any()
            failures += int(failed.sum())
        assert state.fallback_count == failures > 0
