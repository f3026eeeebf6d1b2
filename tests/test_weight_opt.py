"""Simplex projection and the cooperation-weight programs.

The solvers are checked against exhaustive grids, finite differences,
and the uncompressed stacked objective, never against themselves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maicnet.signal_model import SignalModel
from maicnet.topology import ClusteredTopology
from maicnet.weight_opt import (
    EPS_RIDGE,
    MAX_FACE_SUPPORT,
    block_trace,
    build_centralized_qp,
    kkt_residual,
    project_simplex,
    solve_local_columns,
    solve_p1,
    solve_p2_all_nodes,
    solve_simplex_qp_batch,
)
from oracles import (
    centralized_objective_expanded,
    grid_min_quadratic,
    grid_nearest_simplex_point,
    local_program,
    project_columns_loop,
    solve_simplex_qp_batch_loop,
)

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=6),
    elements=st.floats(min_value=-20.0, max_value=20.0),
)


# A few exact values make ties and all-negative rows common; the wide
# range checks that off-support entries never enter, whatever their value.
tie_prone_floats = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1e6, max_value=1e6),
)


@st.composite
def masked_rows(draw):
    """Rows of values with a ragged support mask, every row nonempty."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    values = draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=tie_prone_floats))
    mask = draw(hnp.arrays(np.bool_, (n_rows, n_cols)))
    keep = draw(st.lists(st.integers(0, n_cols - 1), min_size=n_rows, max_size=n_rows))
    mask[np.arange(n_rows), keep] = True
    return values, mask


# Small exact values make rank-deficient quadratics and exact ties common.
qp_entries = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def qp_batches(draw):
    """Small simplex QP batches with tied faces, singular and non-finite
    instances; the ridge is either the default or zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=4))
    roots = draw(hnp.arrays(np.float64, (batch, n, n), elements=qp_entries))
    quad = roots @ roots.transpose(0, 2, 1)
    lin = draw(hnp.arrays(np.float64, (batch, n), elements=qp_entries))
    if n >= 2 and draw(st.booleans()):  # coordinate 1 duplicates coordinate 0
        quad[:, 1, :] = quad[:, 0, :]
        quad[:, :, 1] = quad[:, :, 0]
        lin[:, 1] = lin[:, 0]
    index = st.integers(min_value=0, max_value=n - 1)
    nonfinite = st.sampled_from([np.inf, -np.inf, np.nan])
    instance = st.integers(min_value=0, max_value=batch - 1)
    for b, i, j, value in draw(st.lists(st.tuples(instance, index, index, nonfinite), max_size=2)):
        quad[b, i, j] = quad[b, j, i] = value
    for b, i, value in draw(st.lists(st.tuples(instance, index, nonfinite), max_size=2)):
        lin[b, i] = value
    ridge = draw(st.sampled_from([EPS_RIDGE, 0.0]))
    return quad, lin, ridge


def random_qp(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    root = rng.standard_normal((n, n))
    return root @ root.T + 0.05 * np.eye(n), rng.standard_normal(n)


def objective(quad: np.ndarray, lin: np.ndarray, q: np.ndarray) -> float:
    return float(q @ quad @ q - 2.0 * lin @ q)


def star(leaves: int) -> ClusteredTopology:
    """A hub in cluster 0 bordering every leaf; the leaves form a chain in cluster 1."""
    edges = [(0, j) for j in range(1, leaves + 1)] + [(j, j + 1) for j in range(1, leaves)]
    return ClusteredTopology.from_edges(leaves + 1, edges, (0,) + (1,) * leaves)


def star_model(topology: ClusteredTopology) -> SignalModel:
    n = topology.n_nodes
    return SignalModel.from_profiles(
        topology,
        dim=1,
        reg_power=np.linspace(0.8, 1.3, n),
        noise_var=np.linspace(0.01, 0.03, n),
        step_size=0.1,
        cluster_means=((1.0,), (1.4,)),
        sigma_w=(1.0, 0.8),
        spread_scale=0.05**2,
        gamma=((1.0, 0.6), (0.6, 1.0)),
    )


class TestProjection:
    def test_frozen_examples(self):
        assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(project_simplex(np.array([0.3, 0.3])), [0.5, 0.5])
        assert np.allclose(
            project_simplex(np.array([1.0, 0.5, -0.5])), [0.75, 0.25, 0.0]
        )

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            project_simplex(np.array([]))

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_output_lies_on_simplex(self, v):
        q = project_simplex(v)
        assert q.min() >= -1e-12
        assert np.isclose(q.sum(), 1.0, atol=1e-9)

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_projection_is_idempotent(self, v):
        q = project_simplex(v)
        assert np.allclose(project_simplex(q), q, atol=1e-9)

    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_no_simplex_point_is_closer(self, v):
        # optimality via random feasible competitors
        q = project_simplex(v)
        rng = np.random.default_rng(abs(hash(v.tobytes())) % (2**32))
        others = rng.dirichlet(np.ones(v.size), size=32)
        own = np.sum((q - v) ** 2)
        competitor = np.min(np.sum((others - v) ** 2, axis=1))
        assert own <= competitor + 1e-9

    @given(masked_rows())
    @example(  # ties on and off the support
        (np.array([[0.5, 0.5, 0.5, 0.5], [1.0, 1.0, -2.0, 1.0]]),
         np.array([[True, True, False, True], [True, False, True, True]]))
    )
    @example(  # single-entry supports
        (np.array([[-3.0, 7.0, 0.2], [4.0, -1.0, 0.0]]),
         np.array([[True, False, False], [False, False, True]]))
    )
    @example(  # all-negative rows
        (np.array([[-1.0, -2.0, -0.5], [-5.0, -5.0, -5.0]]),
         np.array([[True, True, True], [True, True, False]]))
    )
    @settings(max_examples=200, deadline=None)
    def test_masked_rows_match_the_column_loop(self, case):
        values, mask = case
        rows = project_simplex(values, mask)
        assert np.array_equal(rows, project_columns_loop(values.T, mask.T).T)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="nonempty support"):
            project_simplex(np.ones((2, 3)), np.array([[True, False, False], [False] * 3]))

    def test_matches_grid_at_coarse_resolution(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal(3) * 1.5
            q = project_simplex(x)
            _, grid_val = grid_nearest_simplex_point(x, resolution=1e-2)
            own = float(np.sum((q - x) ** 2))
            assert own <= grid_val + 1e-12
            assert grid_val - own <= 1e-3


class TestSolver:
    def test_singleton_support_fast_path(self, two_cluster_line):
        # nodes 0 and 3 have no inter-cluster neighbor: weight 1 whatever the data
        roots = np.random.default_rng(3).standard_normal((2, 4, 4))
        gram = roots @ roots.transpose(0, 2, 1)
        columns, ok = solve_local_columns(two_cluster_line, gram, np.ones((2, 4, 4)))
        assert ok.all()
        for k in (0, 3):
            assert np.array_equal(columns[:, :, k], np.tile(np.eye(4)[k], (2, 1)))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_exhaustive_grid(self, n, seed):
        quad, lin = random_qp(np.random.default_rng(seed), n)
        weights, ok = solve_simplex_qp_batch(quad[None], lin[None])
        solved = objective(quad, lin, weights[0])
        _, grid_val = grid_min_quadratic(quad, lin, resolution=1e-3)
        assert ok.all()
        assert solved <= grid_val + 1e-9
        assert grid_val - solved <= 2e-3

    def test_certificate_flags_the_optimum(self):
        quad, lin = random_qp(np.random.default_rng(9), 4)
        weights, _ = solve_simplex_qp_batch(quad[None], lin[None])
        q = weights[0]
        assert kkt_residual(q, 2.0 * (quad @ q - lin)) <= 1e-10
        corner = np.zeros(4)
        corner[0] = 1.0
        if not np.allclose(corner, q):
            assert kkt_residual(corner, 2.0 * (quad @ corner - lin)) > 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batch_minimizers_satisfy_kkt(self, n):
        # the KKT conditions are sufficient for a convex QP
        rng = np.random.default_rng(100 + n)
        batch = 16
        roots = rng.standard_normal((batch, n, n))
        quads = roots @ roots.transpose(0, 2, 1) + 0.05 * np.eye(n)
        lins = rng.standard_normal((batch, n))
        best, ok = solve_simplex_qp_batch(quads, lins)
        assert ok.all()
        for quad, lin, q in zip(quads, lins, best):
            assert kkt_residual(q, 2.0 * (quad @ q - lin)) <= 1e-9

    @given(qp_batches())
    @example(  # duplicated coordinates: every face containing both ties
        (np.array([[[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 3.0]]]),
         np.array([[1.0, 1.0, 0.5]]), EPS_RIDGE)
    )
    @example(  # zero quadratic without ridge: every pair face is singular
        (np.zeros((2, 3, 3)), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), 0.0)
    )
    @example(  # what a diverged run feeds the solver
        (np.array([[[np.inf, np.nan], [np.nan, 1.0]], [[np.inf, np.inf], [np.inf, np.inf]]]),
         np.array([[np.nan, 1.0], [-np.inf, np.inf]]), EPS_RIDGE)
    )
    @example(  # faces {1} and {0, 1} one ulp apart; a strided quadratic broke the tie
        (np.array([[[6.0625, 5.0625], [5.0625, 5.0625]], np.zeros((2, 2))]),
         np.ones((2, 2)), EPS_RIDGE)
    )
    @example(  # faces {0, 1, 2} and {0, 2} near-tied; a C-ordered linear term broke it
        (np.pad(np.ones((1, 2, 2)), ((0, 1), (0, 2), (0, 2))), np.full((2, 4), 249.0), EPS_RIDGE)
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_the_face_by_face_oracle(self, case):
        quad, lin, ridge = case
        with np.errstate(all="ignore"):
            weights, ok = solve_simplex_qp_batch(quad, lin, ridge)
            expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin, ridge)
        assert np.array_equal(weights, expected_weights)
        assert np.array_equal(ok, expected_ok)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_batches_match_the_face_by_face_oracle(self, n):
        # batches the size of a simulation chunk times a support-size group
        rng = np.random.default_rng(200 + n)
        roots = rng.standard_normal((2000, n, n))
        quad = roots @ roots.transpose(0, 2, 1)
        lin = rng.standard_normal((2000, n))
        weights, ok = solve_simplex_qp_batch(quad, lin)
        expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin)
        assert np.array_equal(weights, expected_weights)
        assert np.array_equal(ok, expected_ok)

    def test_singular_faces_are_solved_one_instance_at_a_time(self):
        # instance 1's pair face is exactly singular, so the stacked solve
        # raises and every instance is solved on its own
        quad = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        lin = np.array([[1.0, 0.8], [0.5, 0.5]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(quad, np.ones((2, 2, 2)))
        weights, ok = solve_simplex_qp_batch(quad, lin, ridge=0.0)
        expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin, ridge=0.0)
        assert np.array_equal(weights, expected_weights)
        assert np.array_equal(ok, expected_ok)
        assert ok.all()
        assert weights[1].tolist() == [1.0, 0.0]
        assert weights[0].min() > 0.0

    def test_batch_output_is_feasible(self):
        rng = np.random.default_rng(42)
        quads = np.empty((32, 4, 4))
        for b in range(32):
            root = rng.standard_normal((4, 4))
            quads[b] = root @ root.T + 1e-6 * np.eye(4)
        lins = rng.standard_normal((32, 4))
        best, _ = solve_simplex_qp_batch(quads, lins)
        assert best.min() >= 0.0
        assert np.allclose(best.sum(axis=1), 1.0, atol=1e-12)


class TestBlockTrace:
    def test_frozen_example(self):
        matrix = np.arange(16.0).reshape(4, 4)
        compressed = block_trace(matrix, 2)
        expected = np.array([[0 + 5, 2 + 7], [8 + 13, 10 + 15]])
        assert np.array_equal(compressed, expected)

    def test_dim_one_is_identity(self):
        matrix = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(block_trace(matrix, 1), matrix)


class TestLocalProgram:
    def test_quadratic_assembled_from_moments(self, two_cluster_line, line_model):
        support, quad, lin = local_program(1, line_model, two_cluster_line)
        idx = list(support)
        assert sorted(idx) == [1, 2]
        second = line_model.parameter_second_moment
        # mu^2 sigma_v^2 tr(R_u) per node, only nodes 1 and 2 can appear
        noise = {1: 0.1**2 * 0.015 * 1.3, 2: 0.1**2 * 0.025 * 0.8}
        expected_quad = np.array(
            [
                [noise[a] * (a == b) + second[a, b] for b in idx]
                for a in idx
            ]
        )
        assert np.allclose(quad, expected_quad, atol=1e-15)
        assert np.allclose(lin, second[idx, 1], atol=1e-15)

    def test_p2_columns_live_on_the_support(self, two_cluster_line, line_model):
        coop, solutions = solve_p2_all_nodes(line_model, two_cluster_line)
        assert all(sol.certified and sol.iterations == 0 for sol in solutions)
        mask = two_cluster_line.inter_plus_mask()
        assert np.all(coop[~mask] == 0.0)
        assert np.allclose(coop.sum(axis=0), 1.0, atol=1e-9)
        assert coop.min() >= -1e-12

    def test_p2_matches_grid_on_every_node(self, two_cluster_line, line_model):
        coop, solutions = solve_p2_all_nodes(line_model, two_cluster_line)
        for k, sol in enumerate(solutions):
            support, quad, lin = local_program(k, line_model, two_cluster_line)
            assert np.array_equal(sol.weights, coop[list(support), k])
            assert np.isclose(sol.objective, objective(quad, lin, sol.weights), rtol=1e-12)
            _, grid_val = grid_min_quadratic(quad, lin, resolution=1e-3)
            assert sol.objective <= grid_val + 1e-12
            assert grid_val - sol.objective <= 2e-3

    def test_supports_above_the_cap_are_refused(self):
        topology = star(MAX_FACE_SUPPORT)
        gram = np.ones((1, MAX_FACE_SUPPORT + 1, MAX_FACE_SUPPORT + 1))
        with pytest.raises(ValueError, match=f"node 0 has {MAX_FACE_SUPPORT + 1} nodes"):
            solve_local_columns(topology, gram, gram)

    def test_p2_above_the_cap_falls_back_to_masked_gradient(self):
        # the hub's support has 12 nodes; its program is ill-conditioned, so
        # the fallback is checked on objective value, not on weights
        topology = star(11)
        model = star_model(topology)
        coop, solutions = solve_p2_all_nodes(model, topology)
        assert len(solutions) == 1 and solutions[0].certified
        for k in range(topology.n_nodes):
            support, quad, lin = local_program(k, model, topology)
            face_by_face, ok = solve_simplex_qp_batch_loop(quad[None], lin[None])
            assert ok.all()
            best = objective(quad, lin, face_by_face[0])
            solved = objective(quad, lin, coop[list(support), k])
            assert abs(solved - best) <= 1e-9 * max(1.0, abs(best))


class TestCentralizedProgram:
    def test_reduced_objective_equals_expanded(self, two_cluster_line):
        model = _dim2_model(two_cluster_line)
        combine = _metropolis(two_cluster_line)
        qp = build_centralized_qp(model, two_cluster_line, combine)
        rng = np.random.default_rng(5)
        for _ in range(8):
            coop = _random_feasible(two_cluster_line, rng)
            reduced = qp.objective(coop)
            expanded = centralized_objective_expanded(coop, combine, model)
            assert np.isclose(reduced, expanded, rtol=1e-10, atol=1e-12)

    def test_gradient_matches_finite_differences(self, two_cluster_line):
        model = _dim2_model(two_cluster_line)
        combine = _metropolis(two_cluster_line)
        qp = build_centralized_qp(model, two_cluster_line, combine)
        rng = np.random.default_rng(8)
        coop = _random_feasible(two_cluster_line, rng)
        grad = qp.gradient(coop)
        eps = 1e-6
        for l, k in [(0, 0), (1, 2), (2, 1), (3, 3)]:
            bump = np.zeros_like(coop)
            bump[l, k] = eps
            numeric = (qp.objective(coop + bump) - qp.objective(coop - bump)) / (2 * eps)
            assert np.isclose(grad[l, k], numeric, rtol=1e-4, atol=1e-8)

    def test_p1_certificate_and_feasibility(self, two_cluster_line):
        model = _dim2_model(two_cluster_line)
        combine = _metropolis(two_cluster_line)
        coop, solution = solve_p1(model, two_cluster_line, combine)
        assert solution.certified
        assert solution.kkt_residual <= 1e-8
        mask = two_cluster_line.inter_plus_mask()
        assert np.all(coop[~mask] == 0.0)
        assert np.allclose(coop.sum(axis=0), 1.0, atol=1e-9)

    def test_p1_beats_identity_and_random_points(self, two_cluster_line):
        model = _dim2_model(two_cluster_line)
        combine = _metropolis(two_cluster_line)
        qp = build_centralized_qp(model, two_cluster_line, combine)
        coop, solution = solve_p1(model, two_cluster_line, combine)
        assert solution.objective <= qp.objective(np.eye(4)) + 1e-12
        rng = np.random.default_rng(21)
        for _ in range(10):
            other = _random_feasible(two_cluster_line, rng)
            assert solution.objective <= qp.objective(other) + 1e-9

    def test_p1_with_identity_combine_decouples_to_p2(self, two_cluster_line):
        model = _dim2_model(two_cluster_line)
        coop_p1, _ = solve_p1(
            model, two_cluster_line, np.eye(4), tol=1e-11, max_iters=200_000
        )
        coop_p2, _ = solve_p2_all_nodes(model, two_cluster_line)
        assert np.allclose(coop_p1, coop_p2, atol=1e-5)

    def test_p1_matches_the_column_loop_on_preset_a(self, monkeypatch):
        from maicnet import harness, presets, weight_opt

        compiled = harness.compile_scenario(presets.get_scenario("a", strategies=("atc",)))
        args = (compiled.models[0], compiled.topology, compiled.combine)
        coop, solution = solve_p1(*args)
        monkeypatch.setattr(
            weight_opt,
            "project_simplex",
            lambda rows, mask: project_columns_loop(rows.T, mask.T).T,
        )
        coop_loop, solution_loop = solve_p1(*args)
        assert solution.iterations == solution_loop.iterations
        assert np.array_equal(coop, coop_loop)


def _metropolis(topology):
    from maicnet.topology import metropolis_weights

    return metropolis_weights(topology)


def _random_feasible(topology, rng):
    from oracles import random_cooperation

    return random_cooperation(topology, rng)


def _dim2_model(topology):
    from maicnet.signal_model import SignalModel

    return SignalModel.from_profiles(
        topology,
        dim=2,
        reg_power=(1.0, 1.3, 0.8, 1.1),
        noise_var=(0.02, 0.015, 0.025, 0.01),
        step_size=0.1,
        cluster_means=((1.0, 0.5), (1.4, 0.9)),
        sigma_w=(1.0, 0.8),
        spread_scale=0.05**2,
        gamma=((1.0, 0.6), (0.6, 1.0)),
    )
