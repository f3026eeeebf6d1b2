"""The cooperation-weight programs, and the simplex projection of their
projected-gradient reference.

The solvers are checked against exhaustive grids, face enumeration,
accelerated projected gradient, finite differences, and the uncompressed
stacked objective, never against themselves.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from maicnet import weight_opt
from maicnet.signal_model import SignalModel, block_trace
from maicnet.strategies import init_state, maic_adaptive_step
from maicnet.topology import ClusteredTopology
from maicnet.weight_opt import (
    EPS_RIDGE,
    build_centralized_qp,
    kkt_residual,
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
    project_simplex,
    solve_p1_fista,
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
def qp_batches(draw, sizes=st.integers(min_value=1, max_value=4)):
    """Small simplex QP batches with tied faces, singular and non-finite
    instances; the ridge is either the default or zero."""
    n = draw(sizes)
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


def pinned_qp_cases(test):
    """Pin the batches that once broke a solver as hypothesis examples."""
    cases = [
        # duplicated coordinates: every face containing both ties
        (np.array([[[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 3.0]]]),
         np.array([[1.0, 1.0, 0.5]]), EPS_RIDGE),
        # zero quadratic without ridge: every pair face is singular
        (np.zeros((2, 3, 3)), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), 0.0),
        # what a diverged run feeds the solver
        (np.array([[[np.inf, np.nan], [np.nan, 1.0]], [[np.inf, np.inf], [np.inf, np.inf]]]),
         np.array([[np.nan, 1.0], [-np.inf, np.inf]]), EPS_RIDGE),
        # faces {1} and {0, 1} one ulp apart; a strided quadratic broke the tie
        (np.array([[[6.0625, 5.0625], [5.0625, 5.0625]], np.zeros((2, 2))]),
         np.ones((2, 2)), EPS_RIDGE),
        # faces {0, 1, 2} and {0, 2} near-tied; a C-ordered linear term broke it
        (np.pad(np.ones((1, 2, 2)), ((0, 1), (0, 2), (0, 2))), np.full((2, 4), 249.0), EPS_RIDGE),
    ]
    for case in reversed(cases):
        test = example(case)(test)
    return test


def solve_by_active_set(quad, lin, ridge=EPS_RIDGE):
    """``solve_simplex_qp_batch`` with the closed forms for 2 and 3
    coordinates switched off, so every size runs the active-set method;
    from 4 coordinates on this is the production path."""
    with mock.patch.dict(weight_opt._CLOSED_FORMS, clear=True):
        return solve_simplex_qp_batch(quad, lin, ridge)


def assert_no_worse_than_the_oracle(
    quad, lin, ridge, weights, ok, expected_weights, expected_ok, support_scale=True
):
    """Every instance solved is feasible and, on the data's scale, no worse
    than face enumeration; strictly convex ones have the same minimizer.

    The closed forms round relative to the data on the two points'
    supports; the active set stops on multipliers relative to the whole
    instance (``support_scale=False``).
    """
    ridged = quad + ridge * np.eye(lin.shape[1])
    for b in np.flatnonzero(ok):
        q, expected = weights[b], expected_weights[b]
        assert expected_ok[b]
        assert q.min() >= 0.0 and abs(q.sum() - 1.0) <= 1e-12
        s = np.flatnonzero((q != 0) | (expected != 0) | (not support_scale))
        scale = np.abs(ridged[b][np.ix_(s, s)]).max() + 2.0 * np.abs(lin[b, s]).max()
        assert objective_on_support(ridged[b], lin[b], q) <= (
            objective_on_support(ridged[b], lin[b], expected) + 1e-12 * scale
        )
        if np.isfinite(ridged[b]).all():
            eig = np.linalg.eigvalsh(ridged[b])
            # strictly convex on the data's scale: one minimizer, well posed
            if eig[0] > 1e-6 * (eig[-1] + np.abs(lin[b]).max()):
                assert np.allclose(q, expected)


def random_qp(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    root = rng.standard_normal((n, n))
    return root @ root.T + 0.05 * np.eye(n), rng.standard_normal(n)


def objective(quad: np.ndarray, lin: np.ndarray, q: np.ndarray) -> float:
    return float(q @ quad @ q - 2.0 * lin @ q)


def objective_on_support(quad: np.ndarray, lin: np.ndarray, q: np.ndarray) -> float:
    """The objective summed over the support of q only, so entries where q
    is zero never enter, infinite or not."""
    s = np.flatnonzero(q)
    return objective(quad[np.ix_(s, s)], lin[s], q[s])


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

    @given(qp_batches(sizes=st.integers(min_value=4, max_value=8)))
    @pinned_qp_cases
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_the_face_by_face_oracle(self, case):
        quad, lin, ridge = case
        with np.errstate(all="ignore"):
            weights, ok = solve_by_active_set(quad, lin, ridge)
            expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin, ridge)
        # every instance with finite data is solved, whatever its rank or ties
        finite = np.isfinite(quad).all(axis=(1, 2)) & np.isfinite(lin).all(axis=1)
        assert np.array_equal(ok, finite)
        assert_no_worse_than_the_oracle(
            quad, lin, ridge, weights, ok, expected_weights, expected_ok, support_scale=False
        )

    @given(qp_batches(sizes=st.sampled_from([2, 3])))
    @pinned_qp_cases
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_face_by_face_oracle_on_objective(self, case):
        quad, lin, ridge = case
        with np.errstate(all="ignore"):
            weights, ok = solve_simplex_qp_batch(quad, lin, ridge)
            expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin, ridge)
        assert np.array_equal(ok, expected_ok)
        assert_no_worse_than_the_oracle(quad, lin, ridge, weights, ok, expected_weights, expected_ok)

    def test_closed_form_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            # Gaussian instances, then singular ones with tied and flat faces
            roots = rng.standard_normal((2000, n, n))
            roots[1000:] = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], (1000, n, n))
            quad = roots @ roots.transpose(0, 2, 1)
            lin = rng.standard_normal((2000, n))
            lin[1000:] = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], (1000, n))
            weights, ok = solve_simplex_qp_batch(quad, lin)
            assert ok.all()
            for b in range(2000):
                alone, alone_ok = solve_simplex_qp_batch(quad[b : b + 1], lin[b : b + 1])
                assert np.array_equal(alone[0], weights[b]) and alone_ok[0]

    def test_active_set_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(8)
        for n in range(4, 9):
            # Gaussian instances, then singular ones with tied and flat faces
            roots = rng.standard_normal((200, n, n))
            roots[100:] = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], (100, n, n))
            quad = roots @ roots.transpose(0, 2, 1)
            lin = rng.standard_normal((200, n))
            lin[100:] = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], (100, n))
            weights, ok = solve_simplex_qp_batch(quad, lin)
            assert ok.all()
            for b in range(200):
                alone, alone_ok = solve_simplex_qp_batch(quad[b : b + 1], lin[b : b + 1])
                assert np.array_equal(alone[0], weights[b]) and alone_ok[0]

    @pytest.mark.parametrize("n, calls", [(2, 0), (3, 0), (4, 3)])
    def test_two_and_three_nodes_never_solve_a_linear_system(self, monkeypatch, n, calls):
        # the active set makes one stacked solve per iteration: the best
        # vertex, then one more for each weight that enters (two here)
        counted = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: counted.append(1) or solve(*args))
        quad = np.diag(np.arange(1.0, n + 1))
        lin = np.ones(n)
        lin[-1] = -5.0
        weights, ok = solve_simplex_qp_batch(np.tile(quad, (8, 1, 1)), np.tile(lin, (8, 1)))
        assert ok.all()
        assert np.allclose(weights[:, :3].sum(axis=1), 1.0)
        assert len(counted) == calls

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_batches_match_the_face_by_face_oracle(self, n):
        # batches the size of a simulation chunk times a support-size group
        rng = np.random.default_rng(200 + n)
        roots = rng.standard_normal((2000, n, n))
        quad = roots @ roots.transpose(0, 2, 1)
        lin = rng.standard_normal((2000, n))
        weights, ok = solve_by_active_set(quad, lin)
        expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin)
        assert ok.all()
        assert_no_worse_than_the_oracle(
            quad, lin, EPS_RIDGE, weights, ok, expected_weights, expected_ok, support_scale=False
        )

    def test_singular_faces_are_solved_one_instance_at_a_time(self):
        # instance 1's quadratic has rank one, so its three-node faces are
        # exactly singular: the stacked solve raises, every instance is solved
        # on its own, and instance 1 follows the flat direction to a bound
        v = np.array([2.0, -2.0, -1.0, 0.0])
        quad = np.stack([np.diag([2.0, 3.0, 4.0, 5.0]), np.outer(v, v)])
        lin = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, -1.0, 0.0, -1.0]])
        raised = []
        solve = np.linalg.solve

        def recording(kkt, rhs):
            try:
                return solve(kkt, rhs)
            except np.linalg.LinAlgError:
                raised.append(kkt.shape)
                raise

        with mock.patch.object(np.linalg, "solve", recording):
            weights, ok = solve_simplex_qp_batch(quad, lin, ridge=0.0)
        assert raised[0] == (2, 5, 5)
        assert ok.all()
        assert np.allclose(weights[1], [5.0 / 9.0, 0.0, 4.0 / 9.0, 0.0], rtol=0.0, atol=1e-15)
        alone, _ = solve_simplex_qp_batch(quad[:1], lin[:1], ridge=0.0)
        assert np.array_equal(alone[0], weights[0])
        expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad, lin, ridge=0.0)
        assert_no_worse_than_the_oracle(
            quad, lin, 0.0, weights, ok, expected_weights, expected_ok, support_scale=False
        )

    def test_flat_edge_breaks_the_tie_at_the_first_vertex(self):
        # instance 1 is exactly flat along the edge, so every point of it is a
        # minimum and the closed form keeps the first vertex
        quad = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        lin = np.array([[1.0, 0.8], [0.5, 0.5]])
        closed, closed_ok = solve_simplex_qp_batch(quad, lin, ridge=0.0)
        assert closed_ok.all()
        assert closed[1].tolist() == [1.0, 0.0]
        assert closed[0].min() > 0.0
        expected_weights, _ = solve_simplex_qp_batch_loop(quad, lin, ridge=0.0)
        assert np.allclose(closed[0], expected_weights[0])

    def test_nearly_singular_faces_follow_the_flat_direction(self):
        # rank one in decimal data: the three-node faces are singular only up
        # to rounding, so their solve returns a huge point of arbitrary sign
        v = np.array([-1.2, -1.4, -0.2, 2.3])
        lin = np.array([0.3, 0.8, 0.2, 0.8])
        weights, ok = solve_simplex_qp_batch(np.outer(v, v)[None], lin[None], ridge=0.0)
        assert ok[0]
        assert np.allclose(weights[0], [0.0, 23.0 / 37.0, 0.0, 14.0 / 37.0], rtol=0.0, atol=1e-15)

    def test_singular_quadratic_without_ridge_finds_the_minimum(self):
        # the quadratic and its face {1, 2} are singular; a solve that rounding
        # lets through once gave the point (0, 0, 0) and called it solved
        quad = np.array([[5.25, -0.5, 0.25], [-0.5, 6.0, -3.0], [0.25, -3.0, 1.5]])
        lin = np.array([-1.0, -1.0, -1.0])
        minimum = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
        embedded_quad = np.zeros((4, 4))
        embedded_quad[:3, :3] = quad
        embedded_quad[3, 3] = 100.0
        for solve, q, l in (
            (solve_by_active_set, quad, lin),
            (solve_simplex_qp_batch_loop, quad, lin),
            (solve_simplex_qp_batch, quad, lin),
            (solve_simplex_qp_batch, embedded_quad, np.full(4, -1.0)),
        ):
            weights, ok = solve(q[None], l[None], ridge=0.0)
            assert ok[0]
            assert np.allclose(weights[0, :3], minimum, rtol=0.0, atol=1e-15)
            assert objective(q, l, weights[0]) == pytest.approx(2.0, abs=1e-14)

    def test_triangle_without_ridge_warns_nowhere(self):
        # a singular curvature makes the interior point infinite; it must stay
        # inside the closed form's error state (warnings are errors here)
        quad = np.array([[5.0, 3.0, -1.0], [3.0, 2.0, 0.0], [-1.0, 0.0, 2.0]])
        lin = np.array([-1.0, 2.0, -1.0])
        weights, ok = solve_simplex_qp_batch(quad[None], lin[None], ridge=0.0)
        expected_weights, expected_ok = solve_simplex_qp_batch_loop(quad[None], lin[None], ridge=0.0)
        assert ok[0] and expected_ok[0]
        assert np.allclose(weights, expected_weights, rtol=0.0, atol=1e-15)

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


def layout_cases(rng: np.random.Generator, n: int, count: int = 500):
    """Batches of n-coordinate programs, a fifth each: Gaussian, a duplicated
    vertex, zero curvature, nearly flat (P2-like moments whose noise terms are
    about 1e-4 of them) and Gaussian with NaN or infinite entries."""
    roots = rng.standard_normal((count, n, n))
    quad = roots @ roots.transpose(0, 2, 1)
    lin = rng.standard_normal((count, n))
    dup, flat, near, bad = (slice(k * count // 5, (k + 1) * count // 5) for k in range(1, 5))
    quad[dup, 1], lin[dup, 1] = quad[dup, 0], lin[dup, 0]
    quad[dup, :, 1] = quad[dup, :, 0]
    quad[flat] = rng.standard_normal((count // 5, 1, 1))
    lin[flat] = lin[flat, :1]
    means = rng.standard_normal((count // 5, n))
    quad[near] = means[:, :, None] * means[:, None] + 1e-4 * np.eye(n) * rng.uniform(size=(1, n, 1))
    lin[near] = means * means[:, :1]
    rows = np.arange(bad.start, bad.stop)
    quad[rows, rng.integers(n, size=rows.size), rng.integers(n, size=rows.size)] = rng.choice(
        [np.nan, np.inf, -np.inf], rows.size
    )
    lin[rows[::3], rng.integers(n, size=rows[::3].size)] = np.nan
    return quad, lin


class TestMemoryLayout:
    """The local programs hand ``solve_simplex_qp_batch`` views of runs-last
    planes; the bits must not depend on that."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_runs_last_and_c_ordered_batches_give_the_same_bits(self, n):
        quad, lin = layout_cases(np.random.default_rng(60 + n), n)
        runs_last = (
            np.ascontiguousarray(quad.transpose(1, 2, 0)).transpose(2, 0, 1),
            np.ascontiguousarray(lin.T).T,
        )
        assert not runs_last[0].flags.c_contiguous and not runs_last[1].flags.c_contiguous
        with np.errstate(all="ignore"):  # the non-finite instances
            weights, ok = solve_simplex_qp_batch(quad, lin)
            again, again_ok = solve_simplex_qp_batch(*runs_last)
        assert np.array_equal(ok, again_ok)
        assert 0 < ok.sum() < len(ok)
        assert np.ascontiguousarray(weights).tobytes() == np.ascontiguousarray(again).tobytes()


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
        second = oracles.parameter_second_moment(line_model)
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
        mask = two_cluster_line.inter_plus
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

    def test_large_supports_are_solved(self):
        # the hub's support has 12 nodes, 4,095 faces for the oracle
        topology = star(11)
        roots = np.random.default_rng(4).standard_normal((2, 12, 12))
        gram = roots @ roots.transpose(0, 2, 1)
        power = np.abs(np.random.default_rng(5).standard_normal((2, 12, 12)))
        columns, ok = solve_local_columns(topology, gram, power)
        assert ok.all()
        support = np.flatnonzero(topology.inter_plus[:, 0])
        assert support.tolist() == list(range(12))
        quad = gram[:, support][:, :, support] + power[:, support, 0][:, :, None] * np.eye(12)
        expected, expected_ok = solve_simplex_qp_batch_loop(quad, gram[:, support, 0])
        assert_no_worse_than_the_oracle(
            quad, gram[:, support, 0], EPS_RIDGE, columns[:, support, 0], ok[:, 0],
            expected, expected_ok, support_scale=False,
        )

    def test_p2_solves_a_twelve_node_support(self):
        # every node's program is solved exactly and certified on its own
        topology = star(11)
        model = star_model(topology)
        coop, solutions = solve_p2_all_nodes(model, topology)
        assert len(solutions) == topology.n_nodes
        for k, sol in enumerate(solutions):
            support, quad, lin = local_program(k, model, topology)
            assert sol.certified
            assert sol.kkt_residual <= 1e-12 * (np.abs(quad).max() + np.abs(lin).max())
            face_by_face, ok = solve_simplex_qp_batch_loop(quad[None], lin[None])
            assert ok.all()
            best = objective(quad, lin, face_by_face[0])
            assert objective(quad, lin, coop[list(support), k]) <= best + 1e-12 * max(1.0, abs(best))

    def test_adaptive_step_solves_a_twelve_node_support(self):
        topology = star(11)
        rng = np.random.default_rng(6)
        state = init_state(12, 2, (3,), adaptive=True)
        state.weights = rng.standard_normal((3, 12, 2))
        regressors = rng.standard_normal((3, 12, 2))
        responses = rng.standard_normal((3, 12))
        maic_adaptive_step(
            state, regressors, responses, np.eye(12), topology, 0.7, 0.1
        )
        assert state.fallback_count == 0
        assert np.allclose(state.learned_weights.sum(axis=-2), 1.0, atol=1e-12)
        assert np.all(state.learned_weights[:, ~topology.inter_plus] == 0.0)


class TestPresetPrograms:
    """P1 and P2 on every preset segment: exact to rounding, and P1 no worse
    than accelerated projected gradient run to its KKT tolerance."""

    @pytest.mark.parametrize("name", ["a", "b", "c", "nonstationary"])
    def test_kkt_residuals_and_the_projected_gradient_reference(self, name):
        from maicnet import harness, presets

        compiled = harness.compile_scenario(presets.get_scenario(name, strategies=("atc",)))
        topology, combine = compiled.topology, compiled.combine
        for model in compiled.models:
            qp = build_centralized_qp(model, topology, combine)
            coop, solution = solve_p1(model, topology, combine)
            assert solution.certified and solution.kkt_residual <= 1e-12
            _, reference = solve_p1_fista(model, topology, combine)
            assert reference.certified
            assert solution.objective <= reference.objective + 1e-12
            # stationarity from the matrix-form gradient, not the stacked program
            grad = qp.gradient(coop)
            for k in range(topology.n_nodes):
                support = qp.support_mask[:, k]
                assert kkt_residual(coop[support, k], grad[support, k]) <= 1e-12
            assert np.all(coop[~qp.support_mask] == 0.0)
            # P2's closed forms eliminate on nearly flat programs (the noise terms
            # are 1e-4 of the moments): their residuals reach 1.6e-12 of the
            # moments' scale on preset b
            _, solutions = solve_p2_all_nodes(model, topology)
            scale = np.abs(qp.curvature).max()
            assert all(s.certified and s.kkt_residual <= 1e-11 * scale for s in solutions)


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
        mask = two_cluster_line.inter_plus
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
        coop_p2, _ = solve_p2_all_nodes(model, two_cluster_line)
        coop_p1, _ = solve_p1(model, two_cluster_line, np.eye(4))
        # 3e-12 apart: P2's closed forms round on a nearly flat program
        assert np.allclose(coop_p1, coop_p2, rtol=0.0, atol=1e-10)
        coop_reference, _ = solve_p1_fista(
            model, two_cluster_line, np.eye(4), tol=1e-11, max_iters=200_000
        )
        assert np.allclose(coop_reference, coop_p2, atol=1e-5)

    def test_p1_matches_the_column_loop_on_preset_a(self, monkeypatch):
        # the projected-gradient reference projects all columns at once
        from maicnet import harness, presets

        compiled = harness.compile_scenario(presets.get_scenario("a", strategies=("atc",)))
        args = (compiled.models[0], compiled.topology, compiled.combine)
        coop, solution = solve_p1_fista(*args)
        monkeypatch.setattr(
            oracles,
            "project_simplex",
            lambda rows, mask: project_columns_loop(rows.T, mask.T).T,
        )
        coop_loop, solution_loop = solve_p1_fista(*args)
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
