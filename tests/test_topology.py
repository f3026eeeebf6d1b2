"""Topology construction, neighborhood bookkeeping, and weight builders."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maicnet import presets
from maicnet.topology import (
    ClusteredTopology,
    averaging_rule_weights,
    cooperation_from_regularizer,
    metropolis_weights,
    validate_column_stochastic,
)
from oracles import (
    averaging_rule_weights_loop,
    cooperation_from_regularizer_loop,
    expand_blocks,
    metropolis_weights_loop,
    neighbor_lists,
    neighbor_sets,
)


def members(mask, k):
    """The nodes in column k of a support mask."""
    return set(np.flatnonzero(mask[:, k]).tolist())


@st.composite
def connected_graphs(draw, max_nodes=7):
    """Random connected graph as (n, edges), single cluster assumed."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    order = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        attach = order[draw(st.integers(min_value=0, max_value=i - 1))]
        edges.add(tuple(sorted((attach, order[i]))))
    extra = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=6,
        )
    )
    edges |= {tuple(sorted(e)) for e in extra}
    return n, tuple(sorted(edges))


@st.composite
def clustered_topologies(draw):
    """Random connected graph on up to 12 nodes split into 1-4 clusters."""
    n, edges = draw(connected_graphs(max_nodes=12))
    p = draw(st.integers(min_value=1, max_value=min(4, n)))
    rest = draw(st.lists(st.integers(0, p - 1), min_size=n - p, max_size=n - p))
    cluster_of = draw(st.permutations(list(range(p)) + rest))
    with warnings.catch_warnings():
        # random partitions often leave a cluster internally disconnected
        warnings.simplefilter("ignore", RuntimeWarning)
        return ClusteredTopology.from_edges(n, edges, cluster_of)


class TestConstruction:
    def test_from_edges_builds_symmetric_adjacency(self, two_cluster_line):
        top = two_cluster_line
        assert top.n_nodes == 4
        assert top.n_clusters == 2
        assert np.array_equal(top.adjacency, top.adjacency.T)
        assert top.adjacency.diagonal().all()

    def test_neighbor_groups_match_set_arithmetic(self, two_cluster_line):
        edges = ((0, 1), (1, 2), (2, 3))
        clusters = (0, 0, 1, 1)
        neighbors, intra, inter, inter_plus = neighbor_sets(4, edges, clusters)
        top = two_cluster_line
        for k in range(4):
            assert members(top.adjacency, k) == neighbors[k]
            assert members(top.intra, k) == intra[k]
            assert members(top.adjacency & ~top.intra, k) == inter[k]
            assert members(top.inter_plus, k) == inter_plus[k]

    def test_cluster_members(self, two_cluster_line):
        assert np.flatnonzero(two_cluster_line.cluster_of == 0).tolist() == [0, 1]
        assert np.flatnonzero(two_cluster_line.cluster_of == 1).tolist() == [2, 3]

    def test_masks_partition_the_closed_neighborhood(self, two_cluster_line):
        top = two_cluster_line
        intra = top.intra
        inter_plus = top.inter_plus
        # intra and inter_plus overlap exactly on the diagonal
        assert np.array_equal(intra & inter_plus, np.eye(4, dtype=bool))
        assert np.array_equal(intra | inter_plus, top.adjacency)
        for mask in (intra, inter_plus):
            assert mask.dtype == bool and not mask.flags.writeable

    def test_inter_plus_groups_sort_nodes_by_support_size(self, singleton_chain):
        groups = [
            (nodes.tolist(), supports.tolist())
            for nodes, supports in singleton_chain.inter_plus_groups
        ]
        assert groups == [([0, 2], [[0, 1], [1, 2]]), ([1], [[0, 1, 2]])]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ClusteredTopology.from_edges(3, ((0, 0),), (0, 0, 0))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ClusteredTopology.from_edges(3, ((0, 5),), (0, 0, 0))

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)])
    def test_repeated_edge_is_named(self, repeat):
        a, b = repeat
        with pytest.raises(ValueError, match=rf"^edge \({a}, {b}\) is listed twice"):
            ClusteredTopology.from_edges(3, ((0, 1), (1, 2), repeat), (0, 0, 0))

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            ClusteredTopology.from_edges(4, ((0, 1), (2, 3)), (0, 0, 1, 1))

    def test_noncontiguous_cluster_labels_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            ClusteredTopology.from_edges(3, ((0, 1), (1, 2)), (0, 2, 2))

    def test_missing_self_loop_in_adjacency_rejected(self):
        adjacency = np.array([[False, True], [True, True]])
        with pytest.raises(ValueError, match="neighbor itself"):
            ClusteredTopology(adjacency=adjacency, cluster_of=np.array([0, 0]))

    def test_asymmetric_adjacency_rejected(self):
        adjacency = np.eye(3, dtype=bool)
        adjacency[0, 1] = True
        adjacency[1, 2] = True
        adjacency[2, 1] = True
        with pytest.raises(ValueError, match="not symmetric"):
            ClusteredTopology(adjacency=adjacency, cluster_of=np.array([0, 0, 0]))

    def test_internally_disconnected_cluster_warns(self):
        # nodes 0 and 2 share a cluster but only connect through node 1
        with pytest.warns(RuntimeWarning, match="internally disconnected"):
            ClusteredTopology.from_edges(3, ((0, 1), (1, 2)), (0, 1, 0))

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_neighborhoods_agree_with_oracle(self, graph):
        n, edges = graph
        top = ClusteredTopology.from_edges(n, edges, (0,) * n)
        neighbors, intra, inter, inter_plus = neighbor_sets(n, edges, (0,) * n)
        for k in range(n):
            assert members(top.adjacency, k) == neighbors[k]
            assert members(top.intra, k) == intra[k]
            assert members(top.inter_plus, k) == inter_plus[k]
            assert not inter[k]

    @given(clustered_topologies())
    @settings(max_examples=60, deadline=None)
    def test_masks_agree_with_the_oracle_on_clustered_graphs(self, top):
        intra, inter, inter_plus = neighbor_lists(top)
        for k in range(top.n_nodes):
            assert members(top.intra, k) == set(intra[k])
            assert members(top.adjacency & ~top.intra, k) == set(inter[k])
            assert members(top.inter_plus, k) == set(inter_plus[k])
        for nodes, supports in top.inter_plus_groups:
            for k, support in zip(nodes, supports):
                assert support.tolist() == inter_plus[k]


class TestMetropolis:
    def test_three_node_path_frozen_values(self, path3):
        # degrees 2, 3, 2 with self-loops; off-diagonal entries 1/max(.,.)
        expected = np.array(
            [
                [2 / 3, 1 / 3, 0.0],
                [1 / 3, 1 / 3, 1 / 3],
                [0.0, 1 / 3, 2 / 3],
            ]
        )
        assert np.allclose(metropolis_weights(path3), expected, atol=1e-15)

    def test_two_cluster_line_blocks(self, two_cluster_line):
        combine = metropolis_weights(two_cluster_line)
        block = np.full((2, 2), 0.5)
        assert np.allclose(combine[:2, :2], block)
        assert np.allclose(combine[2:, 2:], block)
        assert np.all(combine[:2, 2:] == 0.0)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_metropolis_is_symmetric_doubly_stochastic(self, graph):
        n, edges = graph
        top = ClusteredTopology.from_edges(n, edges, (0,) * n)
        combine = metropolis_weights(top)
        assert np.allclose(combine, combine.T, atol=1e-14)
        assert np.allclose(combine.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(combine.sum(axis=1), 1.0, atol=1e-12)
        assert combine.min() >= 0.0
        validate_column_stochastic(combine, top.intra, what="combine matrix")


class TestAveragingRule:
    def test_uniform_over_inter_neighbors(self, two_cluster_line):
        rho = averaging_rule_weights(two_cluster_line)
        expected = np.zeros((4, 4))
        expected[2, 1] = 1.0
        expected[1, 2] = 1.0
        assert np.array_equal(rho, expected)

    def test_zero_column_when_no_inter_neighbor(self, two_cluster_line):
        rho = averaging_rule_weights(two_cluster_line)
        assert not rho[:, 0].any()
        assert not rho[:, 3].any()

    def test_columns_sum_to_one_or_zero(self, singleton_chain):
        rho = averaging_rule_weights(singleton_chain)
        sums = rho.sum(axis=0)
        assert np.allclose(sums, [1.0, 1.0, 1.0])
        assert np.allclose(rho[:, 1], [0.5, 0.0, 0.5])


class TestCooperationFromRegularizer:
    def test_frozen_star_example(self, singleton_chain):
        rho = averaging_rule_weights(singleton_chain)
        coop = cooperation_from_regularizer(
            singleton_chain, rho, eta=1.0, step_size=0.05
        )
        expected = np.array(
            [
                [0.95, 0.025, 0.0],
                [0.05, 0.95, 0.05],
                [0.0, 0.025, 0.95],
            ]
        )
        assert np.allclose(coop, expected, atol=1e-15)
        validate_column_stochastic(coop, singleton_chain.inter_plus)

    def test_excessive_strength_rejected(self, singleton_chain):
        rho = averaging_rule_weights(singleton_chain)
        with pytest.raises(ValueError, match="reduce eta or the step size"):
            cooperation_from_regularizer(
                singleton_chain, rho, eta=50.0, step_size=0.05
            )

    @given(st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_columns_stay_stochastic_for_admissible_strengths(self, eta):
        chain = ClusteredTopology.from_edges(3, ((0, 1), (1, 2)), (0, 1, 2))
        rho = averaging_rule_weights(chain)
        coop = cooperation_from_regularizer(chain, rho, eta=eta, step_size=0.1)
        validate_column_stochastic(coop, chain.inter_plus)


class TestLoopOracles:
    """The three weight rules equal, bit for bit, their node-by-node versions."""

    @staticmethod
    def _assert_rules_match(top, rho, eta, step_size):
        assert np.array_equal(metropolis_weights(top), metropolis_weights_loop(top))
        assert np.array_equal(averaging_rule_weights(top), averaging_rule_weights_loop(top))
        try:
            expected = cooperation_from_regularizer_loop(top, rho, eta, step_size)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                cooperation_from_regularizer(top, rho, eta, step_size)
            assert str(raised.value) == str(error)
        else:
            coop = cooperation_from_regularizer(top, rho, eta, step_size)
            assert np.array_equal(coop, expected)

    @given(
        clustered_topologies(),
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_clustered_graphs(self, top, eta, seed):
        rng = np.random.default_rng(seed)
        n = top.n_nodes
        # entries off the inter-cluster support must be ignored, not read
        rho = rng.random((n, n))
        self._assert_rules_match(top, rho, eta, 0.01 + 0.1 * rng.random())
        self._assert_rules_match(top, averaging_rule_weights(top), eta, 0.05)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_every_preset(self, name):
        scenario = presets.get_scenario(name)
        top = ClusteredTopology.from_edges(scenario.n_nodes, scenario.edges, scenario.cluster_of)
        rho = averaging_rule_weights(top)
        self._assert_rules_match(top, rho, scenario.eta, scenario.step_size)
        self._assert_rules_match(top, rho, 50.0, scenario.step_size)


class TestValidation:
    def test_mass_outside_support(self):
        weights = np.array([[0.5, 0.0], [0.5, 1.0]])
        support = np.array([[True, False], [False, True]])
        with pytest.raises(ValueError, match="outside its support"):
            validate_column_stochastic(weights, support)

    def test_negative_entry(self):
        weights = np.array([[1.2, 0.0], [-0.2, 1.0]])
        support = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="negative entry"):
            validate_column_stochastic(weights, support)

    def test_column_sum_mismatch(self):
        weights = np.array([[0.5, 0.0], [0.4, 1.0]])
        support = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="sums to"):
            validate_column_stochastic(weights, support)


class TestExpansion:
    def test_expand_blocks_places_identity_blocks(self):
        # the stacked (N*M, N*M) form of a weight matrix that the lifted
        # theory references build
        weights = np.array([[0.7, 0.2], [0.3, 0.8]])
        big = expand_blocks(weights, 2)
        assert big.shape == (4, 4)
        assert np.array_equal(big, np.kron(weights, np.eye(2)))
        assert big[0, 2] == 0.2 and big[1, 3] == 0.2 and big[0, 3] == 0.0
