"""Clustered network graphs and combination-weight construction.

A clustered topology is an undirected connected graph whose node set is
partitioned into clusters. Every node k sees three neighbor groups:

* its full neighborhood (k itself always included),
* the intra-cluster part (k included), used by the combine step,
* the inter-cluster part plus k itself, used by the cooperation step.

All weight matrices built here follow the column convention: entry
``W[l, k]`` is the weight node k applies to information received from
node l, so valid matrices are left stochastic (each column sums to one)
with support restricted to the relevant neighbor group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClusteredTopology",
    "metropolis_weights",
    "averaging_rule_weights",
    "cooperation_from_regularizer",
    "validate_column_stochastic",
]

STOCHASTIC_TOL = 1e-12


def _connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Breadth-first connected components of a boolean adjacency matrix."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    components = []
    for root in range(n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        members = []
        while queue:
            node = queue.pop()
            members.append(node)
            for other in np.flatnonzero(adjacency[node]):
                if not seen[other]:
                    seen[other] = True
                    queue.append(int(other))
        components.append(sorted(members))
    return components


@dataclass(frozen=True)
class ClusteredTopology:
    """Undirected connected graph with a cluster partition.

    Parameters
    ----------
    adjacency:
        Boolean (N, N) matrix. Must be symmetric with a True diagonal;
        node k is always its own neighbor.
    cluster_of:
        Integer array of length N assigning each node to a cluster.
        Labels must be 0..P-1 with every label used at least once.

    Instances are immutable once validated. Two read-only boolean (N, N)
    masks in the column convention (entry ``[l, k]`` is node k's view of
    node l) hold the neighbor structure: ``intra`` marks the intra-cluster
    neighbors that the combine step mixes over, and ``inter_plus`` the
    inter-cluster neighbors plus the node itself that the cooperation step
    mixes over. They overlap on the diagonal only, and their union is the
    adjacency. ``inter_plus_groups`` sorts the nodes by the size of their
    ``inter_plus`` column: one ``(nodes, supports)`` pair per size, in
    increasing size, with ``supports[g]`` the sorted support of ``nodes[g]``.
    ``inter_plus_rows`` holds per group the rows ``l N + k`` of an ``(N N, ...)``
    table that hold the entries ``(supports[g, i], nodes[g])``, ordered ``(i, g)``,
    and ``(supports[g, i], supports[g, j])``, ordered ``(i, j, g)``.
    """

    adjacency: np.ndarray
    cluster_of: np.ndarray
    intra: np.ndarray = field(init=False, repr=False)
    inter_plus: np.ndarray = field(init=False, repr=False)
    inter_plus_groups: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False
    )
    inter_plus_rows: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adjacency = np.asarray(self.adjacency, dtype=bool)
        cluster_of = np.asarray(self.cluster_of, dtype=np.int64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        n = adjacency.shape[0]
        if n == 0:
            raise ValueError("topology needs at least one node")
        if cluster_of.shape != (n,):
            raise ValueError(
                f"cluster assignment has shape {cluster_of.shape}, expected ({n},)"
            )
        if not np.array_equal(adjacency, adjacency.T):
            bad = np.argwhere(adjacency != adjacency.T)
            raise ValueError(f"adjacency is not symmetric, first mismatch at {tuple(bad[0])}")
        if not adjacency.diagonal().all():
            missing = np.flatnonzero(~adjacency.diagonal())
            raise ValueError(f"every node must neighbor itself; missing at {missing.tolist()}")

        components = _connected_components(adjacency)
        if len(components) > 1:
            raise ValueError(f"graph is disconnected; components: {components}")

        labels = np.unique(cluster_of)
        if labels.min() < 0 or labels.max() >= len(labels):
            raise ValueError(
                f"cluster labels must be contiguous 0..P-1 with none empty, got {labels.tolist()}"
            )

        same = cluster_of[:, None] == cluster_of[None, :]
        intra = adjacency & same
        inter_plus = (adjacency & ~same) | np.eye(n, dtype=bool)
        sizes = inter_plus.sum(axis=0)
        groups, group_rows = [], []
        for size in np.unique(sizes):
            nodes = np.flatnonzero(sizes == size)
            supports = np.nonzero(inter_plus[:, nodes].T)[1].reshape(nodes.size, size)
            rows = supports.T * n
            entries, block = (rows + nodes).ravel(), (rows[:, None] + supports.T).ravel()
            for array in (nodes, supports, entries, block):
                array.flags.writeable = False
            groups.append((nodes, supports))
            group_rows.append((entries, block))

        for array in (adjacency, cluster_of, intra, inter_plus):
            array.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "cluster_of", cluster_of)
        object.__setattr__(self, "intra", intra)
        object.__setattr__(self, "inter_plus", inter_plus)
        object.__setattr__(self, "inter_plus_groups", tuple(groups))
        object.__setattr__(self, "inter_plus_rows", tuple(group_rows))

        for p in range(len(labels)):
            members = np.flatnonzero(cluster_of == p)
            sub = adjacency[np.ix_(members, members)]
            if len(_connected_components(sub)) > 1:
                warnings.warn(
                    f"cluster {p} is internally disconnected", RuntimeWarning, stacklevel=2
                )

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: "list[tuple[int, int]] | tuple[tuple[int, int], ...]",
        cluster_of: "list[int] | tuple[int, ...] | np.ndarray",
    ) -> "ClusteredTopology":
        """Build a topology from an undirected edge list without self-loops or
        repeated edges."""
        adjacency = np.eye(n_nodes, dtype=bool)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) is implicit, do not list it")
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise ValueError(f"edge ({a}, {b}) references a node outside 0..{n_nodes - 1}")
            if adjacency[a, b]:
                raise ValueError(f"edge ({a}, {b}) is listed twice, in one direction or both")
            adjacency[a, b] = adjacency[b, a] = True
        return cls(adjacency=adjacency, cluster_of=np.asarray(cluster_of))

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max()) + 1


def validate_column_stochastic(
    weights: np.ndarray,
    support: np.ndarray,
    what: str = "weight matrix",
) -> None:
    """Check nonnegativity, column sums of one, and support containment, each
    to within ``STOCHASTIC_TOL``.

    Raises ValueError naming the first offending column.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != support.shape:
        raise ValueError(f"{what} has shape {weights.shape}, expected {support.shape}")
    off = np.abs(weights)[~support]
    if off.size and off.max() > STOCHASTIC_TOL:
        where = np.argwhere((~support) & (np.abs(weights) > STOCHASTIC_TOL))[0]
        raise ValueError(f"{what} has mass outside its support at {tuple(int(j) for j in where)}")
    if weights.min() < -STOCHASTIC_TOL:
        col = int(np.argwhere(weights < -STOCHASTIC_TOL)[0][1])
        raise ValueError(f"{what} column {col} has a negative entry")
    sums = weights.sum(axis=0)
    bad = np.abs(sums - 1.0) > STOCHASTIC_TOL
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} column {col} sums to {float(sums[col])}, expected 1")


def metropolis_weights(topology: ClusteredTopology) -> np.ndarray:
    """Symmetric doubly stochastic combine weights over intra-cluster links.

    Off-diagonal entries are one over the larger of the two incident
    intra-neighborhood sizes (self included); each diagonal entry absorbs
    the remainder of its column.
    """
    intra = topology.intra
    sizes = intra.sum(axis=0)
    off = intra & ~np.eye(topology.n_nodes, dtype=bool)
    weights = np.where(off, 1.0 / np.maximum.outer(sizes, sizes), 0.0)
    # symmetric, so the contiguous row sums are the column sums, added in the same order
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return weights


def averaging_rule_weights(topology: ClusteredTopology) -> np.ndarray:
    """Uniform weights over each node's inter-cluster neighbors.

    Column k is zero when node k has no inter-cluster neighbor.
    """
    inter = topology.adjacency & ~topology.intra
    return np.where(inter, 1.0 / np.maximum(inter.sum(axis=0), 1), 0.0)


def cooperation_from_regularizer(
    topology: ClusteredTopology,
    rho: np.ndarray,
    eta: float,
    step_size: float,
) -> np.ndarray:
    """Map regularizer weights and strength into cooperation weights.

    Off-diagonal column entries become ``mu * eta * rho[l, k]`` on the
    inter-cluster support and the diagonal absorbs the remainder. The
    diagonal must stay nonnegative, which bounds how aggressive the
    regularizer translation can be for a given step size.
    """
    scale = step_size * eta
    rho = np.where(topology.adjacency & ~topology.intra, np.asarray(rho, dtype=float), 0.0)
    coop = scale * rho
    diagonal = 1.0 - scale * rho.sum(axis=0)
    negative = np.flatnonzero(diagonal < 0.0)
    if negative.size:
        k = negative[0]
        raise ValueError(
            f"cooperation diagonal for node {k} is {float(diagonal[k])}; "
            "reduce eta or the step size"
        )
    np.fill_diagonal(coop, diagonal)
    return coop
