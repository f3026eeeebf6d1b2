"""Clustered network graphs and combination-weight construction.

A clustered topology is an undirected connected graph whose node set is
partitioned into clusters. Every node k sees three neighbor groups:

* its full neighborhood (k itself always included),
* the intra-cluster part, used by the combine step,
* the inter-cluster part, used by the cooperation step.

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
    "WeightMatrices",
    "metropolis_weights",
    "averaging_rule_weights",
    "cooperation_from_regularizer",
    "kron_expand",
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

    Instances are immutable once validated. Neighbor groups are derived
    eagerly and exposed as tuples of sorted node indices.
    ``inter_plus_groups`` sorts the nodes by the size of their
    ``inter_plus`` group: one ``(nodes, supports)`` pair per size, in
    increasing size, with ``supports[g]`` the group of ``nodes[g]``.
    """

    adjacency: np.ndarray
    cluster_of: np.ndarray
    neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    intra: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    inter: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    inter_plus: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    inter_plus_groups: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False
    )

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

        neighbors = []
        intra = []
        inter = []
        inter_plus = []
        for k in range(n):
            hood = np.flatnonzero(adjacency[:, k])
            same = cluster_of[hood] == cluster_of[k]
            neighbors.append(tuple(int(j) for j in hood))
            intra.append(tuple(int(j) for j in hood[same]))
            inter.append(tuple(int(j) for j in hood[~same]))
            inter_plus.append(tuple(sorted(set(hood[~same].tolist()) | {k})))
        groups = []
        for size in sorted({len(group) for group in inter_plus}):
            nodes = np.array([k for k in range(n) if len(inter_plus[k]) == size])
            supports = np.array([inter_plus[k] for k in nodes])
            nodes.flags.writeable = False
            supports.flags.writeable = False
            groups.append((nodes, supports))

        adjacency.flags.writeable = False
        cluster_of.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "cluster_of", cluster_of)
        object.__setattr__(self, "neighbors", tuple(neighbors))
        object.__setattr__(self, "intra", tuple(intra))
        object.__setattr__(self, "inter", tuple(inter))
        object.__setattr__(self, "inter_plus", tuple(inter_plus))
        object.__setattr__(self, "inter_plus_groups", tuple(groups))

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
        """Build a topology from an undirected edge list without self-loops."""
        adjacency = np.eye(n_nodes, dtype=bool)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) is implicit, do not list it")
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise ValueError(f"edge ({a}, {b}) references a node outside 0..{n_nodes - 1}")
            adjacency[a, b] = adjacency[b, a] = True
        return cls(adjacency=adjacency, cluster_of=np.asarray(cluster_of))

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max()) + 1

    def cluster_members(self, p: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.cluster_of == p))

    def intra_mask(self) -> np.ndarray:
        """Boolean (N, N) mask of the intra-cluster support, column convention."""
        mask = np.zeros_like(self.adjacency)
        for k, group in enumerate(self.intra):
            mask[list(group), k] = True
        return mask

    def inter_plus_mask(self) -> np.ndarray:
        """Boolean (N, N) mask of the cooperation support (inter neighbors plus self)."""
        mask = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        for k, group in enumerate(self.inter_plus):
            mask[list(group), k] = True
        return mask


def validate_column_stochastic(
    weights: np.ndarray,
    support: np.ndarray,
    tol: float = STOCHASTIC_TOL,
    what: str = "weight matrix",
) -> None:
    """Check nonnegativity, column sums of one, and support containment.

    Raises ValueError naming the first offending column.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != support.shape:
        raise ValueError(f"{what} has shape {weights.shape}, expected {support.shape}")
    off = np.abs(weights)[~support]
    if off.size and off.max() > tol:
        where = np.argwhere((~support) & (np.abs(weights) > tol))[0]
        raise ValueError(f"{what} has mass outside its support at {tuple(int(j) for j in where)}")
    if weights.min() < -tol:
        col = int(np.argwhere(weights < -tol)[0][1])
        raise ValueError(f"{what} column {col} has a negative entry")
    sums = weights.sum(axis=0)
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} column {col} sums to {sums[col]!r}, expected 1")


def metropolis_weights(topology: ClusteredTopology) -> np.ndarray:
    """Symmetric doubly stochastic combine weights over intra-cluster links.

    Off-diagonal entries are one over the larger of the two incident
    intra-neighborhood sizes (self included); each diagonal entry absorbs
    the remainder of its column.
    """
    n = topology.n_nodes
    sizes = [len(group) for group in topology.intra]
    weights = np.zeros((n, n))
    for k in range(n):
        for l in topology.intra[k]:
            if l != k:
                weights[l, k] = 1.0 / max(sizes[k], sizes[l])
        weights[k, k] = 1.0 - weights[:, k].sum()
    return weights


def averaging_rule_weights(topology: ClusteredTopology) -> np.ndarray:
    """Uniform weights over each node's inter-cluster neighbors.

    Column k is zero when node k has no inter-cluster neighbor.
    """
    n = topology.n_nodes
    rho = np.zeros((n, n))
    for k in range(n):
        group = topology.inter[k]
        if group:
            rho[list(group), k] = 1.0 / len(group)
    return rho


def cooperation_from_regularizer(
    topology: ClusteredTopology,
    rho: np.ndarray,
    eta: float,
    step_sizes: "float | np.ndarray",
) -> np.ndarray:
    """Map regularizer weights and strength into cooperation weights.

    Off-diagonal column entries become ``mu_k * eta * rho[l, k]`` on the
    inter-cluster support and the diagonal absorbs the remainder. The
    diagonal must stay nonnegative, which bounds how aggressive the
    regularizer translation can be for a given step size.
    """
    n = topology.n_nodes
    mu = np.broadcast_to(np.asarray(step_sizes, dtype=float), (n,))
    rho = np.asarray(rho, dtype=float)
    coop = np.zeros((n, n))
    for k in range(n):
        group = list(topology.inter[k])
        total = 0.0
        for l in group:
            coop[l, k] = mu[k] * eta * rho[l, k]
            total += rho[l, k]
        coop[k, k] = 1.0 - mu[k] * eta * total
        if coop[k, k] < 0.0:
            raise ValueError(
                f"cooperation diagonal for node {k} is {coop[k, k]!r}; "
                "reduce eta or the step size"
            )
    return coop


def kron_expand(weights: np.ndarray, block_dim: int) -> np.ndarray:
    """Expand an (N, N) weight matrix to (N*block_dim, N*block_dim) blocks."""
    return np.kron(np.asarray(weights, dtype=float), np.eye(block_dim))


@dataclass(frozen=True)
class WeightMatrices:
    """Combine and cooperation weights for one network configuration."""

    combine: np.ndarray  # intra-cluster, (N, N)
    cooperation: np.ndarray  # inter-cluster plus self, (N, N)
    dim: int

    def validate(self, topology: ClusteredTopology, tol: float = STOCHASTIC_TOL) -> None:
        validate_column_stochastic(
            self.combine, topology.intra_mask(), tol, what="combine matrix"
        )
        validate_column_stochastic(
            self.cooperation, topology.inter_plus_mask(), tol, what="cooperation matrix"
        )

    def combine_expanded(self) -> np.ndarray:
        return kron_expand(self.combine, self.dim)

    def cooperation_expanded(self) -> np.ndarray:
        return kron_expand(self.cooperation, self.dim)
