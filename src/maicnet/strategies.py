"""Per-iteration update rules for distributed LMS over clustered graphs.

Every rule follows the same skeleton. Each node first adapts its iterate
with a stochastic-gradient correction from its own observation, then the
iterates are merged. The variants differ in how information crosses
cluster borders:

* no cooperation: merge only within the cluster,
* regularized adaptation: pull the gradient step toward inter-cluster
  neighbors before the intra-cluster merge,
* cooperation weights: convex-combine adapted iterates over the
  inter-cluster support (self included) and then merge intra-cluster,
  either with a fixed matrix or with per-iteration weights learned from
  online moment estimates.

All operations accept stacked states of shape ``(..., N, M)`` so a
single run and a batch of runs share one code path. The fixed-matrix
rule also steps several strategies at once: their iterates stack as
``(F, ..., N, M)`` with one cooperation and one combine matrix per
strategy, ``(F, N, N)`` each, and every strategy reads the same
observations. Each strategy's mix is its own matrix product, so the stack
steps bitwise as the strategies would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weight_opt
from .topology import ClusteredTopology

__all__ = [
    "StrategyState",
    "init_state",
    "row_dot",
    "adapt",
    "inter_cluster_combine",
    "intra_cluster_combine",
    "mdlms_step",
    "maic_step",
    "maic_adaptive_step",
]


@dataclass
class StrategyState:
    """Mutable per-strategy iterate storage.

    ``weights`` holds the post-combine iterates from the previous
    iteration. The adaptive variant additionally tracks the smoothed
    squared adaptation increments and the last solved cooperation
    weights; ``fallback_count`` counts weight solves that fell back to
    the self-only column.
    """

    weights: np.ndarray  # (..., N, M)
    increment_power: "np.ndarray | None" = None  # (..., N, N)
    learned_weights: "np.ndarray | None" = None  # (..., N, N)
    fallback_count: int = 0


def init_state(
    n_nodes: int,
    dim: int,
    batch_shape: tuple[int, ...] = (),
    adaptive: bool = False,
) -> StrategyState:
    """Zero-initialized state. The ``(..., N, M)`` iterates are laid out
    ``(..., M, N)`` in memory, the order in which the combine's GEMM returns them."""
    weights = np.zeros(batch_shape + (dim, n_nodes)).swapaxes(-1, -2)
    state = StrategyState(weights=weights)
    if adaptive:
        state.increment_power = np.zeros(batch_shape + (n_nodes, n_nodes))
        state.learned_weights = np.zeros(batch_shape + (n_nodes, n_nodes))
    return state


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_m a[..., m] * b[..., m]``, broadcast and added in index order: elementwise,
    where einsum loops once per output element, and bitwise equal to it for M <= 2."""
    total = a[..., 0] * b[..., 0]
    for m in range(1, a.shape[-1]):
        total += a[..., m] * b[..., m]
    return total


def adapt(
    weights: np.ndarray, regressors: np.ndarray, responses: np.ndarray, step_sizes: np.ndarray
) -> np.ndarray:
    """LMS adaptation step at every node.

    ``psi_k = w_k + mu_k * u_k * (d_k - u_k . w_k)``
    """
    error = responses - row_dot(regressors, weights)
    mu = np.atleast_1d(np.asarray(step_sizes, dtype=float))
    return weights + mu[..., :, None] * regressors * error[..., :, None]


def _mix(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``sum_l x[i, ..., l, m] * matrix[i, l, k]`` on the (batch*M, N) view of ``x``:
    one GEMM for one (N, N) matrix, one batched matmul for a stack (F, N, N) whose
    matrix i mixes ``x[i]``."""
    swapped = x.swapaxes(-1, -2)
    mixed = swapped.reshape(matrix.shape[:-2] + (-1, x.shape[-2])) @ matrix
    return mixed.reshape(swapped.shape).swapaxes(-1, -2)


def inter_cluster_combine(adapted: np.ndarray, cooperation: np.ndarray) -> np.ndarray:
    """Convex combination of adapted iterates over the cooperation support.

    ``cooperation`` may be one fixed (N, N) matrix; a stack (F, N, N) with
    one matrix per strategy, for iterates ``(F, ..., N, M)`` of F strategies
    stepped together; or a batch ``(..., N, N)`` of per-run matrices with
    the iterates' batch shape. Entry (l, k) weighs node l's iterate in node
    k's result.
    """
    if cooperation.ndim == 2 or cooperation.ndim < adapted.ndim:
        return _mix(adapted, cooperation)
    return np.swapaxes(cooperation, -1, -2) @ adapted


def intra_cluster_combine(cooperated: np.ndarray, combine: np.ndarray) -> np.ndarray:
    """Intra-cluster merge; entry (l, k) weighs node l's iterate at node k.
    ``combine`` is one (N, N) matrix or a per-strategy stack (F, N, N)."""
    return _mix(cooperated, combine)


def mdlms_step(
    state: StrategyState,
    regressors: np.ndarray,
    responses: np.ndarray,
    combine: np.ndarray,
    regularizer: np.ndarray,
    strength: float,
    step_sizes: np.ndarray,
) -> np.ndarray:
    """Adaptation regularized toward inter-cluster neighbors, then combine.

    With zero strength this reduces bitwise to the no-cooperation rule.
    """
    psi = adapt(state.weights, regressors, responses, step_sizes)
    pull = _mix(state.weights, regularizer)
    pull -= regularizer.sum(axis=0)[:, None] * state.weights
    mu = np.atleast_1d(np.asarray(step_sizes, dtype=float))
    psi = psi + mu[..., :, None] * strength * pull
    new = intra_cluster_combine(psi, combine)
    state.weights = new
    return new


def maic_step(
    state: StrategyState,
    regressors: np.ndarray,
    responses: np.ndarray,
    combine: np.ndarray,
    cooperation: np.ndarray,
    step_sizes: np.ndarray,
) -> np.ndarray:
    """Adapt, cooperate across clusters, combine within the cluster.

    ``combine`` and ``cooperation`` are each one (N, N) matrix, or both
    stacks (F, N, N) that step F strategies' iterates ``(F, ..., N, M)`` on
    the shared observations.
    """
    psi = adapt(state.weights, regressors, responses, step_sizes)
    phi = inter_cluster_combine(psi, cooperation)
    new = intra_cluster_combine(phi, combine)
    state.weights = new
    return new


def _solve_learned_columns(
    state: StrategyState,
    psi: np.ndarray,
    topology: ClusteredTopology,
    alpha: float,
) -> np.ndarray:
    """Update increment-power estimates and solve one weight column per node."""
    w_prev = state.weights
    batch_shape = w_prev.shape[:-2]
    n, dim = w_prev.shape[-2:]
    flat_w = w_prev.reshape(-1, n, dim)
    flat_psi = psi.reshape(-1, n, dim)

    # Smoothed squared distance between each adapted iterate and the
    # receiving node's previous iterate, tracked on the cooperation-support
    # pairs, the only ones the local programs read.
    senders, receivers = np.nonzero(topology.inter_plus)
    increment = flat_psi[:, senders] - flat_w[:, receivers]
    flat_power = state.increment_power.reshape(-1, n, n)
    flat_power[:, senders, receivers] = (
        alpha * flat_power[:, senders, receivers] + (1.0 - alpha) * row_dot(increment, increment)
    )

    gram = row_dot(flat_w[:, :, None], flat_w[:, None])
    learned, ok = weight_opt.solve_local_columns(topology, gram, flat_power)
    # a failed instance keeps only its own node
    runs, nodes = np.nonzero(~ok)
    learned[runs, :, nodes] = 0.0
    learned[runs, nodes, nodes] = 1.0

    state.fallback_count += runs.size
    state.increment_power = flat_power.reshape(batch_shape + (n, n))
    return learned.reshape(batch_shape + (n, n))


def maic_adaptive_step(
    state: StrategyState,
    regressors: np.ndarray,
    responses: np.ndarray,
    combine: np.ndarray,
    topology: ClusteredTopology,
    alpha: float,
    step_sizes: np.ndarray,
) -> np.ndarray:
    """Cooperation rule with weights learned online.

    Each iteration re-solves, per node, the local simplex program built
    from instantaneous moment estimates: the smoothed squared adaptation
    increments stand in for gradient-noise power and the current iterates
    stand in for the unknown parameters. A node whose solve fails keeps
    only its own iterate for that iteration.
    """
    psi = adapt(state.weights, regressors, responses, step_sizes)
    learned = _solve_learned_columns(state, psi, topology, alpha)
    phi = inter_cluster_combine(psi, learned)
    new = intra_cluster_combine(phi, combine)
    state.learned_weights = learned
    state.weights = new
    return new
