"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library
code it validates: explicit index loops instead of vectorized identities,
exhaustive grids instead of closed-form solvers, fixed-point iteration
instead of linear solves, python sets instead of masked arrays, the
stacked (N*M, N*M) theory instead of its N x N factors, one primal Stein
solve per cluster instead of the adjoint solve. Slow is fine;
these only ever run on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from maicnet import theory
from maicnet.signal_model import SignalModel, _psd_sqrt
from maicnet.strategies import StrategyState, adapt, intra_cluster_combine, row_dot
from maicnet.theory import SIZE_CAP, solve_stein, spectral_radius
from maicnet.topology import ClusteredTopology
from maicnet.weight_opt import (
    EPS_RIDGE,
    KKT_TOL,
    QPSolution,
    kkt_residual,
)


def simplex_grid(n: int, resolution: float = 1e-3) -> np.ndarray:
    """Every point of the probability simplex on a regular grid.

    Coordinates are integer multiples of ``resolution``. Only practical
    for n <= 3 at fine resolutions; n = 3 at 1e-3 is about 500k points.
    """
    steps = int(round(1.0 / resolution))
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if n == 3:
        parts = []
        for i in range(steps + 1):
            j = np.arange(steps - i + 1)
            parts.append(np.column_stack([np.full(j.size, i), j, steps - i - j]))
        return np.vstack(parts) / steps
    raise ValueError("grid enumeration is only meant for n <= 3")


def grid_min_quadratic(
    quad: np.ndarray, lin: np.ndarray, resolution: float = 1e-3
) -> tuple[np.ndarray, float]:
    """Brute-force minimum of ``q' quad q - 2 lin' q`` over the simplex."""
    grid = simplex_grid(len(lin), resolution)
    values = np.einsum("gi,ij,gj->g", grid, quad, grid) - 2.0 * grid @ lin
    best = int(np.argmin(values))
    return grid[best], float(values[best])


def grid_nearest_simplex_point(
    point: np.ndarray, resolution: float = 1e-3
) -> tuple[np.ndarray, float]:
    """Grid point of the simplex closest to ``point`` in Euclidean norm."""
    grid = simplex_grid(len(point), resolution)
    distances = np.sum((grid - point) ** 2, axis=1)
    best = int(np.argmin(distances))
    return grid[best], float(distances[best])


def project_simplex(v: np.ndarray, mask: "np.ndarray | None" = None) -> np.ndarray:
    """Euclidean projection onto the probability simplex along the last axis.

    Sort-and-threshold method: with the entries sorted in decreasing
    order, find the largest prefix whose running average shifted to unit
    sum stays below its last element, then clip at that shift. With a
    boolean ``mask`` each row is projected onto the simplex over its
    ``True`` entries and is zero elsewhere.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("expects a nonempty vector")
    if mask is not None:
        if not np.all(np.any(mask, axis=-1)):
            raise ValueError("every row needs a nonempty support")
        # off-support entries sort last and never pass the threshold test
        v = np.where(mask, v, -np.inf)
    u = np.sort(v, axis=-1)[..., ::-1]
    cumulative = np.cumsum(u, axis=-1)
    ranks = np.arange(1, v.shape[-1] + 1)
    inside = (1.0 - cumulative) / ranks > -u
    count = np.where(inside, ranks, 0).max(axis=-1)
    rows = np.arange(count.size).reshape(count.shape)
    shift = (1.0 - cumulative.reshape(-1, v.shape[-1])[rows, count - 1]) / count
    return np.clip(v + shift[..., None], 0.0, None)


def neighbor_sets(n_nodes, edges, cluster_of):
    """Neighborhood families rebuilt from first principles with sets.

    Returns ``(neighbors, intra, inter, inter_plus)`` as dicts of sets.
    The closed neighborhood always contains the node itself; the intra
    and inter families split it by cluster membership, and inter_plus
    re-adds the node to its inter-cluster peers.
    """
    neighbors = {k: {k} for k in range(n_nodes)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    intra = {
        k: {l for l in neighbors[k] if cluster_of[l] == cluster_of[k]}
        for k in range(n_nodes)
    }
    inter = {
        k: {l for l in neighbors[k] if cluster_of[l] != cluster_of[k]}
        for k in range(n_nodes)
    }
    inter_plus = {k: inter[k] | {k} for k in range(n_nodes)}
    return neighbors, intra, inter, inter_plus


def neighbor_lists(topology: ClusteredTopology):
    """``(intra, inter, inter_plus)`` of a built topology as per-node sorted
    lists, rebuilt by ``neighbor_sets`` from its edge list."""
    n = topology.n_nodes
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if topology.adjacency[a, b]]
    _, *families = neighbor_sets(n, edges, topology.cluster_of)
    return tuple([sorted(family[k]) for k in range(n)] for family in families)


def metropolis_weights_loop(topology: ClusteredTopology) -> np.ndarray:
    """``topology.metropolis_weights`` node by node."""
    intra, _, _ = neighbor_lists(topology)
    n = topology.n_nodes
    sizes = [len(group) for group in intra]
    weights = np.zeros((n, n))
    for k in range(n):
        for l in intra[k]:
            if l != k:
                weights[l, k] = 1.0 / max(sizes[k], sizes[l])
        weights[k, k] = 1.0 - weights[:, k].sum()
    return weights


def averaging_rule_weights_loop(topology: ClusteredTopology) -> np.ndarray:
    """``topology.averaging_rule_weights`` node by node."""
    _, inter, _ = neighbor_lists(topology)
    n = topology.n_nodes
    rho = np.zeros((n, n))
    for k in range(n):
        group = inter[k]
        if group:
            rho[list(group), k] = 1.0 / len(group)
    return rho


def cooperation_from_regularizer_loop(
    topology: ClusteredTopology, rho: np.ndarray, eta: float, step_size: float
) -> np.ndarray:
    """``topology.cooperation_from_regularizer`` node by node, with the same
    error on the first node whose diagonal turns negative."""
    _, inter, _ = neighbor_lists(topology)
    n = topology.n_nodes
    rho = np.asarray(rho, dtype=float)
    coop = np.zeros((n, n))
    for k in range(n):
        group = list(inter[k])
        total = 0.0
        for l in group:
            coop[l, k] = step_size * eta * rho[l, k]
            total += rho[l, k]
        coop[k, k] = 1.0 - step_size * eta * total
        if coop[k, k] < 0.0:
            raise ValueError(
                f"cooperation diagonal for node {k} is {float(coop[k, k])}; "
                "reduce eta or the step size"
            )
    return coop


def expand_blocks(weights: np.ndarray, dim: int) -> np.ndarray:
    """Scalar weight matrix lifted to block-diagonal form, entry by entry."""
    n = weights.shape[0]
    out = np.zeros((n * dim, n * dim))
    for l in range(n):
        for k in range(n):
            for m in range(dim):
                out[l * dim + m, k * dim + m] = weights[l, k]
    return out


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    n, dim = blocks.shape[0], blocks.shape[1]
    out = np.zeros((n * dim, n * dim))
    for k in range(n):
        out[k * dim : (k + 1) * dim, k * dim : (k + 1) * dim] = blocks[k]
    return out


def stacked_parameter_moments(cluster_of, dim, cluster_means, sigma_w, spread_scale, gamma):
    """Node-stacked parameter mean and covariance, and the square root of the
    cluster covariance, built the long way round.

    Every node repeats its cluster's mean; the (P, P) covariance is spread
    to the nodes through the one-hot membership matrix and lifted by a
    Kronecker product; the cluster covariance is then read back off the
    blocks of one representative node per cluster.
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    cluster_means = np.asarray(cluster_means, dtype=float)
    sigma_w = np.asarray(sigma_w, dtype=float)
    n, p = cluster_of.shape[0], int(cluster_of.max()) + 1
    cluster_cov = spread_scale * np.asarray(gamma, dtype=float) * np.outer(sigma_w, sigma_w)
    stacked_mean = np.concatenate([cluster_means[cluster_of[k]] for k in range(n)])
    membership = np.zeros((n, p))
    membership[np.arange(n), cluster_of] = 1.0
    stacked_cov = np.kron(membership @ cluster_cov @ membership.T, np.eye(dim))
    reps = [int(np.flatnonzero(cluster_of == q)[0]) for q in range(p)]
    collapsed = np.empty((p * dim, p * dim))
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            collapsed[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = stacked_cov[
                i * dim : (i + 1) * dim, j * dim : (j + 1) * dim
            ]
    return stacked_mean, stacked_cov, _psd_sqrt(collapsed, "cluster parameter covariance")


def mean_stack(model: SignalModel) -> np.ndarray:
    """(N*M,) node parameter means, stacked: each node repeats its cluster's."""
    return model.cluster_means[model.cluster_of].reshape(-1)


def cov_stack(model: SignalModel) -> np.ndarray:
    """(N*M, N*M) stacked node parameter covariance, read off ``cluster_cov``."""
    index = (model.cluster_of[:, None] * model.dim + np.arange(model.dim)).reshape(-1)
    return model.cluster_cov[np.ix_(index, index)]


def parameter_second_moment(model: SignalModel) -> np.ndarray:
    """Stacked (N*M, N*M) second moment: covariance plus mean outer product."""
    mean = mean_stack(model)
    return cov_stack(model) + np.outer(mean, mean)


def regressor_covariances(model: SignalModel) -> np.ndarray:
    """(N, M, M) regressor covariances ``r_k I``, one node at a time."""
    return np.stack([power * np.eye(model.dim) for power in model.reg_power])


def regressor_roots(model: SignalModel) -> np.ndarray:
    """(N, M, M) symmetric square roots ``sqrt(r_k) I`` of the regressor
    covariances, for coloring white draws as a matrix product."""
    return np.stack([np.sqrt(power) * np.eye(model.dim) for power in model.reg_power])


def mean_transition_reference(combine, cooperation, model) -> np.ndarray:
    """Stacked mean transition assembled from looped block expansions."""
    dim = model.dim
    big_a = expand_blocks(np.asarray(combine, dtype=float), dim)
    big_g = expand_blocks(np.asarray(cooperation, dtype=float), dim)
    mu = model.step_size * np.eye(model.n_nodes * dim)
    ru = block_diagonal(regressor_covariances(model))
    return big_a.T @ big_g.T @ (np.eye(model.n_nodes * dim) - mu @ ru)


def forcing_matrices_reference(combine, cooperation, model):
    """Gradient-noise and spread forcing matrices from looped expansions."""
    dim = model.dim
    size = model.n_nodes * dim
    big_a = expand_blocks(np.asarray(combine, dtype=float), dim)
    big_g = expand_blocks(np.asarray(cooperation, dtype=float), dim)
    mu = model.step_size * np.eye(size)
    noise_blocks = block_diagonal(model.noise_var[:, None, None] * regressor_covariances(model))
    merged = big_a.T @ big_g.T
    noise_mat = merged @ mu @ noise_blocks @ mu @ merged.T
    leak = big_a.T @ (np.eye(size) - big_g.T)
    spread_mat = leak @ parameter_second_moment(model) @ leak.T
    return noise_mat, spread_mat


def cross_forcing_fixed_point(
    transition: np.ndarray,
    spread_mat: np.ndarray,
    tol: float = 1e-14,
    max_iters: int = 500_000,
) -> np.ndarray:
    """Error/spread coupling limit by literal fixed-point iteration.

    Iterates ``C <- (C + spread) B'`` from zero, the summed form of the
    coupling recursion, until the update stalls in relative terms.
    """
    current = np.zeros_like(spread_mat)
    floor = np.finfo(float).tiny
    for _ in range(max_iters):
        nxt = (current + spread_mat) @ transition.T
        if np.linalg.norm(nxt - current) <= tol * max(np.linalg.norm(nxt), floor):
            return nxt
        current = nxt
    raise RuntimeError("coupling fixed point did not converge")


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, consistent with kron identities."""
    return np.asarray(matrix).reshape(-1, order="F")


def mean_bias_vector(combine, cooperation, model) -> np.ndarray:
    """Constant driving term of the stacked mean-error recursion.

    Vanishes when every cluster shares the same mean parameter.
    """
    big_a = expand_blocks(np.asarray(combine, dtype=float), model.dim)
    big_g = expand_blocks(np.asarray(cooperation, dtype=float), model.dim)
    return big_a.T @ (np.eye(big_a.shape[0]) - big_g.T) @ mean_stack(model)


@dataclass(frozen=True)
class ForcingTerms:
    gradient_noise: np.ndarray  # vectorized, (N*M)**2
    parameter_spread: np.ndarray
    cross_limit: np.ndarray


def msd_forcing_terms(combine, cooperation, model) -> ForcingTerms:
    """Vectorized stacked forcing terms of the steady-state variance relation.

    The cross term is the steady-state limit of the error/spread coupling
    recursion, written in closed form through the mean transition.
    Requires a mean-stable configuration.
    """
    transition = mean_transition_reference(combine, cooperation, model)
    rho = spectral_radius(transition)
    if rho >= 1.0:
        raise ValueError(f"mean-unstable configuration, spectral radius {float(rho)}")
    noise_mat, spread_mat = forcing_matrices_reference(combine, cooperation, model)
    identity = np.eye(transition.shape[0])
    geometric = np.linalg.solve((identity - transition).T, transition.T).T
    return ForcingTerms(
        gradient_noise=vec(noise_mat),
        parameter_spread=vec(spread_mat),
        cross_limit=2.0 * vec(spread_mat @ geometric.T),
    )


def lifted_analysis(combine, cooperation, model):
    """``(rho_mean, msd, msd_approx, cluster_msd)`` on the stacked (N*M, N*M)
    matrices: one Stein solve per cluster indicator, and ``<F, S> / N``."""
    n, dim = model.n_nodes, model.dim
    if n * dim > SIZE_CAP:
        raise ValueError(f"stacked dimension {n * dim} exceeds the size cap {SIZE_CAP}")
    transition = mean_transition_reference(combine, cooperation, model)
    terms = msd_forcing_terms(combine, cooperation, model)
    stacked_of = np.repeat(model.cluster_of, dim)
    rhs = [np.eye(n * dim)]
    rhs.extend(np.diag((stacked_of == p).astype(float)) for p in range(model.n_clusters))
    solution = [vec(s) for s in solve_stein(transition, np.stack(rhs))]
    full = terms.gradient_noise + terms.parameter_spread + terms.cross_limit
    approx = terms.gradient_noise + terms.parameter_spread
    sizes = np.bincount(model.cluster_of, minlength=model.n_clusters)
    cluster_msd = np.array([full @ solution[1 + p] / sizes[p] for p in range(model.n_clusters)])
    return (
        spectral_radius(transition),
        float(full @ solution[0]) / n,
        float(approx @ solution[0]) / n,
        cluster_msd,
    )


def primal_msd(combine, cooperation, model):
    """``(msd, msd_approx, cluster_msd)`` by the primal route on the N x N
    matrices: one Stein solve ``S = B_N' S B_N + Y`` for ``Y = I`` and one per
    cluster indicator, each contracted with the forcing as ``<F, S> / size``."""
    operators = theory._operators(combine, cooperation, model)
    noise, spread, cross = theory._forcing(model, operators)
    rhs = [np.eye(model.n_nodes)]
    rhs.extend(np.diag((model.cluster_of == p).astype(float)) for p in range(model.n_clusters))
    solution = solve_stein(operators[2], np.stack(rhs)).reshape(len(rhs), -1)
    full = (noise + spread + cross).reshape(-1)
    approx = (noise + spread).reshape(-1)
    sizes = np.bincount(model.cluster_of, minlength=model.n_clusters)
    cluster_msd = np.array([full @ solution[1 + p] / sizes[p] for p in range(model.n_clusters)])
    return (
        float(full @ solution[0]) / model.n_nodes,
        float(approx @ solution[0]) / model.n_nodes,
        cluster_msd,
    )


def variance_transition(transition: np.ndarray, size_cap: int = SIZE_CAP) -> np.ndarray:
    """Second-order lift ``kron(B', B')`` of the mean transition.

    Guarded by a size cap because the result is quadratically larger.
    """
    n = transition.shape[0]
    if n > size_cap:
        raise ValueError(
            f"stacked dimension {n} exceeds the size cap {size_cap} for squared-size operators"
        )
    return np.kron(transition.T, transition.T)


def lifted_transition_bruteforce(transition: np.ndarray) -> np.ndarray:
    """Second-order lift spelled out with four explicit indices.

    Under column-major vectorization the entry at (i + j*n, k + l*n)
    carries X[k, l] into (B' X B)[i, j].
    """
    n = transition.shape[0]
    out = np.empty((n * n, n * n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i + j * n, k + l * n] = transition[k, i] * transition[l, j]
    return out


def project_columns_loop(
    coop: np.ndarray, support_mask: np.ndarray, project=project_simplex
) -> np.ndarray:
    """Project each column onto the simplex over its support, one at a time,
    with ``project`` as it was defined, even where a test replaces the name."""
    out = np.zeros_like(coop)
    for k in range(coop.shape[1]):
        idx = np.flatnonzero(support_mask[:, k])
        out[idx, k] = project(coop[idx, k])
    return out


def msd_series(
    transition: np.ndarray,
    forcing_mat: np.ndarray,
    weight_mat: np.ndarray,
    tol: float = 1e-14,
    max_terms: int = 1_000_000,
) -> float:
    """Steady-state weighted variance by partial sums, no linear solve.

    Accumulates ``sum_j <forcing, B'^j W B^j>`` until the terms vanish
    relative to the running total.
    """
    term_mat = np.asarray(weight_mat, dtype=float).copy()
    total = 0.0
    for _ in range(max_terms):
        term = float(np.sum(forcing_mat * term_mat))
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            return total
        term_mat = transition.T @ term_mat @ transition
    raise RuntimeError("variance series did not converge")


def sampled_variance_transition(
    combine: np.ndarray,
    cooperation: np.ndarray,
    model: SignalModel,
    n_samples: int,
    rng: np.random.Generator,
    n_batches: int = 20,
    size_cap: int = SIZE_CAP,
) -> tuple[np.ndarray, float, float]:
    """Monte-Carlo estimate of the exact second-order transition.

    Draws per-iteration regressor matrices, lifts each instantaneous
    transition, and averages. Returns the averaged operator, its spectral
    radius, and a spread estimate from batch means.
    """
    dim, n = model.dim, model.n_nodes
    if n * dim > size_cap:
        raise ValueError(f"stacked dimension {n * dim} exceeds the size cap {size_cap}")
    big = expand_blocks(combine, dim).T @ expand_blocks(cooperation, dim).T
    mu = model.step_size
    identity = np.eye(n * dim)

    n_batches = max(1, min(n_batches, n_samples))
    batch_sizes = np.full(n_batches, n_samples // n_batches)
    batch_sizes[: n_samples % n_batches] += 1
    batch_means = []
    total = np.zeros(((n * dim) ** 2, (n * dim) ** 2))
    for size in batch_sizes:
        batch_sum = np.zeros_like(total)
        for _ in range(int(size)):
            u = np.sqrt(model.reg_power)[:, None] * rng.standard_normal((n, dim))
            inst_cov = block_diagonal(np.einsum("ni,nj->nij", u, u))
            inst = big @ (identity - mu * inst_cov)
            batch_sum += np.kron(inst.T, inst.T)
        batch_means.append(batch_sum / size)
        total += batch_sum
    estimate = total / n_samples
    rho = spectral_radius(estimate)
    if len(batch_means) > 1:
        batch_rhos = [spectral_radius(m) for m in batch_means]
        spread = float(np.std(batch_rhos, ddof=1) / np.sqrt(len(batch_rhos)))
    else:
        spread = float("nan")
    return estimate, rho, spread


def mean_error_trajectory(
    transition: np.ndarray, bias: np.ndarray, start: np.ndarray, n_iters: int
) -> np.ndarray:
    """Iterates of ``e <- transition e + bias``, start included, (T+1, N*M)."""
    out = np.empty((n_iters + 1, start.shape[0]))
    out[0] = start
    current = np.asarray(start, dtype=float)
    for i in range(1, n_iters + 1):
        current = transition @ current + bias
        out[i] = current
    return out


def random_cooperation(topology, rng: np.random.Generator) -> np.ndarray:
    """Random left-stochastic cooperation weights on the allowed support."""
    n = topology.n_nodes
    coop = np.zeros((n, n))
    for k, support in enumerate(neighbor_lists(topology)[2]):
        draws = rng.random(len(support)) + 1e-3
        coop[support, k] = draws / draws.sum()
    return coop


def loop_maic_step(w, regressors, responses, combine, cooperation, step_size):
    """One adapt/cooperate/combine round written as per-node loops."""
    n, dim = w.shape
    psi = np.empty_like(w)
    for k in range(n):
        err = responses[k] - float(regressors[k] @ w[k])
        psi[k] = w[k] + step_size * err * regressors[k]
    phi = np.empty_like(w)
    for k in range(n):
        acc = np.zeros(dim)
        for l in range(n):
            if cooperation[l, k] != 0.0:
                acc = acc + cooperation[l, k] * psi[l]
        phi[k] = acc
    out = np.empty_like(w)
    for k in range(n):
        acc = np.zeros(dim)
        for l in range(n):
            if combine[l, k] != 0.0:
                acc = acc + combine[l, k] * phi[l]
        out[k] = acc
    return out


def loop_mdlms_pull(w, regularizer):
    """Regularizer pull ``sum_l rho[l,k] (w_l - w_k)`` node by node."""
    n, dim = w.shape
    pull = np.zeros_like(w)
    for k in range(n):
        for l in range(n):
            if regularizer[l, k] != 0.0:
                pull[k] += regularizer[l, k] * (w[l] - w[k])
    return pull


def einsum_inter_cluster_combine(adapted, cooperation):
    """Cooperation step as an einsum over the node axis, fixed or per run."""
    if cooperation.ndim == 2:
        return np.einsum("...lm,lk->...km", adapted, cooperation)
    return np.einsum("...lm,...lk->...km", adapted, cooperation)


def einsum_intra_cluster_combine(cooperated, combine):
    """Intra-cluster merge as an einsum over the node axis."""
    return np.einsum("...lm,lk->...km", cooperated, combine)


def einsum_node_dot(a, b):
    """Per-node inner product over the parameter axis as an einsum (the LMS
    error and the deviation norm)."""
    return np.einsum("...nm,...nm->...n", a, b)


def einsum_gram(w):
    """Gram matrix of each run's node iterates as an einsum."""
    return np.einsum("bim,bjm->bij", w, w)


def einsum_color(reg_sqrt, z):
    """White draws ``z`` (T, N, M) colored per node by ``reg_sqrt`` (N, M, M)."""
    return np.einsum("nij,tnj->tni", reg_sqrt, z)


def broadcast_color(reg_sqrt, z):
    """White draws ``z`` (T, N, M) colored per node column by column with
    broadcasting, into a C-ordered (T, N, M) array: the coloring that
    ``draw_regressors`` did before it wrote one (T, N) plane per component."""
    colored = reg_sqrt[:, :, 0] * z[..., 0, None]
    for j in range(1, z.shape[-1]):
        colored += reg_sqrt[:, :, j] * z[..., j, None]
    return colored


def einsum_mdlms_pull(w, regularizer):
    """Regularizer pull ``sum_l rho[l,k] (w_l - w_k)`` as an einsum."""
    pull = np.einsum("...lm,lk->...km", w, regularizer)
    pull -= regularizer.sum(axis=0)[:, None] * w
    return pull


def atc_step(
    state: StrategyState,
    regressors: np.ndarray,
    responses: np.ndarray,
    combine: np.ndarray,
    step_size: float,
) -> np.ndarray:
    """Adapt then combine, no information crossing cluster borders."""
    psi = adapt(state.weights, regressors, responses, step_size)
    new = intra_cluster_combine(psi, combine)
    state.weights = new
    return new


def enumerate_subsets(n: int) -> list[np.ndarray]:
    subsets = []
    for bits in range(1, 2**n):
        subsets.append(np.flatnonzero([(bits >> j) & 1 for j in range(n)]))
    return subsets


def solve_simplex_qp_batch_loop(
    quad: np.ndarray, lin: np.ndarray, ridge: float = EPS_RIDGE
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly minimize a batch of small simplex QPs, one face at a time.

    Faces are visited in bit-enumeration order and a candidate replaces
    the incumbent only when its objective is strictly lower.

    Enumerates every face of the simplex, solves the equality-constrained
    restriction in closed form, and keeps the best feasible candidate.
    Intended for the per-iteration weight updates where each instance has
    only a handful of coordinates. Returns the minimizers and a boolean
    mask of instances solved successfully.

    Parameters
    ----------
    quad: (B, n, n) symmetric PSD batch
    lin:  (B, n) linear terms, objective ``q' quad q - 2 lin' q``
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    batch, n = lin.shape
    quad = quad + ridge * np.eye(n)

    best_obj = np.full(batch, np.inf)
    best_q = np.zeros((batch, n))
    for subset in enumerate_subsets(n):
        s = subset.size
        if s == 1:
            j = int(subset[0])
            obj = quad[:, j, j] - 2.0 * lin[:, j]
            better = obj < best_obj
            if better.any():
                best_q[better] = 0.0
                best_q[better, j] = 1.0
                best_obj[better] = obj[better]
            continue
        sub_quad = quad[np.ix_(np.arange(batch), subset, subset)]
        # stationarity bordered by the simplex row: [[Q, 1], [1', 0]] [q; -nu] = [l; 1]
        kkt = np.empty((batch, s + 1, s + 1))
        kkt[:, :s, :s] = sub_quad
        kkt[:, :s, s] = 1.0
        kkt[:, s, :s] = 1.0
        kkt[:, s, s] = 0.0
        rhs = np.empty((batch, s + 1, 1))
        rhs[:, :s, 0] = lin[:, subset]
        rhs[:, s, 0] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.full((batch, s + 1, 1), np.nan)
            for b in range(batch):
                try:
                    sol[b] = np.linalg.solve(kkt[b], rhs[b])
                except np.linalg.LinAlgError:
                    pass
        candidate = sol[:, :s, 0]
        feasible = (
            np.isfinite(candidate).all(axis=1)
            & (candidate.min(axis=1) >= -1e-10)
            & (np.abs(candidate.sum(axis=1) - 1.0) <= 1e-10)
        )
        obj = np.einsum("bi,bij,bj->b", candidate, sub_quad, candidate) - 2.0 * np.einsum(
            "bi,bi->b", lin[:, subset], candidate
        )
        better = feasible & (obj < best_obj)
        if better.any():
            best_q[better] = 0.0
            rows = np.flatnonzero(better)
            best_q[np.ix_(rows, subset)] = candidate[better]
            best_obj[better] = obj[better]

    ok = np.isfinite(best_obj)
    best_q = np.clip(best_q, 0.0, None)
    sums = best_q.sum(axis=1)
    good = ok & (sums > 0)
    best_q[good] /= sums[good, None]
    return best_q, ok


def local_program(
    node: int, model: SignalModel, topology: ClusteredTopology
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Node ``node``'s local weight program from the exact moments, entry
    by entry: ``(support, quad, lin)`` with the objective
    ``q' quad q - 2 lin' q`` over the simplex on the inter-cluster
    support (self included).

    The quadratic term is the gradient-noise power ``mu^2 sigma_v^2
    tr(R_u)`` on the diagonal plus the traces of the parameter
    second-moment blocks; the linear term pairs each candidate with the
    node's own parameter.
    """
    support = tuple(neighbor_lists(topology)[2][node])
    mu = model.step_size
    dim = model.dim
    reg_cov = regressor_covariances(model)
    second = parameter_second_moment(model)

    def trace_of_block(a, b):
        return sum(second[a * dim + m, b * dim + m] for m in range(dim))

    quad = np.array([[trace_of_block(a, b) for b in support] for a in support])
    for i, a in enumerate(support):
        quad[i, i] += mu**2 * model.noise_var[a] * np.trace(reg_cov[a])
    lin = np.array([trace_of_block(a, node) for a in support])
    return support, quad, lin


def solve_learned_columns_loop(
    state: StrategyState,
    psi: np.ndarray,
    topology: ClusteredTopology,
    alpha: float,
    qp_solver,
) -> np.ndarray:
    """Update increment-power estimates and solve one weight column per node,
    one solver call per node."""
    w_prev = state.weights
    batch_shape = w_prev.shape[:-2]
    n, dim = w_prev.shape[-2:]
    flat_w = w_prev.reshape(-1, n, dim)
    flat_psi = psi.reshape(-1, n, dim)
    batch = flat_w.shape[0]

    # Smoothed squared distance between each adapted iterate and the
    # receiving node's previous iterate, for every pair and then kept on
    # each node's support; moments come from the production contraction,
    # so only grouping, scatter and fallbacks differ from the library route.
    increment = flat_psi[:, :, None, :] - flat_w[:, None, :, :]
    sq_dist = row_dot(increment, increment)
    flat_power = state.increment_power.reshape(-1, n, n)

    learned = np.zeros((batch, n, n))
    fallbacks = np.zeros(batch, dtype=np.int64)
    for k, support in enumerate(neighbor_lists(topology)[2]):
        flat_power[:, support, k] = (
            alpha * flat_power[:, support, k] + (1.0 - alpha) * sq_dist[:, support, k]
        )
        size = len(support)
        if size == 1:
            learned[:, k, k] = 1.0
            continue
        candidates = flat_w[:, support, :]
        quad = row_dot(candidates[:, :, None, :], candidates[:, None, :, :])
        idx = np.arange(size)
        quad[:, idx, idx] += flat_power[:, support, k]
        lin = row_dot(candidates, flat_w[:, k, None, :])
        column, ok = qp_solver(quad, lin)
        bad = ~ok
        if bad.any():
            column[bad] = 0.0
            column[bad, support.index(k)] = 1.0
            fallbacks += bad
        learned[np.ix_(np.arange(batch), support, [k])] = column[:, :, None]

    state.fallback_count += fallbacks.reshape(batch_shape)
    state.increment_power = flat_power.reshape(batch_shape + (n, n))
    return learned.reshape(batch_shape + (n, n))


@dataclass(frozen=True)
class CentralizedQP:
    """Network-wide cooperation-weight program in trace-compressed form, the
    program of the projected-gradient reference.

    The full program lives on stacked (N*M)-dimensional moments; because
    the unknown acts blockwise, every term collapses to traces of M x M
    blocks, leaving N x N data. ``coupling`` is the combine-weight Gram
    matrix, ``curvature`` the compressed noise-plus-parameter moment, and
    ``cross`` the compressed parameter second moment.
    """

    coupling: np.ndarray  # (N, N)
    curvature: np.ndarray  # (N, N)
    cross: np.ndarray  # (N, N)
    support_mask: np.ndarray  # (N, N) bool, column convention

    def objective(self, coop: np.ndarray) -> float:
        quad = np.trace(coop @ self.coupling @ coop.T @ self.curvature)
        lin = np.trace(coop @ self.coupling @ self.cross)
        return float(quad - 2.0 * lin)

    def gradient(self, coop: np.ndarray) -> np.ndarray:
        return 2.0 * (self.curvature @ coop @ self.coupling - self.cross @ self.coupling)


def build_centralized_qp(
    model: SignalModel, topology: ClusteredTopology, combine: np.ndarray
) -> CentralizedQP:
    noise_term, second_moment = model.gradient_noise_power, model.second_moment_traces
    coupling = combine @ combine.T
    curvature = np.diag(noise_term) + second_moment
    return CentralizedQP(
        coupling=coupling,
        curvature=curvature,
        cross=second_moment,
        support_mask=topology.inter_plus,
    )


def solve_p1_fista(
    model: SignalModel,
    topology: ClusteredTopology,
    combine: np.ndarray,
    tol: float = KKT_TOL,
    max_iters: int = 100_000,
) -> tuple[np.ndarray, QPSolution]:
    """Solve the centralized program by accelerated projected gradient.

    Columns are projected independently onto their support simplices by
    ``project_simplex``, looked up at call time. The returned
    certificate carries the worst per-column KKT residual.
    """
    qp = build_centralized_qp(model, topology, combine)
    mask = qp.support_mask
    columns = [np.flatnonzero(mask[:, k]) for k in range(topology.n_nodes)]

    lipschitz = 2.0 * float(np.linalg.eigvalsh(qp.coupling)[-1]) * float(
        np.linalg.eigvalsh(qp.curvature)[-1]
    )
    step = 1.0 / max(lipschitz, EPS_RIDGE)

    def certificate(point: np.ndarray) -> float:
        grad_now = qp.gradient(point)
        return max(kkt_residual(point[idx, k], grad_now[idx, k]) for k, idx in enumerate(columns))

    coop = project_simplex(np.where(mask, 1.0, 0.0).T, mask.T).T
    momentum = coop.copy()
    t = 1.0
    residual = float("inf")
    iterations = 0
    check_every = 25
    for iterations in range(1, max_iters + 1):
        grad = qp.gradient(momentum)
        coop_next = project_simplex((momentum - step * grad).T, mask.T).T
        if np.vdot(momentum - coop_next, coop_next - coop) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = coop_next + ((t - 1.0) / t_next) * (coop_next - coop)
        coop = coop_next
        t = t_next
        if iterations % check_every == 0 or iterations == max_iters:
            residual = certificate(coop)
            if residual <= tol:
                break
    if not np.isfinite(residual):
        residual = certificate(coop)
    solution = QPSolution(coop, qp.objective(coop), residual, iterations, residual <= tol)
    return coop, solution


def centralized_objective_expanded(
    coop: np.ndarray, combine: np.ndarray, model: SignalModel
) -> float:
    """Centralized objective evaluated on the full stacked moments.

    Forms the stacked quadratic and linear terms literally, without the
    trace compression, to cross-check the reduced evaluator.
    """
    dim = model.dim
    mu = model.step_size
    combine_big = expand_blocks(combine, dim)
    coop_big = expand_blocks(coop, dim)
    gram = combine_big @ combine_big.T
    noise_big = np.zeros_like(gram)
    reg_cov = regressor_covariances(model)
    for k in range(model.n_nodes):
        block = slice(k * dim, (k + 1) * dim)
        noise_big[block, block] = model.noise_var[k] * reg_cov[k]
    second = parameter_second_moment(model)
    quad_term = (mu**2) * noise_big + second
    kron_quad = np.kron(gram, quad_term)
    kron_lin = 2.0 * (second @ gram).reshape(-1, order="F")
    y = coop_big.reshape(-1, order="F")
    return float(y @ kron_quad @ y - kron_lin @ y)
