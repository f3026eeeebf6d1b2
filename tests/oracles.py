"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library
code it validates: explicit index loops instead of vectorized identities,
exhaustive grids instead of closed-form solvers, fixed-point iteration
instead of linear solves, python sets instead of masked arrays. Slow is
fine; these only ever run on small instances.
"""

from __future__ import annotations

import numpy as np

from maicnet.signal_model import SignalModel
from maicnet.strategies import StrategyState, adapt, intra_cluster_combine
from maicnet.theory import SIZE_CAP, _stack_block_diag, spectral_radius, step_size_matrix
from maicnet.topology import ClusteredTopology, kron_expand
from maicnet.weight_opt import EPS_RIDGE, project_simplex


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


def mean_transition_reference(combine, cooperation, model) -> np.ndarray:
    """Stacked mean transition assembled from looped block expansions."""
    dim = model.dim
    big_a = expand_blocks(np.asarray(combine, dtype=float), dim)
    big_g = expand_blocks(np.asarray(cooperation, dtype=float), dim)
    mu = np.diag(np.repeat(model.step_sizes, dim))
    ru = block_diagonal(model.reg_cov)
    return big_a.T @ big_g.T @ (np.eye(model.n_nodes * dim) - mu @ ru)


def forcing_matrices_reference(combine, cooperation, model):
    """Gradient-noise and spread forcing matrices from looped expansions."""
    dim = model.dim
    size = model.n_nodes * dim
    big_a = expand_blocks(np.asarray(combine, dtype=float), dim)
    big_g = expand_blocks(np.asarray(cooperation, dtype=float), dim)
    mu = np.diag(np.repeat(model.step_sizes, dim))
    noise_blocks = block_diagonal(model.noise_var[:, None, None] * model.reg_cov)
    merged = big_a.T @ big_g.T
    noise_mat = merged @ mu @ noise_blocks @ mu @ merged.T
    leak = big_a.T @ (np.eye(size) - big_g.T)
    spread_mat = leak @ model.parameter_second_moment @ leak.T
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


def project_columns_loop(coop: np.ndarray, support_mask: np.ndarray) -> np.ndarray:
    """Project each column onto the simplex over its support, one at a time."""
    out = np.zeros_like(coop)
    for k in range(coop.shape[1]):
        idx = np.flatnonzero(support_mask[:, k])
        out[idx, k] = project_simplex(coop[idx, k])
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
    big = kron_expand(combine, dim).T @ kron_expand(cooperation, dim).T
    mu = step_size_matrix(model)
    identity = np.eye(n * dim)

    n_batches = max(1, min(n_batches, n_samples))
    batch_sizes = np.full(n_batches, n_samples // n_batches)
    batch_sizes[: n_samples % n_batches] += 1
    batch_means = []
    total = np.zeros(((n * dim) ** 2, (n * dim) ** 2))
    for size in batch_sizes:
        batch_sum = np.zeros_like(total)
        for _ in range(int(size)):
            u = np.einsum(
                "nij,nj->ni", model._reg_sqrt, rng.standard_normal((n, dim))
            )
            inst_cov = _stack_block_diag(np.einsum("ni,nj->nij", u, u))
            inst = big @ (identity - mu @ inst_cov)
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
    for k in range(n):
        support = sorted(topology.inter_plus[k])
        draws = rng.random(len(support)) + 1e-3
        coop[support, k] = draws / draws.sum()
    return coop


def loop_maic_step(w, regressors, responses, combine, cooperation, step_sizes):
    """One adapt/cooperate/combine round written as per-node loops."""
    n, dim = w.shape
    psi = np.empty_like(w)
    for k in range(n):
        err = responses[k] - float(regressors[k] @ w[k])
        psi[k] = w[k] + step_sizes[k] * err * regressors[k]
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
    step_sizes: np.ndarray,
) -> np.ndarray:
    """Adapt then combine, no information crossing cluster borders."""
    psi = adapt(state.weights, regressors, responses, step_sizes)
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
    ones_template = np.ones(n)
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
        rhs = np.empty((batch, s, 2))
        rhs[:, :, 0] = lin[:, subset]
        rhs[:, :, 1] = ones_template[subset]
        try:
            sol = np.linalg.solve(sub_quad, rhs)
        except np.linalg.LinAlgError:
            sol = np.full((batch, s, 2), np.nan)
            for b in range(batch):
                try:
                    sol[b] = np.linalg.solve(sub_quad[b], rhs[b])
                except np.linalg.LinAlgError:
                    pass
        a, b_dir = sol[:, :, 0], sol[:, :, 1]
        denom = b_dir.sum(axis=1)
        safe = np.abs(denom) > 1e-300
        lam = np.where(safe, (1.0 - a.sum(axis=1)) / np.where(safe, denom, 1.0), np.nan)
        candidate = a + lam[:, None] * b_dir
        feasible = (
            np.isfinite(candidate).all(axis=1)
            & (candidate.min(axis=1) >= -1e-10)
            & safe
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
    support = topology.inter_plus[node]
    mu = model.uniform_step_size()
    dim = model.dim
    second = model.parameter_second_moment

    def trace_of_block(a, b):
        return sum(second[a * dim + m, b * dim + m] for m in range(dim))

    quad = np.array([[trace_of_block(a, b) for b in support] for a in support])
    for i, a in enumerate(support):
        quad[i, i] += mu**2 * model.noise_var[a] * np.trace(model.reg_cov[a])
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
    # receiving node's previous iterate, tracked on neighborhood pairs.
    psi_sq = np.einsum("bnm,bnm->bn", flat_psi, flat_psi)
    w_sq = np.einsum("bnm,bnm->bn", flat_w, flat_w)
    cross = np.einsum("blm,bkm->blk", flat_psi, flat_w)
    sq_dist = psi_sq[:, :, None] + w_sq[:, None, :] - 2.0 * cross
    flat_power = state.increment_power.reshape(-1, n, n)
    mask = topology.adjacency
    flat_power[:, mask] = alpha * flat_power[:, mask] + (1.0 - alpha) * sq_dist[:, mask]

    learned = np.zeros((batch, n, n))
    fallbacks = 0
    for k in range(n):
        support = list(topology.inter_plus[k])
        size = len(support)
        if size == 1:
            learned[:, k, k] = 1.0
            continue
        candidates = flat_w[:, support, :]
        quad = np.einsum("bim,bjm->bij", candidates, candidates)
        idx = np.arange(size)
        quad[:, idx, idx] += flat_power[:, support, k]
        lin = np.einsum("bim,bm->bi", candidates, flat_w[:, k, :])
        column, ok = qp_solver(quad, lin)
        bad = ~ok
        if bad.any():
            column[bad] = 0.0
            column[bad, support.index(k)] = 1.0
            fallbacks += int(bad.sum())
        learned[np.ix_(np.arange(batch), support, [k])] = column[:, :, None]

    state.fallback_count += fallbacks
    state.increment_power = flat_power.reshape(batch_shape + (n, n))
    return learned.reshape(batch_shape + (n, n))


def centralized_objective_expanded(
    coop: np.ndarray, combine: np.ndarray, model: SignalModel
) -> float:
    """Centralized objective evaluated on the full stacked moments.

    Forms the stacked quadratic and linear terms literally, without the
    trace compression, to cross-check the reduced evaluator.
    """
    dim = model.dim
    mu = model.uniform_step_size()
    combine_big = kron_expand(combine, dim)
    coop_big = kron_expand(coop, dim)
    gram = combine_big @ combine_big.T
    noise_big = np.zeros_like(gram)
    for k in range(model.n_nodes):
        block = slice(k * dim, (k + 1) * dim)
        noise_big[block, block] = model.noise_var[k] * model.reg_cov[k]
    second = model.parameter_second_moment
    quad_term = (mu**2) * noise_big + second
    kron_quad = np.kron(gram, quad_term)
    kron_lin = 2.0 * (second @ gram).reshape(-1, order="F")
    y = coop_big.reshape(-1, order="F")
    return float(y @ kron_quad @ y - kron_lin @ y)
