"""Simplex-constrained quadratic programs for cooperation weights.

Two program families are covered. The local program picks one column of
the cooperation matrix per node from that node's inter-cluster support,
using only quantities the node can know or estimate. The centralized
program picks the whole matrix at once and couples columns through the
combine weights. Both reduce to convex QPs over probability simplices
and are solved by accelerated projected gradient descent with a KKT
certificate; a direct active-set enumeration is provided for batches of
small instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .signal_model import SignalModel
from .topology import ClusteredTopology

__all__ = [
    "project_simplex",
    "SimplexQP",
    "QPSolution",
    "solve_simplex_qp",
    "solve_simplex_qp_batch",
    "build_local_qp",
    "local_qp_from_estimates",
    "solve_p2_all_nodes",
    "CentralizedQP",
    "build_centralized_qp",
    "solve_p1",
    "centralized_objective_expanded",
    "block_trace",
]

EPS_RIDGE = 1e-12
KKT_ACTIVE_TOL = 1e-10


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


@dataclass(frozen=True)
class SimplexQP:
    """Minimize ``q' quad q - 2 lin' q`` over the probability simplex.

    ``support`` records which node each coordinate refers to.
    """

    quad: np.ndarray
    lin: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        quad = np.asarray(self.quad, dtype=float)
        lin = np.asarray(self.lin, dtype=float)
        n = lin.shape[0]
        if quad.shape != (n, n) or len(self.support) != n:
            raise ValueError("inconsistent QP dimensions")
        if not np.allclose(quad, quad.T, atol=1e-10, rtol=0.0):
            raise ValueError("quadratic term must be symmetric")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)

    def objective(self, q: np.ndarray) -> float:
        return float(q @ self.quad @ q - 2.0 * self.lin @ q)

    def gradient(self, q: np.ndarray) -> np.ndarray:
        return 2.0 * (self.quad @ q - self.lin)


@dataclass(frozen=True)
class QPSolution:
    weights: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    certified: bool


def kkt_residual(q: np.ndarray, grad: np.ndarray, active_tol: float = KKT_ACTIVE_TOL) -> float:
    """Stationarity violation of a simplex-feasible point.

    At an optimum the gradient is constant on the support and at least
    that constant elsewhere. Returns the larger of the on-support spread
    and the off-support shortfall.
    """
    active = q > active_tol
    if not active.any():
        return float("inf")
    lo = float(grad[active].min())
    spread = float(grad[active].max()) - lo
    inactive = ~active
    shortfall = max(0.0, lo - float(grad[inactive].min())) if inactive.any() else 0.0
    return max(spread, shortfall)


def solve_simplex_qp(qp: SimplexQP, tol: float = 1e-8, max_iters: int = 10_000) -> QPSolution:
    """Accelerated projected gradient with a fixed step of one over the
    gradient Lipschitz constant, restarted when momentum points uphill.
    """
    n = qp.lin.shape[0]
    quad = qp.quad + EPS_RIDGE * np.eye(n)
    if n == 1:
        q = np.ones(1)
        return QPSolution(q, qp.objective(q), 0.0, 0, True)

    lipschitz = 2.0 * float(np.linalg.eigvalsh(quad)[-1])
    step = 1.0 / max(lipschitz, EPS_RIDGE)
    q = np.full(n, 1.0 / n)
    momentum = q.copy()
    t = 1.0
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = 2.0 * (quad @ momentum - qp.lin)
        q_next = project_simplex(momentum - step * grad)
        if (momentum - q_next) @ (q_next - q) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = q_next + ((t - 1.0) / t_next) * (q_next - q)
        q = q_next
        t = t_next
        residual = kkt_residual(q, 2.0 * (quad @ q - qp.lin))
        if residual <= tol:
            break
    return QPSolution(q, qp.objective(q), residual, iterations, residual <= tol)


@functools.lru_cache(maxsize=None)
def _face_table(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Faces of the n-coordinate simplex, grouped by size.

    Faces are ranked in bit-enumeration order (face ``bits`` holds
    coordinate j when bit j is set). Each entry is ``(ranks, members)``:
    the ranks of all faces of one size and their coordinates, ``(F, size)``.
    """
    faces = [[j for j in range(n) if (bits >> j) & 1] for bits in range(1, 2**n)]
    table = []
    for size in range(1, n + 1):
        ranks = np.array([r for r, face in enumerate(faces) if len(face) == size])
        members = np.array([faces[r] for r in ranks])
        ranks.flags.writeable = False
        members.flags.writeable = False
        table.append((ranks, members))
    return tuple(table)


def solve_simplex_qp_batch(
    quad: np.ndarray, lin: np.ndarray, ridge: float = EPS_RIDGE
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly minimize a batch of small simplex QPs.

    Enumerates every face of the simplex, solves the equality-constrained
    restriction in closed form, and keeps the best feasible candidate.
    All faces of one size are solved for the whole batch in one stacked
    ``np.linalg.solve``. Ties go to the face enumerated first, and a NaN
    objective never wins. Intended for the per-iteration weight updates
    where each instance has only a handful of coordinates. Returns the
    minimizers and a boolean mask of instances solved successfully.

    Parameters
    ----------
    quad: (B, n, n) symmetric PSD batch
    lin:  (B, n) linear terms, objective ``q' quad q - 2 lin' q``
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    batch, n = lin.shape
    quad = quad + ridge * np.eye(n)

    # objective and point of every face for every instance, faces in rank order
    objective = np.empty((batch, 2**n - 1))
    points = np.zeros((batch, 2**n - 1, n))
    for ranks, members in _face_table(n):
        size = members.shape[1]
        if size == 1:
            j = members[:, 0]
            objective[:, ranks] = quad[:, j, j] - 2.0 * lin[:, j]
            points[:, ranks, j] = 1.0
            continue
        sub_quad = quad[:, members[:, :, None], members[:, None, :]].reshape(-1, size, size)
        sub_lin = lin[:, members].reshape(-1, size)
        rhs = np.empty(sub_lin.shape + (2,))
        rhs[:, :, 0] = sub_lin
        rhs[:, :, 1] = 1.0
        try:
            sol = np.linalg.solve(sub_quad, rhs)
        except np.linalg.LinAlgError:
            sol = np.full(rhs.shape, np.nan)
            for b in range(len(rhs)):
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
            "bi,bi->b", sub_lin, candidate
        )
        objective[:, ranks] = np.where(feasible, obj, np.inf).reshape(batch, -1)
        points[:, ranks[:, None], members] = candidate.reshape(batch, -1, size)

    # argmin keeps the first minimum, as a running strict '<' would, but
    # unlike '<' it would pick a NaN
    objective[np.isnan(objective)] = np.inf
    rows = np.arange(batch)
    choice = np.argmin(objective, axis=1)
    best_obj = objective[rows, choice]
    best_q = points[rows, choice]
    best_q[best_obj == np.inf] = 0.0  # no feasible face with a usable objective

    ok = np.isfinite(best_obj)
    best_q = np.clip(best_q, 0.0, None)
    sums = best_q.sum(axis=1)
    good = ok & (sums > 0)
    best_q[good] /= sums[good, None]
    return best_q, ok


def block_trace(matrix: np.ndarray, block_dim: int) -> np.ndarray:
    """Compress an (N*M, N*M) matrix to the (N, N) matrix of block traces."""
    n = matrix.shape[0] // block_dim
    blocks = matrix.reshape(n, block_dim, n, block_dim)
    return np.einsum("imjm->ij", blocks)


def _moment_tables(model: SignalModel) -> tuple[np.ndarray, np.ndarray, float]:
    mu = model.uniform_step_size()
    reg_trace = np.einsum("nii->n", model.reg_cov)
    noise_term = (mu**2) * model.noise_var * reg_trace
    second_moment = block_trace(model.parameter_second_moment, model.dim)
    return noise_term, second_moment, mu


def build_local_qp(node: int, model: SignalModel, topology: ClusteredTopology) -> SimplexQP:
    """Local cooperation-weight program for one node from exact moments.

    Coordinates follow the node's inter-cluster support (self included).
    The quadratic term is the gradient-noise diagonal plus the Gram
    matrix of candidate parameter traces; the linear term aligns the
    column with the node's own parameter.
    """
    support = topology.inter_plus[node]
    noise_term, second_moment, _ = _moment_tables(model)
    idx = list(support)
    quad = np.diag(noise_term[idx]) + second_moment[np.ix_(idx, idx)]
    lin = second_moment[idx, node]
    return SimplexQP(quad=quad, lin=lin, support=support)


def local_qp_from_estimates(
    support: tuple[int, ...],
    noise_estimates: np.ndarray,
    candidates: np.ndarray,
    own: np.ndarray,
) -> SimplexQP:
    """Local program assembled from online estimates.

    ``candidates`` stacks the current parameter iterates of the support
    nodes as rows; ``own`` is the node's own iterate; ``noise_estimates``
    is the smoothed squared adaptation-increment proxy per support node.
    """
    candidates = np.asarray(candidates, dtype=float)
    quad = np.diag(np.asarray(noise_estimates, dtype=float)) + candidates @ candidates.T
    lin = candidates @ np.asarray(own, dtype=float)
    return SimplexQP(quad=quad, lin=lin, support=tuple(support))


def solve_p2_all_nodes(
    model: SignalModel,
    topology: ClusteredTopology,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, list[QPSolution]]:
    """Solve the local program at every node and assemble the cooperation
    matrix column by column. Requires a uniform step size."""
    n = topology.n_nodes
    coop = np.zeros((n, n))
    solutions = []
    for k in range(n):
        qp = build_local_qp(k, model, topology)
        sol = solve_simplex_qp(qp, tol=tol, max_iters=max_iters)
        coop[list(qp.support), k] = sol.weights
        solutions.append(sol)
    return coop, solutions


@dataclass(frozen=True)
class CentralizedQP:
    """Network-wide cooperation-weight program in trace-compressed form.

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
    noise_term, second_moment, _ = _moment_tables(model)
    coupling = combine @ combine.T
    curvature = np.diag(noise_term) + second_moment
    return CentralizedQP(
        coupling=coupling,
        curvature=curvature,
        cross=second_moment,
        support_mask=topology.inter_plus_mask(),
    )


def solve_p1(
    model: SignalModel,
    topology: ClusteredTopology,
    combine: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 100_000,
) -> tuple[np.ndarray, QPSolution]:
    """Solve the centralized program by accelerated projected gradient.

    Columns are projected independently onto their support simplices.
    The returned certificate carries the worst per-column KKT residual.
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
    from .topology import kron_expand

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
