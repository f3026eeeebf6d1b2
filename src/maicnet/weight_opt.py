"""Simplex-constrained quadratic programs for cooperation weights.

The local program picks one column of the cooperation matrix per node
over its inter-cluster support. P2 builds it from the exact moments, the
adaptive rule from online estimates, and both solve it exactly with
``solve_local_columns`` (face enumeration, batched by support size). The
centralized program P1 couples the columns through the combine weights
and is solved by masked accelerated projected gradient with a KKT
certificate, which also serves P2 on supports too large to enumerate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .signal_model import SignalModel
from .topology import ClusteredTopology

__all__ = [
    "project_simplex",
    "QPSolution",
    "solve_simplex_qp_batch",
    "solve_local_columns",
    "solve_p2_all_nodes",
    "CentralizedQP",
    "build_centralized_qp",
    "solve_p1",
    "block_trace",
]

EPS_RIDGE = 1e-12
KKT_ACTIVE_TOL = 1e-10
KKT_TOL = 1e-8
# the exact solver enumerates all 2**n - 1 faces of an n-node support
MAX_FACE_SUPPORT = 10


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
        rhs = np.ones((len(sub_quad), size, 2))
        rhs[:, :, 0] = lin[:, members].reshape(-1, size)
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
        # objectives face by face, with the operand layouts of the face-by-face solver:
        # einsum's rounding depends on them, and near-tied faces are ranked by it
        faces_q = np.ascontiguousarray(candidate.reshape(batch, -1, size).swapaxes(0, 1))
        faces_quad = np.ascontiguousarray(sub_quad.reshape(batch, -1, size, size).swapaxes(0, 1))
        obj = [
            np.einsum("bi,bij,bj->b", q, quad_f, q) - 2.0 * np.einsum("bi,bi->b", lin[:, face], q)
            for q, quad_f, face in zip(faces_q, faces_quad, members)
        ]
        objective[:, ranks] = np.where(feasible.reshape(batch, -1), np.stack(obj, axis=1), np.inf)
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


def _moment_tables(model: SignalModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-node gradient-noise power ``mu^2 sigma_v^2 tr(R_u)`` and the
    block-traced parameter second moment."""
    mu = model.uniform_step_size()
    noise_term = (mu**2) * model.noise_var * np.einsum("nii->n", model.reg_cov)
    return noise_term, block_trace(model.parameter_second_moment, model.dim)


def solve_local_columns(
    topology: ClusteredTopology, gram: np.ndarray, power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly solve every node's local weight program for a batch.

    On node k's inter-cluster support S (self included), minimize
    ``q' (gram[S, S] + diag(power[S, k])) q - 2 gram[S, k]' q`` over the
    simplex; ``gram`` and ``power`` are ``(B, N, N)``. One
    ``solve_simplex_qp_batch`` call per support size; a singleton support
    gets weight 1. Returns the columns ``(B, N, N)`` and ``ok`` ``(B, N)``.
    Raises ``ValueError`` for a support above ``MAX_FACE_SUPPORT`` nodes.
    """
    nodes, supports = topology.inter_plus_groups[-1]
    if supports.shape[1] > MAX_FACE_SUPPORT:
        raise ValueError(
            f"node {nodes[0]} has {supports.shape[1]} nodes in its inter-cluster support; "
            f"the exact local weight solver takes at most {MAX_FACE_SUPPORT}"
        )
    batch, n = gram.shape[:2]
    columns = np.zeros((batch, n, n))
    ok = np.ones((batch, n), dtype=bool)
    for nodes, supports in topology.inter_plus_groups:
        size = supports.shape[1]
        if size == 1:
            columns[:, nodes, nodes] = 1.0
            continue
        quad = gram[:, supports[:, :, None], supports[:, None, :]]
        idx = np.arange(size)
        quad[..., idx, idx] += power[:, supports, nodes[:, None]]
        lin = gram[:, supports, nodes[:, None]]
        column, solved = solve_simplex_qp_batch(quad.reshape(-1, size, size), lin.reshape(-1, size))
        columns[:, supports, nodes[:, None]] = column.reshape(batch, nodes.size, size)
        ok[:, nodes] = solved.reshape(batch, nodes.size)
    return columns, ok


def solve_p2_all_nodes(
    model: SignalModel, topology: ClusteredTopology
) -> tuple[np.ndarray, list[QPSolution]]:
    """Solve every node's local program from the exact moments, certifying
    each by the KKT residual of its exact point. Requires a uniform step
    size. Supports above ``MAX_FACE_SUPPORT`` nodes go to P1 with identity
    coupling, which decouples into the same programs, with P1's certificate.
    """
    n = topology.n_nodes
    if topology.inter_plus_groups[-1][1].shape[1] > MAX_FACE_SUPPORT:
        coop, solution = solve_p1(model, topology, np.eye(n))
        return coop, [solution]
    noise_term, second_moment = _moment_tables(model)
    power = np.broadcast_to(noise_term[None, :, None], (1, n, n))
    columns, ok = solve_local_columns(topology, second_moment[None], power)
    coop = columns[0]
    # every column's gradient and objective at once: coop is zero off the supports
    half_grad = (np.diag(noise_term) + second_moment) @ coop - second_moment
    objective = np.einsum("lk,lk->k", coop, half_grad - second_moment)
    solutions = []
    for k, support in enumerate(topology.inter_plus):
        q, grad = coop[list(support), k], 2.0 * half_grad[list(support), k]
        residual = kkt_residual(q, grad)
        certified = bool(ok[0, k]) and residual <= KKT_TOL
        solutions.append(QPSolution(q, float(objective[k]), residual, 0, certified))
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
    noise_term, second_moment = _moment_tables(model)
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
    tol: float = KKT_TOL,
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
