"""Simplex-constrained quadratic programs for cooperation weights.

Every weight program minimizes ``q' Q q - 2 l' q`` over weights that are
nonnegative and sum to one within each group. The local program picks
one column of the cooperation matrix per node over its inter-cluster
support, one group. P2 builds it from the exact moments, the adaptive
rule from online estimates, and both solve it exactly with
``solve_local_columns``, batched by support size: in closed form on
supports of 2 and 3 nodes, one contiguous plane per entry, by the
active-set method on larger ones. The centralized program P1 couples the
columns through the combine weights and is one active-set instance whose
groups are the columns. P1 and P2 are certified by the KKT residual of
the exact point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import SignalModel
from .topology import ClusteredTopology

__all__ = [
    "QPSolution",
    "solve_simplex_qp_batch",
    "solve_local_columns",
    "solve_p2_all_nodes",
    "solve_p1",
]

EPS_RIDGE = 1e-12
KKT_ACTIVE_TOL = 1e-10
KKT_TOL = 1e-8
# a multiplier counts as negative below this fraction of the data's scale
MULTIPLIER_TOL = 1e-13


@dataclass(frozen=True)
class QPSolution:
    weights: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    certified: bool


def kkt_residual(q: np.ndarray, grad: np.ndarray) -> float:
    """Stationarity violation of a simplex-feasible point.

    At an optimum the gradient is constant on the support and at least
    that constant elsewhere. Returns the larger of the on-support spread
    and the off-support shortfall.
    """
    active = q > KKT_ACTIVE_TOL
    if not active.any():
        return float("inf")
    lo = float(grad[active].min())
    spread = float(grad[active].max()) - lo
    inactive = ~active
    shortfall = max(0.0, lo - float(grad[inactive].min())) if inactive.any() else 0.0
    return max(spread, shortfall)


def _solve_each(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked ``np.linalg.solve``; when one system is singular, every system
    is solved on its own and the singular ones are left NaN."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(rhs.shape, np.nan)
        for b in range(len(rhs)):
            try:
                sol[b] = np.linalg.solve(kkt[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
        return sol


def _active_set(
    quad: np.ndarray, lin: np.ndarray, groups: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Primal active-set method (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., section 16.5): minimize ``q' quad q - 2 lin' q`` over ``q >= 0``
    with ``sum(q[groups == g]) = 1`` per group g, from the vertex ``free``.

    Each iteration solves ``[[Q_FF, A_F'], [A_F, 0]] [q_F; nu] = [l_F; 1]``
    on the free set F (an identity row per fixed coordinate) for every
    unfinished instance at once. A step stops at the first bound to block,
    which leaves F; a full step lets the most negative multiplier
    ``(Q q - l)_i + nu_g`` enter, or ends the instance. A just-entered weight
    must rise: where a (nearly) singular system lowers it, the step follows
    the null direction, along which the objective falls, to a bound.
    Returns the points, ``ok`` (finite data, done within ``4 n`` iterations)
    and the iterations run.
    """
    batch, n = lin.shape
    member = groups == np.arange(groups.max() + 1)[:, None]  # (G, n)
    size = n + len(member)
    free = free.copy()
    q = free.astype(float)
    entered = np.full(batch, -1)  # the coordinate entered by the last iteration, if any
    ok = np.isfinite(quad).all(axis=(1, 2)) & np.isfinite(lin).all(axis=1)
    tol = MULTIPLIER_TOL * (np.abs(quad).max(axis=(1, 2)) + np.abs(lin).max(axis=1))
    todo = ok.copy()
    iterations = 0
    while todo.any() and iterations < 4 * n:
        iterations += 1
        idx = np.flatnonzero(todo)
        rows = np.arange(idx.size)
        f = free[idx]
        kkt = np.zeros((idx.size, size, size))
        kkt[:, :n, :n] = np.where(f[:, :, None] & f[:, None, :], quad[idx], np.eye(n))
        border = member & f[:, None, :]
        kkt[:, n:, :n] = border
        kkt[:, :n, n:] = border.transpose(0, 2, 1)
        rhs = np.ones((idx.size, size, 1))
        rhs[:, :n, 0] = np.where(f, lin[idx], 0.0)
        sol = _solve_each(kkt, rhs)[..., 0]
        x, nu = sol[:, :n], sol[:, n:]

        current = q[idx]
        step = x - current
        j = entered[idx]
        ray = ~np.isfinite(sol).all(axis=1) | ((j >= 0) & (x[rows, j] <= 0.0))
        for r in np.flatnonzero(ray):
            null = np.linalg.svd(kkt[r])[2][-1, :n]
            step[r] = null / null[j[r]]
        blocking = f & (step < 0.0)
        ratio = np.full(x.shape, np.inf)
        np.divide(current, -step, out=ratio, where=blocking)
        leave = np.argmin(ratio, axis=1)
        blocked = ray | (f & (x < 0.0)).any(axis=1)
        alpha = ratio[rows, leave]
        lost = blocked & ~np.isfinite(alpha)  # a ray that meets no bound: rounding gone wrong
        ok[idx[lost]] = todo[idx[lost]] = False
        blocked &= ~lost
        alpha = np.where(blocked, alpha, 1.0)[:, None]
        q[idx] = np.where(blocked[:, None], current + alpha * step, x)
        q[idx[blocked], leave[blocked]] = 0.0
        f[rows[blocked], leave[blocked]] = False

        multiplier = (quad[idx] @ x[..., None])[..., 0] - lin[idx] + nu[:, groups]
        multiplier[f | blocked[:, None]] = np.inf
        enter = np.argmin(multiplier, axis=1)
        entering = multiplier[rows, enter] < -tol[idx]
        f[rows[entering], enter[entering]] = True
        entered[idx] = np.where(entering, enter, -1)
        free[idx] = f
        todo[idx[~blocked & ~entering]] = False
    ok &= ~todo  # not done within the cap
    return q, ok, iterations


def solve_simplex_qp_batch(
    quad: np.ndarray, lin: np.ndarray, ridge: float = EPS_RIDGE
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly minimize a batch of simplex QPs.

    Instances of 2 and 3 coordinates are solved in closed form with
    elementwise arithmetic only; larger ones by the active-set method,
    started from their best vertex (the first on a tie). No result depends
    on the rest of the batch. Returns the minimizers and a boolean mask of
    instances solved successfully; from 4 coordinates on, an instance with
    a non-finite entry is not.

    Parameters
    ----------
    quad: (B, n, n) symmetric PSD batch
    lin:  (B, n) linear terms, objective ``q' quad q - 2 lin' q``
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    n = lin.shape[1]
    if n in _CLOSED_FORMS:
        planes, best_obj = _CLOSED_FORMS[n](quad.transpose(1, 2, 0), lin.T, ridge)
        planes[:, best_obj == np.inf] = 0.0  # no feasible candidate with a usable objective
        best_q, ok = planes.T, np.isfinite(best_obj)
    else:
        quad = np.ascontiguousarray(quad) + ridge * np.eye(n)
        vertex = np.argmin(np.diagonal(quad, axis1=1, axis2=2) - 2.0 * lin, axis=1)
        start = np.arange(n) == vertex[:, None]
        best_q, ok, _ = _active_set(quad, lin, np.zeros(n, dtype=np.intp), start)
    best_q = np.maximum(best_q, 0.0)  # the ufunc np.clip(best_q, 0.0, None) calls, unwrapped
    sums = best_q.sum(axis=1)  # in coordinate order on either layout, from 2 to 7 coordinates
    best_q /= np.where(ok & (sums > 0), sums, 1.0)[:, None]
    return best_q, ok


def _edge_minimum(q00, q01, q11, l0, l1) -> tuple[np.ndarray, np.ndarray]:
    """Weight ``t`` on the first vertex and the objective of the best
    point of a segment, from the entries of 2 x 2 programs (arrays of one
    shape). Along the segment the objective is ``c t^2 - 2 s t + f1``; its
    minimizer ``s / c`` is taken where ``c > 0`` puts it strictly inside,
    elsewhere the better vertex, the first on a tie. NaN reads as ``inf``.
    """
    first = np.fmin(q00 - 2.0 * l0, np.inf)
    second = np.fmin(q11 - 2.0 * l1, np.inf)
    # like entries are differenced first: exact for duplicated vertices
    curvature = (q00 - q01) + (q11 - q01)
    slope = (q11 - q01) + (l0 - l1)
    with np.errstate(all="ignore"):  # t is only used where the curvature is positive
        t = slope / curvature
    inside = (curvature > 0.0) & (t > 0.0) & (t < 1.0)
    t = np.where(inside, t, first <= second)
    return t, np.where(inside, second - slope * t, np.fmin(first, second))


# The closed forms read entry planes quad[i, j] and lin[i] and return weight planes. They add
# ridge * I as quad + ridge * I does: the ridge on the diagonal, 0.0 (-0.0 -> 0.0) off it.
def _segment_minimum(quad, lin, ridge) -> tuple[np.ndarray, np.ndarray]:
    t, obj = _edge_minimum(quad[0, 0] + ridge, quad[0, 1] + 0.0, quad[1, 1] + ridge, lin[0], lin[1])
    return np.stack((t, 1.0 - t)), obj


_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))  # {0, 1}, {0, 2}, {1, 2}


def _triangle_minimum(quad, lin, ridge) -> tuple[np.ndarray, np.ndarray]:
    """The interior stationary point where it is a feasible minimum, else
    the best edge (the first on a tie).

    In ``x = (u, v)`` with ``q = e0 + u (e1 - e0) + v (e2 - e0)`` the
    objective is ``f0 + 2 g'x + x'Hx``, minimized by ``H x = -g`` with value
    ``f0 + g'x``. Eliminating on ``h11`` keeps that residual at rounding
    level even for a nearly singular ``quad`` or ``H``.
    """
    i, j = _EDGES
    diagonal = np.diagonal(quad).T + ridge
    off = quad[i, j] + 0.0
    (q00, q11, q22), (q01, q02, q12) = diagonal, off
    h11, h22 = (q00 - off[:2]) + (diagonal[1:] - off[:2])
    h12 = (q12 - q01) + (q00 - q02)
    g1, g2 = (off[:2] - q00) + (lin[0] - lin[1:])
    with np.errstate(all="ignore"):  # the point is only used where H is definite
        ratio = h12 / h11
        schur = h22 - h12 * ratio
        v = (ratio * g1 - g2) / schur
        u = -(g1 + h12 * v) / h11
        point = np.stack((1.0 - u - v, u, v))
        interior_obj = q00 - 2.0 * lin[0] + g1 * u + g2 * v
    interior = (h11 > 0.0) & (schur > 0.0) & np.isfinite(interior_obj)
    interior &= point.min(axis=0) >= -1e-10

    t, obj = _edge_minimum(diagonal[i], off, diagonal[j], lin[i], lin[j])
    edge = np.argmin(obj, axis=0)
    cols = np.arange(len(edge))
    t, obj = t[edge, cols], obj[edge, cols]
    edge_q = np.zeros(lin.shape)
    edge_q[i[edge], cols] = t
    edge_q[j[edge], cols] = 1.0 - t
    return np.where(interior, point, edge_q), np.where(interior, interior_obj, obj)


_CLOSED_FORMS = {2: _segment_minimum, 3: _triangle_minimum}


def solve_local_columns(
    topology: ClusteredTopology, gram: np.ndarray, power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly solve every node's local weight program for a batch.

    On node k's inter-cluster support S (self included), minimize
    ``q' (gram[S, S] + diag(power[S, k])) q - 2 gram[S, k]' q`` over the
    simplex; ``gram`` and ``power`` are ``(B, N, N)``. One
    ``solve_simplex_qp_batch`` call per support size; a singleton support
    gets weight 1. Returns the columns ``(B, N, N)`` and ``ok`` ``(B, N)``.
    """
    batch, n = gram.shape[:2]
    # entry (l, k) is row l N + k of these (N N, B) tables: views of runs-last input
    gram_rows = gram.transpose(1, 2, 0).reshape(n * n, batch)
    power_rows = power.transpose(1, 2, 0).reshape(n * n, -1)
    columns = np.zeros((batch, n * n))
    ok = np.ones((n, batch), dtype=bool)
    groups = zip(topology.inter_plus_groups, topology.inter_plus_rows)
    for (nodes, supports), (entries, block) in groups:
        size = supports.shape[1]
        if size == 1:
            columns[:, entries] = 1.0
            continue
        # planes (size, size, nodes B) and (size, nodes B): node g in run b is instance g B + b
        quad = gram_rows.take(block, axis=0).reshape(size * size, -1)
        quad[:: size + 1] += power_rows.take(entries, axis=0).reshape(size, -1)
        quad = quad.reshape(size, size, -1).transpose(2, 0, 1)
        lin = gram_rows.take(entries, axis=0).reshape(size, -1).T
        column, solved = solve_simplex_qp_batch(quad, lin)
        columns[:, entries] = column.T.reshape(-1, batch).T
        ok[nodes] = solved.reshape(nodes.size, batch)
    return columns.reshape(batch, n, n), ok.T


def _stationarity(coop, curvature, cross, coupling, mask) -> tuple[np.ndarray, list[float]]:
    """Half gradient ``K C G - W G`` of the surrogate ``tr(C G C' K) - 2 tr(C G W)``
    (K, W, G: ``curvature``, ``cross``, ``coupling``) at C = ``coop``, and each
    column's KKT residual on its support ``mask[:, k]``; P2 is the case G = I.
    """
    half_grad = curvature @ coop @ coupling - cross @ coupling
    grad = 2.0 * half_grad
    return half_grad, [kkt_residual(coop[s, k], grad[s, k]) for k, s in enumerate(mask.T)]


def solve_p2_all_nodes(
    model: SignalModel, topology: ClusteredTopology
) -> tuple[np.ndarray, list[QPSolution]]:
    """Solve every node's local program from the exact moments, certifying
    each by the KKT residual of its exact point.
    """
    n = topology.n_nodes
    noise_term, second_moment = model.gradient_noise_power, model.second_moment_traces
    power = np.broadcast_to(noise_term[None, :, None], (1, n, n))
    columns, ok = solve_local_columns(topology, second_moment[None], power)
    coop = columns[0]
    # every column's gradient and objective at once: coop is zero off the supports
    curvature = np.diag(noise_term) + second_moment
    half_grad, residuals = _stationarity(coop, curvature, second_moment, np.eye(n), topology.inter_plus)
    objective = np.einsum("lk,lk->k", coop, half_grad - second_moment)
    return coop, [
        QPSolution(coop[s, k], float(objective[k]), r, 0, bool(ok[0, k]) and r <= KKT_TOL)
        for k, (s, r) in enumerate(zip(topology.inter_plus.T, residuals))
    ]


def solve_p1(
    model: SignalModel, topology: ClusteredTopology, combine: np.ndarray
) -> tuple[np.ndarray, QPSolution]:
    """Solve the centralized program P1 exactly by the active-set method.

    P1 minimizes ``tr(C G C' K) - 2 tr(C G W)`` over cooperation matrices C
    with simplex columns on the inter-cluster supports, where ``G = A A'`` is
    the combine Gram, W the traced parameter second moment and
    ``K = diag(gradient_noise_power) + W``. The unknowns are the entries on
    the supports, grouped by column, with ``Q[(l, k), (m, j)] = G[k, j] K[l, m]``
    and ``lin[(l, k)] = (W G)[l, k]``; the identity cooperation is the
    starting vertex. The certificate carries the worst per-column KKT
    residual and the active-set iterations.
    """
    second_moment = model.second_moment_traces
    coupling = combine @ combine.T
    curvature = np.diag(model.gradient_noise_power) + second_moment
    mask = topology.inter_plus
    cols, rows = np.nonzero(mask.T)  # entries column by column
    quad = coupling[np.ix_(cols, cols)] * curvature[np.ix_(rows, rows)]
    lin = (second_moment @ coupling)[rows, cols]
    q, ok, iterations = _active_set(quad[None], lin[None], cols, (rows == cols)[None])
    coop = np.zeros(mask.shape)
    coop[rows, cols] = q[0]
    # certified from the matrix-form gradient, independently of the assembly above
    residual = max(_stationarity(coop, curvature, second_moment, coupling, mask)[1])
    certified = bool(ok[0]) and residual <= KKT_TOL
    quad_term = np.trace(coop @ coupling @ coop.T @ curvature)
    lin_term = np.trace(coop @ coupling @ second_moment)
    return coop, QPSolution(coop, float(quad_term - 2.0 * lin_term), residual, iterations, certified)
