"""Closed-form first- and second-moment analysis of cooperation rules.

The analysis works on network-stacked quantities: parameter errors of all
nodes concatenated into one vector of length N*M. Conditioned on fixed
combine and cooperation weights, the stacked error follows a linear
recursion whose transition matrix B determines mean stability. The
steady-state mean-square deviation is ``<F, S> / N``, where S solves the
Stein equation ``S = B' S B + I``; the map ``S -> B' S B`` has spectral
radius exactly ``rho(B)**2``, so mean-square stability is mean stability.
The forcing F has three parts: gradient noise, the spread of the random
parameters across clusters, and a cross term that couples the error with
that spread; dropping the cross term gives the cheaper approximate MSD.

Every regressor is white, ``R_k = r_k I_M``, and every node steps by one
step size mu, so every stacked matrix of the recursion is ``X_N ⊗ I_M``
for an N x N matrix ``X_N`` (Sayed, *Adaptation, Learning, and
Optimization over Networks*, 2014). With A the combine and C the
cooperation matrix, ``B = B_N ⊗ I_M`` for ``B_N = A' C' diag(1 - mu r)``,
whose eigenvalues are B's (each M-fold in B), and the Stein solution is
``S_N ⊗ I_M`` with ``S_N = B_N' S_N B_N + I_N``. So
``<F, S> = <bt(F), S_N>``, where ``bt`` replaces each M x M block by its
trace, and the analysis runs on N x N matrices only. With
``merged = A' C'`` and ``leak = A' (I - C')`` the traced forcing terms are

* gradient noise: ``merged diag(mu^2 sigma_k^2 M r_k) merged'``,
* spread: ``leak bt(W) leak'``, with W the parameter second moment,
* cross term: ``2 spread g'``, with ``g = B_N (I - B_N)^-1``.

The MSD is read off the adjoint equation ``X_N = B_N X_N B_N' + bt(F)``:
by duality ``<bt(F), S_N(Y)> = <X_N, Y>`` for every Y (Levine & Athans,
IEEE TAC, 1970), so one solve per forcing gives ``tr(X_N) / N`` and, from
X_N's diagonal, every cluster's MSD, whatever the cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import SignalModel

__all__ = [
    "spectral_radius",
    "mean_stability_bounds",
    "contraction_bound",
    "solve_stein",
    "steady_state_msd",
    "TheoryReport",
    "analyze",
]

SIZE_CAP = 64  # NM cap of the lifted test references; the N x N theory has none
SOLVE_RESIDUAL_TOL = 1e-10
STEIN_MAX_DOUBLINGS = 64


def _operators(
    combine: np.ndarray, cooperation: np.ndarray, model: SignalModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (N, N) merge ``A' C'``, leak ``A' (I - C')`` and mean transition
    ``B_N``; the stacked matrices are each of these ``⊗ I_M``."""
    merged = combine.T @ cooperation.T
    leak = combine.T @ (np.eye(model.n_nodes) - cooperation.T)
    transition = merged * (1.0 - model.step_size * model.reg_power)
    return merged, leak, transition


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def mean_stability_bounds(model: SignalModel) -> tuple[np.ndarray, bool]:
    """Per-node step-size bounds ``2 / r_k`` and whether the step size meets all."""
    bounds = 2.0 / model.reg_power
    return bounds, bool(np.all(model.step_size < bounds))


def contraction_bound(model: SignalModel) -> float:
    """Block-diagonal contraction factor ``max_k |1 - mu r_k|`` bounding the
    mean transition radius.

    Left-stochastic merges cannot expand the block maximum norm, so the
    worst per-node factor of the adaptation step is an upper bound.
    """
    return float(np.max(np.abs(1.0 - model.step_size * model.reg_power)))


def _forcing(
    model: SignalModel, operators, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block traces (N, N) of the gradient-noise, spread and cross forcing, from
    ``_operators`` and its transition's spectral radius.

    The cross term is the steady-state limit of the error/spread coupling
    recursion, written in closed form through the mean transition.
    """
    if rho >= 1.0:
        raise ValueError(f"mean-unstable configuration, spectral radius {float(rho)}")
    merged, leak, transition = operators
    noise = (merged * model.gradient_noise_power) @ merged.T
    spread = leak @ model.second_moment_traces @ leak.T
    # geometric series limit of the error/spread coupling, no explicit inverse
    identity = np.eye(transition.shape[0])
    geometric = np.linalg.solve((identity - transition).T, transition.T).T
    return noise, spread, 2.0 * spread @ geometric.T


def solve_stein(transition: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``S = B' S B + Y`` for a stack of right-hand sides Y, (K, n, n).

    Smith doubling: the solution is ``sum_j A^j Y A'^j`` with ``A = B'``,
    and each step ``S <- S + A S A'``, ``A <- A A`` doubles the summed
    terms. Raises ``ArithmeticError`` if S still changes after
    ``STEIN_MAX_DOUBLINGS`` steps, or if the residual exceeds
    ``SOLVE_RESIDUAL_TOL`` relative to Y. Sizes are largest magnitudes,
    which unlike Frobenius norms cannot overflow on finite entries.
    """
    power, solution = transition.T, np.asarray(rhs, dtype=float)
    for _ in range(STEIN_MAX_DOUBLINGS):
        update = power @ solution @ power.T
        solution = solution + update
        change = np.abs(update).max(axis=(1, 2))
        if np.all(change <= np.finfo(float).eps * np.abs(solution).max(axis=(1, 2))):
            break
        power = power @ power
    else:
        raise ArithmeticError(f"Stein doubling did not converge in {STEIN_MAX_DOUBLINGS} steps")
    residual = np.abs(solution - transition.T @ solution @ transition - rhs).max()
    scale = np.abs(rhs).max()  # a zero Y has the exact solution 0 and no relative residual
    if residual > SOLVE_RESIDUAL_TOL * scale:
        raise ArithmeticError(f"variance solve residual {float(residual / scale)} exceeds tolerance")
    return solution


def steady_state_msd(
    combine: np.ndarray,
    cooperation: np.ndarray,
    model: SignalModel,
    per_cluster: bool = False,
) -> "tuple[float, float] | tuple[float, float, np.ndarray]":
    """Closed-form network MSD and its cross-term-free approximation.

    Returns ``<F, S> / N`` for the full and the approximate forcing F, with
    S the solution of ``S = B' S B + I``, as ``tr(X) / N`` from the adjoint
    ``X = B X B' + F``. ``per_cluster`` adds each cluster's mean of X's
    diagonal over its nodes, from the same solve.
    """
    operators = _operators(combine, cooperation, model)
    return _steady_state_msd(model, operators, spectral_radius(operators[2]), per_cluster)


def _steady_state_msd(model: SignalModel, operators, rho: float, per_cluster: bool):
    """``steady_state_msd`` from ``_operators`` and its transition's spectral radius."""
    rho_variance = rho * rho  # inf, not OverflowError, for a huge radius
    if rho_variance >= 1.0:
        raise ValueError(f"mean-square-unstable configuration, variance radius {float(rho_variance)}")
    noise, spread, cross = _forcing(model, operators, rho)
    approx = noise + spread
    forcing = np.stack((approx + cross, approx))
    forcing = 0.5 * (forcing + forcing.transpose(0, 2, 1))  # <F, S> sees F's symmetric part
    diagonal = np.diagonal(solve_stein(operators[2].T, forcing), axis1=1, axis2=2)
    msd, msd_approx = diagonal.sum(axis=1) / model.n_nodes
    if not per_cluster:
        return float(msd), float(msd_approx)
    # the largest label is n_clusters - 1, so both counts have n_clusters bins
    cluster_msd = np.bincount(model.cluster_of, diagonal[0]) / np.bincount(model.cluster_of)
    return float(msd), float(msd_approx), cluster_msd


def _db(value: "float | None") -> "float | None":
    """``10 log10(value)``; None for None or a nonpositive value."""
    return None if value is None or value <= 0.0 else 10.0 * float(np.log10(value))


@dataclass(frozen=True)
class TheoryReport:
    """Summary of the closed-form analysis for one weight configuration."""

    rho_mean: float
    rho_variance: float
    contraction: float
    step_bounds: np.ndarray
    mean_stable: bool
    mean_square_stable: bool
    msd: "float | None"
    msd_approx: "float | None"
    cluster_msd: "np.ndarray | None"

    @property
    def msd_db(self) -> "float | None":
        return _db(self.msd)

    @property
    def msd_approx_db(self) -> "float | None":
        return _db(self.msd_approx)

    def to_dict(self) -> dict:
        return {
            "rho_mean": self.rho_mean,
            "rho_variance": self.rho_variance,
            "contraction_bound": self.contraction,
            "step_size_bounds": self.step_bounds.tolist(),
            "mean_stable": self.mean_stable,
            "mean_square_stable": self.mean_square_stable,
            "msd": self.msd,
            "msd_db": self.msd_db,
            "msd_approx": self.msd_approx,
            "msd_approx_db": self.msd_approx_db,
            "cluster_msd": None if self.cluster_msd is None else self.cluster_msd.tolist(),
        }


def analyze(
    combine: np.ndarray,
    cooperation: np.ndarray,
    model: SignalModel,
) -> TheoryReport:
    """Full report: stability characterization plus steady-state deviations.

    ``rho_variance``, the radius of ``S -> B' S B``, is exactly ``rho_mean**2``;
    it saturates to inf for a huge ``rho_mean``.
    """
    operators = _operators(combine, cooperation, model)
    rho_mean = spectral_radius(operators[2])
    bounds, mean_stable = mean_stability_bounds(model)
    stable = rho_mean < 1.0
    msd = msd_approx = cluster_msd = None
    if stable:
        msd, msd_approx, cluster_msd = _steady_state_msd(model, operators, rho_mean, per_cluster=True)
    return TheoryReport(
        rho_mean=rho_mean,
        rho_variance=rho_mean * rho_mean,
        contraction=contraction_bound(model),
        step_bounds=bounds,
        mean_stable=mean_stable,
        mean_square_stable=stable,
        msd=msd,
        msd_approx=msd_approx,
        cluster_msd=cluster_msd,
    )
