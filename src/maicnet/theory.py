"""Closed-form first- and second-moment analysis of cooperation rules.

The analysis works on network-stacked quantities: parameter errors of all
nodes concatenated into one vector of length N*M. Conditioned on fixed
combine and cooperation weights, the stacked error follows a linear
recursion whose transition matrix B determines mean stability. The
steady-state mean-square deviation solves the Stein equation
``S = B' S B + Y`` on N*M x N*M matrices; the map ``S -> B' S B`` has
spectral radius exactly ``rho(B)**2``, so mean-square stability is mean
stability. The forcing has three parts: gradient noise, the spread of the
random parameters across clusters, and a cross term that couples the
error with that spread; dropping the cross term gives the cheaper
approximate MSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import SignalModel
from .topology import kron_expand

__all__ = [
    "vec",
    "mean_transition",
    "spectral_radius",
    "mean_stability_bounds",
    "contraction_bound",
    "mean_bias_vector",
    "msd_forcing_terms",
    "solve_stein",
    "steady_state_msd",
    "TheoryReport",
    "analyze",
]

SIZE_CAP = 64  # NM cap of the lifted test references; the Stein solve has none
SOLVE_RESIDUAL_TOL = 1e-10
STEIN_MAX_DOUBLINGS = 64


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, consistent with kron identities."""
    return np.asarray(matrix).reshape(-1, order="F")


def _stack_block_diag(blocks: np.ndarray) -> np.ndarray:
    n, dim, _ = blocks.shape
    out = np.zeros((n * dim, n * dim))
    for k in range(n):
        out[k * dim : (k + 1) * dim, k * dim : (k + 1) * dim] = blocks[k]
    return out


def regressor_moment(model: SignalModel) -> np.ndarray:
    """Block-diagonal stacked regressor covariance."""
    return _stack_block_diag(model.reg_cov)


def step_size_matrix(model: SignalModel) -> np.ndarray:
    return np.diag(np.repeat(model.step_sizes, model.dim))


def gradient_noise_moment(model: SignalModel) -> np.ndarray:
    """Block-diagonal covariance of the stacked gradient noise."""
    return _stack_block_diag(model.noise_var[:, None, None] * model.reg_cov)


def _lift(
    combine: np.ndarray, cooperation: np.ndarray, model: SignalModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kron-expanded combine and cooperation matrices and the mean transition."""
    dim = model.dim
    big_combine = kron_expand(combine, dim)
    big_coop = kron_expand(cooperation, dim)
    identity = np.eye(model.n_nodes * dim)
    transition = big_combine.T @ big_coop.T @ (identity - step_size_matrix(model) @ regressor_moment(model))
    return big_combine, big_coop, transition


def mean_transition(
    combine: np.ndarray, cooperation: np.ndarray, model: SignalModel
) -> np.ndarray:
    """Stacked mean-error transition matrix of the cooperation recursion."""
    return _lift(combine, cooperation, model)[2]


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def mean_stability_bounds(model: SignalModel) -> tuple[np.ndarray, bool]:
    """Per-node step-size bounds ``2 / max eigenvalue`` and whether all hold."""
    bounds = np.array([2.0 / np.linalg.eigvalsh(c)[-1] for c in model.reg_cov])
    return bounds, bool(np.all(model.step_sizes < bounds))


def contraction_bound(model: SignalModel) -> float:
    """Block-diagonal contraction factor bounding the mean transition radius.

    Left-stochastic merges cannot expand the block maximum norm, so the
    worst per-node factor of the adaptation step is an upper bound.
    """
    worst = 0.0
    for k in range(model.n_nodes):
        factor = np.eye(model.dim) - model.step_sizes[k] * model.reg_cov[k]
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(factor)))))
    return worst


def mean_bias_vector(
    combine: np.ndarray, cooperation: np.ndarray, model: SignalModel
) -> np.ndarray:
    """Constant driving term of the stacked mean-error recursion.

    Vanishes when every cluster shares the same mean parameter.
    """
    dim = model.dim
    big_combine = kron_expand(combine, dim)
    big_coop = kron_expand(cooperation, dim)
    identity = np.eye(model.n_nodes * dim)
    return big_combine.T @ (identity - big_coop.T) @ model.mean_stack


@dataclass(frozen=True)
class ForcingTerms:
    gradient_noise: np.ndarray  # vectorized, (N*M)**2
    parameter_spread: np.ndarray
    cross_limit: np.ndarray


def msd_forcing_terms(
    combine: np.ndarray, cooperation: np.ndarray, model: SignalModel
) -> ForcingTerms:
    """Vectorized forcing terms of the steady-state variance relation.

    The cross term is the steady-state limit of the error/spread coupling
    recursion, written in closed form through the mean transition.
    Requires a mean-stable configuration.
    """
    lift = _lift(combine, cooperation, model)
    return _forcing_terms(model, lift, spectral_radius(lift[2]))


def _forcing_terms(model: SignalModel, lift, rho: float) -> ForcingTerms:
    """``msd_forcing_terms`` from a ``_lift`` and its transition's spectral radius."""
    if rho >= 1.0:
        raise ValueError(f"mean-unstable configuration, spectral radius {float(rho)}")
    big_combine, big_coop, transition = lift
    identity = np.eye(transition.shape[0])
    mu = step_size_matrix(model)

    merged = big_combine.T @ big_coop.T
    noise_mat = merged @ mu @ gradient_noise_moment(model) @ mu @ merged.T
    leak = big_combine.T @ (identity - big_coop.T)
    spread_mat = leak @ model.parameter_second_moment @ leak.T

    # geometric series limit of the error/spread coupling, no explicit inverse
    geometric = np.linalg.solve((identity - transition).T, transition.T).T
    cross_mat = spread_mat @ geometric.T
    return ForcingTerms(
        gradient_noise=vec(noise_mat),
        parameter_spread=vec(spread_mat),
        cross_limit=2.0 * vec(cross_mat),
    )


def _cluster_indicators(model: SignalModel) -> list[np.ndarray]:
    stacked_of = np.repeat(model.cluster_of, model.dim)
    return [np.diag((stacked_of == p).astype(float)) for p in range(model.n_clusters)]


def solve_stein(transition: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``S = B' S B + Y`` for a stack of right-hand sides Y, (K, n, n).

    Smith doubling: the solution is ``sum_j A^j Y A'^j`` with ``A = B'``,
    and each step ``S <- S + A S A'``, ``A <- A A`` doubles the summed
    terms. Raises ``ArithmeticError`` if S still changes after
    ``STEIN_MAX_DOUBLINGS`` steps, or if the residual exceeds
    ``SOLVE_RESIDUAL_TOL`` relative to Y.
    """
    power, solution = transition.T, np.asarray(rhs, dtype=float)
    for _ in range(STEIN_MAX_DOUBLINGS):
        update = power @ solution @ power.T
        solution = solution + update
        change = np.linalg.norm(update, axis=(1, 2))
        if np.all(change <= np.finfo(float).eps * np.linalg.norm(solution, axis=(1, 2))):
            break
        power = power @ power
    else:
        raise ArithmeticError(f"Stein doubling did not converge in {STEIN_MAX_DOUBLINGS} steps")
    residual = solution - transition.T @ solution @ transition - rhs
    residual = np.linalg.norm(residual) / np.linalg.norm(rhs)
    if residual > SOLVE_RESIDUAL_TOL:
        raise ArithmeticError(f"variance solve residual {float(residual)} exceeds tolerance")
    return solution


def steady_state_msd(
    combine: np.ndarray,
    cooperation: np.ndarray,
    model: SignalModel,
    per_cluster: bool = False,
) -> "tuple[float, float] | tuple[float, float, np.ndarray]":
    """Closed-form network MSD and its cross-term-free approximation.

    Solves the Stein equation ``S = B' S B + I`` and returns ``<F, S> / N``
    for the full and the approximate forcing F. With ``per_cluster`` each
    cluster indicator is one more right-hand side of the same solve, and
    the cluster deviation is ``<F, S_p> / size_p``.
    """
    lift = _lift(combine, cooperation, model)
    return _steady_state_msd(model, lift, spectral_radius(lift[2]), per_cluster)


def _steady_state_msd(model: SignalModel, lift, rho: float, per_cluster: bool):
    """``steady_state_msd`` from a ``_lift`` and its transition's spectral radius."""
    rho_variance = rho**2
    if rho_variance >= 1.0:
        raise ValueError(f"mean-square-unstable configuration, variance radius {float(rho_variance)}")
    terms = _forcing_terms(model, lift, rho)
    transition = lift[2]

    rhs = [np.eye(transition.shape[0])]
    if per_cluster:
        rhs.extend(_cluster_indicators(model))
    # column-major vectorization of each solution, as in the forcing terms
    solution = np.swapaxes(solve_stein(transition, np.stack(rhs)), 1, 2).reshape(len(rhs), -1)

    full = terms.gradient_noise + terms.parameter_spread + terms.cross_limit
    approx = terms.gradient_noise + terms.parameter_spread
    n_nodes = model.n_nodes
    msd = float(full @ solution[0]) / n_nodes
    msd_approx = float(approx @ solution[0]) / n_nodes
    if not per_cluster:
        return msd, msd_approx
    sizes = np.bincount(model.cluster_of, minlength=model.n_clusters)
    cluster_msd = np.array(
        [float(full @ solution[1 + p]) / sizes[p] for p in range(model.n_clusters)]
    )
    return msd, msd_approx, cluster_msd


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
        return None if self.msd is None else 10.0 * float(np.log10(self.msd))

    @property
    def msd_approx_db(self) -> "float | None":
        return None if self.msd_approx is None else 10.0 * float(np.log10(self.msd_approx))

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
    per_cluster: bool = True,
) -> TheoryReport:
    """Full report: stability characterization plus steady-state deviations.

    ``rho_variance``, the radius of ``S -> B' S B``, is exactly ``rho_mean**2``.
    """
    lift = _lift(combine, cooperation, model)
    rho_mean = spectral_radius(lift[2])
    bounds, mean_stable = mean_stability_bounds(model)
    stable = rho_mean < 1.0
    msd = msd_approx = cluster_msd = None
    if stable:
        msd, msd_approx, *split = _steady_state_msd(model, lift, rho_mean, per_cluster)
        cluster_msd = split[0] if per_cluster else None
    return TheoryReport(
        rho_mean=rho_mean,
        rho_variance=rho_mean**2,
        contraction=contraction_bound(model),
        step_bounds=bounds,
        mean_stable=mean_stable,
        mean_square_stable=stable,
        msd=msd,
        msd_approx=msd_approx,
        cluster_msd=cluster_msd,
    )
