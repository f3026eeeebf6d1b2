"""Statistical environment for clustered adaptive estimation.

Each node k observes a scalar response ``d = u . w + v`` where the
regressor u is zero-mean white Gaussian with covariance
``reg_power[k] * I``, v is zero-mean Gaussian noise with variance
``noise_var[k]``, and w is the node's unknown parameter vector. Every
node adapts with one step size. Parameters are random across
experiment runs: nodes in the same cluster share one draw, and draws
across clusters are correlated through a cluster-level covariance. The
weight programs and the steady-state theory read those statistics
through ``SignalModel.gradient_noise_power`` and ``second_moment_traces``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import ClusteredTopology

__all__ = [
    "SignalModel",
    "block_trace",
    "parameter_moments_from_correlation",
    "noise_profile_uniform_db",
]

PSD_CLIP_TOL = 1e-10


def _psd_sqrt(matrix: np.ndarray, what: str) -> np.ndarray:
    """Symmetric PSD square root. Slightly negative eigenvalues are clipped."""
    eigval, eigvec = np.linalg.eigh(matrix)
    floor = -PSD_CLIP_TOL * max(1.0, float(eigval.max(initial=0.0)))
    if eigval.min() < floor:
        raise ValueError(f"{what} is not positive semidefinite, min eigenvalue {float(eigval.min())}")
    return (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.T


def block_trace(matrix: np.ndarray, block_dim: int) -> np.ndarray:
    """Compress an (N*M, N*M) matrix to the (N, N) matrix of block traces."""
    n = matrix.shape[0] // block_dim
    blocks = matrix.reshape(n, block_dim, n, block_dim)
    return np.einsum("imjm->ij", blocks)


@dataclass(frozen=True)
class SignalModel:
    """Second-order description of the observation process.

    Fields
    ------
    dim:            length M of each node's parameter vector
    reg_power:      (N,) regressor powers, positive; node k's regressor
                    covariance is ``reg_power[k] * I``
    noise_var:      (N,) observation noise variances, nonnegative
    step_size:      adaptation step size of every node, nonnegative
    cluster_means:  (P, M) parameter mean of each cluster
    cluster_cov:    (P*M, P*M) covariance of the stacked cluster parameters
    cluster_of:     (N,) cluster label of each node; a cluster's nodes share its draw
    """

    dim: int
    reg_power: np.ndarray
    noise_var: np.ndarray
    step_size: float
    cluster_means: np.ndarray
    cluster_cov: np.ndarray
    cluster_of: np.ndarray
    _cluster_sqrt: np.ndarray = field(init=False, repr=False)
    _cluster_traces: np.ndarray = field(init=False, repr=False)
    _gradient_noise_power: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = int(self.dim)
        reg_power = np.array(self.reg_power, dtype=float)
        noise_var = np.array(self.noise_var, dtype=float)
        step_size = float(self.step_size)
        cluster_means = np.array(self.cluster_means, dtype=float)
        cluster_cov = np.array(self.cluster_cov, dtype=float)
        cluster_of = np.array(self.cluster_of, dtype=np.int64)

        n = cluster_of.shape[0]
        p = int(cluster_of.max()) + 1
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if reg_power.shape != (n,) or not np.all(reg_power > 0):
            raise ValueError("reg_power must be a length-N vector of positive powers")
        if noise_var.shape != (n,) or noise_var.min() < 0:
            raise ValueError("noise_var must be a length-N vector of nonnegative variances")
        if not step_size >= 0:
            raise ValueError(f"step_size must be nonnegative, got {step_size}")
        if cluster_means.shape != (p, dim):
            raise ValueError(f"cluster_means has shape {cluster_means.shape}, expected {(p, dim)}")
        if cluster_cov.shape != (p * dim, p * dim):
            raise ValueError("cluster_cov must be (P*M, P*M)")
        if not np.allclose(cluster_cov, cluster_cov.T, atol=1e-12, rtol=0.0):
            raise ValueError("cluster_cov must be symmetric")
        mean = cluster_means.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
            cluster_traces = block_trace(cluster_cov + np.outer(mean, mean), dim)
        if not np.isfinite(cluster_traces).all():
            raise ValueError("parameter second moment overflows float64; reduce the cluster means")
        # numpy's scalar power is the C pow of Python's float power, with an inf for its OverflowError
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
            gradient_noise_power = np.float64(step_size) ** 2 * noise_var * (dim * reg_power)
        if not np.isfinite(gradient_noise_power).all():
            raise ValueError("gradient noise power overflows float64; "
                             "reduce step_size, noise_var or reg_power")

        cluster_sqrt = _psd_sqrt(cluster_cov, "cluster parameter covariance")

        for arr in (reg_power, noise_var, cluster_means, cluster_cov, cluster_of, cluster_traces,
                    gradient_noise_power):
            arr.flags.writeable = False
        settled = dict(dim=dim, reg_power=reg_power, noise_var=noise_var, step_size=step_size,
                       cluster_means=cluster_means, cluster_cov=cluster_cov, cluster_of=cluster_of,
                       _cluster_sqrt=cluster_sqrt, _cluster_traces=cluster_traces,
                       _gradient_noise_power=gradient_noise_power)
        for name, value in settled.items():
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.cluster_of.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.cluster_means.shape[0]

    @property
    def gradient_noise_power(self) -> np.ndarray:
        """(N,) gradient-noise power ``mu^2 sigma_v^2 tr(R_u)``, ``tr(R_u) = M r``,
        the noise table that the weight programs and the steady-state theory read."""
        return self._gradient_noise_power

    @property
    def second_moment_traces(self) -> np.ndarray:
        """(N, N) block traces of the node-stacked parameter second moment, the
        moment table that the weight programs and the steady-state theory read.
        A node's block is its cluster's, so the table is the cluster one's,
        spread to the nodes."""
        return self._cluster_traces[np.ix_(self.cluster_of, self.cluster_of)]

    @classmethod
    def from_profiles(
        cls,
        topology: ClusteredTopology,
        dim: int,
        reg_power: "np.ndarray | list[float]",
        noise_var: "np.ndarray | list[float]",
        step_size: float,
        cluster_means: np.ndarray,
        sigma_w: "np.ndarray | list[float]",
        spread_scale: float,
        gamma: np.ndarray,
    ) -> "SignalModel":
        """Assemble a model from per-node power profiles and cluster-level
        parameter statistics.

        ``reg_power`` gives white regressor variances (covariance is that
        value times the identity) and ``step_size`` is every node's.
        ``cluster_means`` is (P, M), ``sigma_w`` is the per-cluster base
        standard deviation of the parameter draw, ``spread_scale``
        multiplies the whole parameter covariance, and ``gamma`` is the
        (P, P) cluster correlation matrix.
        """
        cluster_means, cluster_cov = parameter_moments_from_correlation(
            topology.cluster_of, dim, cluster_means, sigma_w, spread_scale, gamma
        )
        return cls(
            dim=dim,
            reg_power=reg_power,
            noise_var=noise_var,
            step_size=step_size,
            cluster_means=cluster_means,
            cluster_cov=cluster_cov,
            cluster_of=topology.cluster_of,
        )


def parameter_moments_from_correlation(
    cluster_of: np.ndarray,
    dim: int,
    cluster_means: np.ndarray,
    sigma_w: np.ndarray,
    spread_scale: float,
    gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster parameter means (P, M) and covariance (P*M, P*M) from cluster
    correlations.

    The covariance block between clusters p and q is
    ``spread_scale * gamma[p, q] * sigma_w[p] * sigma_w[q] * I``. The
    cluster correlation matrix must be symmetric with unit diagonal and
    positive semidefinite; otherwise the most negative eigenvalue is
    reported in the error.
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    p = int(cluster_of.max()) + 1
    gamma = np.asarray(gamma, dtype=float)
    sigma_w = np.asarray(sigma_w, dtype=float)
    cluster_means = np.asarray(cluster_means, dtype=float)
    if gamma.shape != (p, p):
        raise ValueError(f"gamma has shape {gamma.shape}, expected {(p, p)}")
    if not np.allclose(gamma, gamma.T, atol=1e-12, rtol=0.0):
        raise ValueError("gamma must be symmetric")
    if not np.allclose(np.diag(gamma), 1.0, atol=1e-12, rtol=0.0):
        raise ValueError("gamma must have a unit diagonal")
    if np.abs(gamma).max() > 1.0 + 1e-12:
        raise ValueError("gamma entries must lie in [-1, 1]")
    if sigma_w.shape != (p,) or sigma_w.min() < 0:
        raise ValueError("sigma_w must hold one nonnegative value per cluster")
    if cluster_means.shape != (p, dim):
        raise ValueError(f"cluster_means has shape {cluster_means.shape}, expected {(p, dim)}")
    if spread_scale < 0:
        raise ValueError("spread_scale must be nonnegative")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        cluster_cov = spread_scale * gamma * np.outer(sigma_w, sigma_w)
    if not np.isfinite(cluster_cov).all():
        raise ValueError("parameter covariance overflows float64; reduce sigma_w or spread_scale")
    eigval = np.linalg.eigvalsh(cluster_cov)
    if eigval.min() < -PSD_CLIP_TOL * max(1.0, float(eigval.max(initial=0.0))):
        raise ValueError(
            f"parameter covariance is not positive semidefinite, "
            f"most negative eigenvalue {float(eigval.min())}"
        )

    return cluster_means, np.kron(cluster_cov, np.eye(dim))


def sample_parameters(model: SignalModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one stationary (N, M) parameter realization.

    The draw happens at cluster level and is then expanded to nodes, so
    same-cluster nodes receive bitwise identical vectors.
    """
    p, dim = model.n_clusters, model.dim
    z = rng.standard_normal(p * dim)
    cluster_stack = model.cluster_means.reshape(-1) + model._cluster_sqrt @ z
    return cluster_stack.reshape(p, dim)[model.cluster_of]


def draw_regressors(model: SignalModel, n_iters: int, rng: np.random.Generator) -> np.ndarray:
    """(T, N, M) Gaussian regressors, white in time and across components, laid out
    (M, T, N) in memory: each component is one (T, N) plane scaled per node."""
    z = rng.standard_normal((n_iters, model.n_nodes, model.dim))
    scale = np.sqrt(model.reg_power)
    colored = np.empty((model.dim, n_iters, model.n_nodes))
    for i in range(model.dim):
        np.multiply(scale, z[..., i], out=colored[i])
    return np.moveaxis(colored, 0, -1)


def draw_noises(model: SignalModel, n_iters: int, rng: np.random.Generator) -> np.ndarray:
    """(T, N) Gaussian observation noises."""
    z = rng.standard_normal((n_iters, model.n_nodes))
    return z * np.sqrt(model.noise_var)


def noise_profile_uniform_db(
    n_nodes: int, low_db: float, high_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-node noise variances drawn uniformly on a decibel interval."""
    if high_db < low_db:
        raise ValueError("interval is reversed")
    return 10.0 ** (rng.uniform(low_db, high_db, size=n_nodes) / 10.0)
