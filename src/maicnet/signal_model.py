"""Statistical environment for clustered adaptive estimation.

Each node k observes a scalar response ``d = u . w + v`` where the
regressor u is zero-mean Gaussian with node covariance ``reg_cov[k]``,
v is zero-mean Gaussian noise with variance ``noise_var[k]``, and w is
the node's unknown parameter vector. Parameters are random across
experiment runs: nodes in the same cluster share one draw, and draws
across clusters are correlated through a cluster-level covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import ClusteredTopology

__all__ = [
    "SignalModel",
    "parameter_moments_from_correlation",
    "noise_profile_uniform_db",
]

PSD_CLIP_TOL = 1e-10


def _psd_sqrt(matrix: np.ndarray, what: str) -> np.ndarray:
    """Symmetric PSD square root. Slightly negative eigenvalues are clipped."""
    eigval, eigvec = np.linalg.eigh(matrix)
    floor = -PSD_CLIP_TOL * max(1.0, float(eigval.max(initial=0.0)))
    if eigval.min() < floor:
        raise ValueError(f"{what} is not positive semidefinite, min eigenvalue {eigval.min()!r}")
    return (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.T


@dataclass(frozen=True)
class SignalModel:
    """Node-level second-order description of the observation process.

    Fields
    ------
    dim:            length M of each node's parameter vector
    reg_cov:        (N, M, M) regressor covariances, symmetric positive definite
    noise_var:      (N,) observation noise variances, nonnegative
    step_sizes:     (N,) adaptation step sizes, nonnegative
    mean_stack:     (N*M,) stacked parameter means
    cov_stack:      (N*M, N*M) stacked parameter covariance
    cluster_of:     (N,) cluster labels, consistent with the stacked moments
    """

    dim: int
    reg_cov: np.ndarray
    noise_var: np.ndarray
    step_sizes: np.ndarray
    mean_stack: np.ndarray
    cov_stack: np.ndarray
    cluster_of: np.ndarray
    _reg_sqrt: np.ndarray = field(init=False, repr=False)
    _cluster_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = int(self.dim)
        reg_cov = np.asarray(self.reg_cov, dtype=float)
        noise_var = np.asarray(self.noise_var, dtype=float)
        step_sizes = np.asarray(self.step_sizes, dtype=float)
        mean_stack = np.asarray(self.mean_stack, dtype=float)
        cov_stack = np.asarray(self.cov_stack, dtype=float)
        cluster_of = np.asarray(self.cluster_of, dtype=np.int64)

        n = cluster_of.shape[0]
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if reg_cov.shape != (n, dim, dim):
            raise ValueError(f"reg_cov has shape {reg_cov.shape}, expected {(n, dim, dim)}")
        if noise_var.shape != (n,) or noise_var.min() < 0:
            raise ValueError("noise_var must be a length-N vector of nonnegative variances")
        if step_sizes.shape != (n,) or step_sizes.min() < 0:
            raise ValueError("step_sizes must be a length-N vector of nonnegative values")
        if mean_stack.shape != (n * dim,):
            raise ValueError(f"mean_stack has shape {mean_stack.shape}, expected ({n * dim},)")
        if cov_stack.shape != (n * dim, n * dim):
            raise ValueError("cov_stack must be (N*M, N*M)")
        if not np.allclose(cov_stack, cov_stack.T, atol=1e-12, rtol=0.0):
            raise ValueError("cov_stack must be symmetric")

        reg_sqrt = np.empty_like(reg_cov)
        for k in range(n):
            if not np.allclose(reg_cov[k], reg_cov[k].T, atol=1e-12, rtol=0.0):
                raise ValueError(f"regressor covariance of node {k} is not symmetric")
            reg_sqrt[k] = _psd_sqrt(reg_cov[k], f"regressor covariance of node {k}")

        self._check_cluster_consistency(cluster_of, mean_stack, cov_stack, dim)
        cluster_cov = self._cluster_cov(cluster_of, cov_stack, dim)
        cluster_sqrt = _psd_sqrt(cluster_cov, "cluster parameter covariance")

        for arr in (reg_cov, noise_var, step_sizes, mean_stack, cov_stack, cluster_of):
            arr.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "reg_cov", reg_cov)
        object.__setattr__(self, "noise_var", noise_var)
        object.__setattr__(self, "step_sizes", step_sizes)
        object.__setattr__(self, "mean_stack", mean_stack)
        object.__setattr__(self, "cov_stack", cov_stack)
        object.__setattr__(self, "cluster_of", cluster_of)
        object.__setattr__(self, "_reg_sqrt", reg_sqrt)
        object.__setattr__(self, "_cluster_sqrt", cluster_sqrt)

    @staticmethod
    def _check_cluster_consistency(
        cluster_of: np.ndarray, mean_stack: np.ndarray, cov_stack: np.ndarray, dim: int
    ) -> None:
        # Same-cluster nodes carry one shared random parameter, so their mean
        # blocks and all covariance blocks touching them must coincide.
        n = cluster_of.shape[0]
        reps = {}
        for k in range(n):
            reps.setdefault(int(cluster_of[k]), k)

        def block(i: int, j: int) -> np.ndarray:
            return cov_stack[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim]

        for k in range(n):
            rep = reps[int(cluster_of[k])]
            if not np.allclose(
                mean_stack[k * dim : (k + 1) * dim],
                mean_stack[rep * dim : (rep + 1) * dim],
                atol=1e-12,
                rtol=0.0,
            ):
                raise ValueError(f"node {k} mean differs from its cluster representative")
            for j in range(n):
                rep_j = reps[int(cluster_of[j])]
                if not np.allclose(block(k, j), block(rep, rep_j), atol=1e-12, rtol=0.0):
                    raise ValueError(
                        f"covariance block ({k}, {j}) is inconsistent with its cluster pair"
                    )

    @staticmethod
    def _cluster_cov(cluster_of: np.ndarray, cov_stack: np.ndarray, dim: int) -> np.ndarray:
        p = int(cluster_of.max()) + 1
        reps = [int(np.flatnonzero(cluster_of == q)[0]) for q in range(p)]
        out = np.empty((p * dim, p * dim))
        for a, i in enumerate(reps):
            for b, j in enumerate(reps):
                out[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = cov_stack[
                    i * dim : (i + 1) * dim, j * dim : (j + 1) * dim
                ]
        return out

    @property
    def n_nodes(self) -> int:
        return self.cluster_of.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max()) + 1

    @property
    def parameter_second_moment(self) -> np.ndarray:
        """Stacked (N*M, N*M) second moment: covariance plus mean outer product."""
        return self.cov_stack + np.outer(self.mean_stack, self.mean_stack)

    def cluster_mean(self) -> np.ndarray:
        """(P, M) matrix of per-cluster parameter means."""
        reps = [int(np.flatnonzero(self.cluster_of == q)[0]) for q in range(self.n_clusters)]
        return np.stack(
            [self.mean_stack[r * self.dim : (r + 1) * self.dim] for r in reps]
        )

    def uniform_step_size(self) -> float:
        mu = float(self.step_sizes[0])
        if not np.all(self.step_sizes == mu):
            raise ValueError("step sizes are not uniform across nodes")
        return mu

    @classmethod
    def from_profiles(
        cls,
        topology: ClusteredTopology,
        dim: int,
        reg_power: "np.ndarray | list[float]",
        noise_var: "np.ndarray | list[float]",
        step_size: "float | np.ndarray",
        cluster_means: np.ndarray,
        sigma_w: "np.ndarray | list[float]",
        spread_scale: float,
        gamma: np.ndarray,
    ) -> "SignalModel":
        """Assemble a model from per-node power profiles and cluster-level
        parameter statistics.

        ``reg_power`` gives white regressor variances (covariance is that
        value times the identity). ``cluster_means`` is (P, M), ``sigma_w``
        is the per-cluster base standard deviation of the parameter draw,
        ``spread_scale`` multiplies the whole parameter covariance, and
        ``gamma`` is the (P, P) cluster correlation matrix.
        """
        n = topology.n_nodes
        reg_power = np.asarray(reg_power, dtype=float)
        reg_cov = np.einsum("n,ij->nij", reg_power, np.eye(dim))
        step_sizes = np.broadcast_to(np.asarray(step_size, dtype=float), (n,)).copy()
        mean_stack, cov_stack = parameter_moments_from_correlation(
            topology.cluster_of, dim, np.asarray(cluster_means, dtype=float),
            np.asarray(sigma_w, dtype=float), spread_scale, np.asarray(gamma, dtype=float),
        )
        return cls(
            dim=dim,
            reg_cov=reg_cov,
            noise_var=np.asarray(noise_var, dtype=float),
            step_sizes=step_sizes,
            mean_stack=mean_stack,
            cov_stack=cov_stack,
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
    """Stacked parameter mean and covariance from cluster correlations.

    The covariance block between nodes in clusters p and q is
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

    cluster_cov = spread_scale * gamma * np.outer(sigma_w, sigma_w)
    eigval = np.linalg.eigvalsh(cluster_cov)
    if eigval.min() < -PSD_CLIP_TOL * max(1.0, float(eigval.max(initial=0.0))):
        raise ValueError(
            f"parameter covariance is not positive semidefinite, "
            f"most negative eigenvalue {eigval.min()!r}"
        )

    n = cluster_of.shape[0]
    mean_stack = np.concatenate([cluster_means[cluster_of[k]] for k in range(n)])
    membership = np.zeros((n, p))
    membership[np.arange(n), cluster_of] = 1.0
    cov_stack = np.kron(membership @ cluster_cov @ membership.T, np.eye(dim))
    return mean_stack, cov_stack


def sample_parameters(model: SignalModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one stationary (N, M) parameter realization.

    The draw happens at cluster level and is then expanded to nodes, so
    same-cluster nodes receive bitwise identical vectors.
    """
    p, dim = model.n_clusters, model.dim
    z = rng.standard_normal(p * dim)
    cluster_stack = model.cluster_mean().reshape(-1) + model._cluster_sqrt @ z
    return cluster_stack.reshape(p, dim)[model.cluster_of]


def draw_regressors(model: SignalModel, n_iters: int, rng: np.random.Generator) -> np.ndarray:
    """(T, N, M) Gaussian regressors, white in time, colored per node."""
    z = rng.standard_normal((n_iters, model.n_nodes, model.dim))
    return np.einsum("nij,tnj->tni", model._reg_sqrt, z)


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
