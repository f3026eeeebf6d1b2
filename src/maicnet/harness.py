"""Monte-Carlo experiment harness for strategy comparison.

A scenario bundles a clustered topology, node power profiles, the
cluster-level parameter statistics per stationary segment, and the list
of strategies to compare. Every strategy in a run consumes the identical
observation stream, so steady-state comparisons are paired.

Reproducibility contract: one master seed; run r draws from a substream
seeded by (master seed, r); within a run the draw order is fixed
(segment parameters, then regressors, then noises). Runs are processed
in fixed-size chunks and chunk partials are reduced in chunk order with
compensated summation, so results are byte-identical for any worker
count.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from . import strategies, theory, weight_opt
from .signal_model import (
    SignalModel,
    draw_noises,
    draw_regressors,
    noise_profile_uniform_db,
    sample_parameters,
)
from .topology import (
    ClusteredTopology,
    averaging_rule_weights,
    cooperation_from_regularizer,
    metropolis_weights,
    validate_column_stochastic,
)

__all__ = [
    "SegmentSpec",
    "Scenario",
    "MsdCurve",
    "ScenarioResult",
    "compile_scenario",
    "run_scenario",
    "msd_gain",
    "msd_gain_se",
    "write_weight_csv",
    "KNOWN_STRATEGIES",
]

CHUNK_SIZE = 250
STEADY_WINDOW_FRACTION = 0.1
DIVERGENCE_NORM = 1e12


def to_db(x):
    return 10.0 * np.log10(x)


def _parse(value, kind, what: str):
    """``value``, decoded from JSON, as an instance of the annotation ``kind``.

    Dataclasses are read field by field from an object with no unknown
    keys, tuples from lists, and ``int``, ``float`` and ``str`` only from
    values of that JSON type (an int also serves as a float; NaN and
    infinities are refused). Raises
    ``ValueError`` naming ``what`` at the first value that does not fit.
    """
    if isinstance(kind, types.UnionType):  # "X | None"
        inner, _ = typing.get_args(kind)
        return None if value is None else _parse(value, inner, what)
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
        missing = [f.name for f in fields(kind) if f.default is MISSING and f.name not in value]
        if missing:
            raise ValueError(f"{what} is missing required field(s): {', '.join(missing)}")
        unknown = sorted(set(value) - {f.name for f in fields(kind)})
        if unknown:
            raise ValueError(f"{what} has unknown field(s): {', '.join(unknown)}")
        hints = typing.get_type_hints(kind)
        return kind(**{key: _parse(item, hints[key], f"{what} {key}") for key, item in value.items()})
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{what} must be a list, got {type(value).__name__}")
        kinds = typing.get_args(kind)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ValueError(f"{what} must have {len(kinds)} entries, got {len(value)}")
        return tuple(
            _parse(item, k, f"{k.noun} {i}" if is_dataclass(k) else f"{what}[{i}]")
            for i, (item, k) in enumerate(zip(value, kinds))
        )
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{what} must be of type {kind.__name__}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"{what} must be finite, got {value}")
    try:
        return kind(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{what} is out of range for type {kind.__name__}") from None


def _finite_or_none(value):
    """Copy of a JSON-ready structure with every non-finite float set to None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch of the parameter process."""

    noun: typing.ClassVar[str] = "segment"  # scenario errors name the i-th "segment i"
    start: int
    cluster_means: tuple[tuple[float, ...], ...]
    gamma: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one experiment."""

    name: str
    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    cluster_of: tuple[int, ...]
    dim: int
    reg_power: tuple[float, ...]
    sigma_w: tuple[float, ...]
    spread_scale: float
    step_size: float
    eta: float
    alpha: float
    segments: tuple[SegmentSpec, ...]
    iterations: int
    runs: int
    master_seed: int
    strategies: tuple[str, ...]
    noise_var: "tuple[float, ...] | None" = None
    noise_db_range: "tuple[float, float] | None" = None
    profile_seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.runs < 1:
            raise ValueError("iterations and runs must be positive")
        unknown = [s for s in self.strategies if s not in KNOWN_STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}; choose from {KNOWN_STRATEGIES}")
        repeated = sorted({s for s in self.strategies if self.strategies.count(s) > 1})
        if repeated:
            raise ValueError(f"strategies are listed more than once: {repeated}")
        if not self.segments or self.segments[0].start != 0:
            raise ValueError("the first segment must start at iteration 0")
        starts = [s.start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])) or starts[-1] >= self.iterations:
            raise ValueError("segment starts must increase and stay inside the horizon")
        if (self.noise_var is None) == (self.noise_db_range is None):
            raise ValueError("give exactly one of noise_var and noise_db_range")
        if self.noise_db_range is not None and self.noise_db_range[0] > self.noise_db_range[1]:
            raise ValueError("noise_db_range must run from low to high")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        for key in ("master_seed", "profile_seed", "eta"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, got {getattr(self, key)}")
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        n, p = self.n_nodes, max(self.cluster_of, default=-1) + 1
        lengths = {"cluster_of": n, "reg_power": n, "noise_var": n, "sigma_w": p}
        for key, expected in lengths.items():
            values = getattr(self, key)
            if values is not None and len(values) != expected:
                raise ValueError(f"{key} has {len(values)} entries, expected {expected}")
        for k, power in enumerate(self.reg_power):
            if power <= 0.0:
                raise ValueError(f"reg_power[{k}] must be positive, got {power}")
        for i, segment in enumerate(self.segments):
            for key, width in (("cluster_means", self.dim), ("gamma", p)):
                rows = getattr(segment, key)
                if len(rows) != p or any(len(row) != width for row in rows):
                    raise ValueError(f"segment {i} {key} must be {p} x {width}, one row per cluster")

    @property
    def boundaries(self) -> tuple[int, ...]:
        return tuple(s.start for s in self.segments[1:])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse a decoded scenario JSON, checking every field's type and shape."""
        scenario = _parse(data, cls, "scenario")
        if not scenario.strategies:
            raise ValueError("scenario strategies must name at least one strategy")
        return scenario

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True)
class StrategyPlan:
    name: str
    kind: str  # "fixed", "mdlms" or "adaptive", as in STRATEGY_TABLE
    weights: "np.ndarray | None"  # (S, N, N) cooperation; (1, N, N) regularizer for mdlms
    reports: "tuple[theory.TheoryReport, ...] | None"
    certificates: "tuple[dict, ...] | None"


@dataclass(frozen=True)
class CompiledScenario:
    scenario: Scenario
    topology: ClusteredTopology
    combine: np.ndarray
    models: tuple[SignalModel, ...]
    plans: tuple[StrategyPlan, ...]
    segment_of: np.ndarray  # (T,) segment index per iteration
    membership: np.ndarray  # (N, P) one-hot cluster of each node
    cluster_sizes: np.ndarray  # (P,) nodes per cluster


def _certificate_dict(solution: weight_opt.QPSolution) -> dict:
    return {
        "objective": float(solution.objective),
        "kkt_residual": float(solution.kkt_residual),
        "iterations": int(solution.iterations),
        "certified": bool(solution.certified),
    }


def _no_cooperation(scenario, topology, combine, model):
    return np.eye(scenario.n_nodes), None


def _averaging_cooperation(scenario, topology, combine, model):
    rho = averaging_rule_weights(topology)
    return cooperation_from_regularizer(topology, rho, scenario.eta, scenario.step_size), None


def _p1_cooperation(scenario, topology, combine, model):
    coop, solution = weight_opt.solve_p1(model, topology, combine)
    return coop, _certificate_dict(solution)


def _p2_cooperation(scenario, topology, combine, model):
    coop, solutions = weight_opt.solve_p2_all_nodes(model, topology)
    return coop, {
        "kkt_residual": max(s.kkt_residual for s in solutions),
        "iterations": max(s.iterations for s in solutions),
        "certified": all(s.certified for s in solutions),
        "objective": sum(s.objective for s in solutions),
    }


# Every strategy, in report order, with the step it runs. A "fixed" rule
# cooperates with one matrix per segment, from
# ``weights(scenario, topology, combine, model) -> (matrix, certificate or None)``;
# "mdlms" pulls toward its averaging-rule neighbors; "adaptive" learns
# its cooperation weights online.
STRATEGY_TABLE = {
    "atc": ("fixed", _no_cooperation),
    "mdlms-averaging": ("mdlms", None),
    "maic-averaging": ("fixed", _averaging_cooperation),
    "maic-p1": ("fixed", _p1_cooperation),
    "maic-p2": ("fixed", _p2_cooperation),
    "maic-adaptive": ("adaptive", None),
}
KNOWN_STRATEGIES = tuple(STRATEGY_TABLE)
# the strategies with a closed-form report: fixed cooperation weights
FIXED_WEIGHT_STRATEGIES = tuple(n for n, (kind, _) in STRATEGY_TABLE.items() if kind == "fixed")
BASELINE = KNOWN_STRATEGIES[0]  # gains are reported over the no-cooperation rule


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Resolve a scenario into weights, per-segment models, and theory.

    Optimized cooperation weights are re-solved per stationary segment
    because they depend on the segment's parameter statistics.
    """
    topology = ClusteredTopology.from_edges(
        scenario.n_nodes, scenario.edges, scenario.cluster_of
    )
    combine = metropolis_weights(topology)
    validate_column_stochastic(combine, topology.intra, what="combine matrix")

    if scenario.noise_var is not None:
        noise_var = np.asarray(scenario.noise_var, dtype=float)
    else:
        low, high = scenario.noise_db_range
        rng = np.random.default_rng(np.random.SeedSequence(scenario.profile_seed))
        noise_var = noise_profile_uniform_db(scenario.n_nodes, low, high, rng)

    models = tuple(
        SignalModel.from_profiles(
            topology,
            scenario.dim,
            scenario.reg_power,
            noise_var,
            scenario.step_size,
            np.asarray(segment.cluster_means, dtype=float),
            scenario.sigma_w,
            scenario.spread_scale,
            np.asarray(segment.gamma, dtype=float),
        )
        for segment in scenario.segments
    )

    plans = []
    for name in scenario.strategies:
        kind, cooperation = STRATEGY_TABLE[name]
        weights = reports = certificates = None
        if kind == "fixed":
            coops, certs = zip(*(cooperation(scenario, topology, combine, m) for m in models))
            for coop in coops:
                validate_column_stochastic(
                    coop, topology.inter_plus, what=f"{name} cooperation matrix"
                )
            reports = tuple(theory.analyze(combine, c, m) for c, m in zip(coops, models))
            weights = np.stack(coops)
            certificates = None if certs[0] is None else certs
        elif kind == "mdlms":
            weights = averaging_rule_weights(topology)[None]
        plans.append(StrategyPlan(name, kind, weights, reports, certificates))

    segment_of = np.searchsorted(np.asarray(scenario.boundaries), np.arange(scenario.iterations), side="right")
    membership = np.zeros((scenario.n_nodes, topology.n_clusters))
    membership[np.arange(scenario.n_nodes), topology.cluster_of] = 1.0
    return CompiledScenario(
        scenario=scenario,
        topology=topology,
        combine=combine,
        models=models,
        plans=tuple(plans),
        segment_of=segment_of,
        membership=membership,
        cluster_sizes=membership.sum(axis=0),
    )


def _draw_chunk(
    compiled: CompiledScenario, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """All randomness for runs lo..hi-1, each run from its own substream, time-major:
    regressors (T, C, N, M), responses (T, C, N), w_true (C, S, N, M). The (N, M) arrays
    are laid out (M, N) in memory, as the iterates are, so a step's operands share one
    order. Noise is drawn straight into the responses, so the noise slot is that array too."""
    scenario = compiled.scenario
    model0 = compiled.models[0]
    n, dim, horizon = model0.n_nodes, model0.dim, scenario.iterations
    n_seg = len(compiled.models)
    count = hi - lo

    w_true = np.empty((count, n_seg, dim, n)).swapaxes(-1, -2)
    # One allocation holds regressors and responses. glibc maps a block above 32 MiB
    # on its own and unmaps it on free, so a large chunk's draws never land in the
    # malloc heap, where a fragmented free block made peak RSS step by their size.
    size = horizon * count * n * dim
    draws = np.empty(size + horizon * count * n)
    regressors = draws[:size].reshape(horizon, count, dim, n).swapaxes(-1, -2)
    responses = draws[size:].reshape(horizon, count, n)
    digests = []
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((scenario.master_seed, lo + j)))
        for s, model in enumerate(compiled.models):
            w_true[j, s] = sample_parameters(model, rng)
        run_regressors = regressors[:, j] = draw_regressors(model0, horizon, rng)
        run_noises = responses[:, j] = draw_noises(model0, horizon, rng)
        digest = hashlib.sha256()
        digest.update(w_true[j].tobytes())
        digest.update(run_regressors.tobytes())
        digest.update(run_noises.tobytes())
        digests.append(digest.digest())

    for t, seg in enumerate(compiled.segment_of):
        responses[t] += strategies.row_dot(regressors[t], w_true[:, seg])
    return w_true, regressors, responses, responses, digests


def _simulate_chunk(compiled: CompiledScenario, lo: int, hi: int) -> dict:
    """Every strategy on runs lo..hi-1, in one pass over time.

    All strategies read the same draws. At each step the fixed-weight rules
    advance together as one ``(F, C, N, M)`` stack, with one cooperation and
    one combine matrix each; the MDLMS and adaptive rules step on their own.
    Each strategy's deviation from the true parameters goes into one shared
    ``(P, C, N, M)`` buffer, and one bookkeeping pass covers all P strategies.
    A run whose squared deviation exceeds ``DIVERGENCE_NORM**2`` or is NaN
    aborts.
    """
    scenario = compiled.scenario
    topology = compiled.topology
    combine = compiled.combine
    model0 = compiled.models[0]
    n, dim, horizon = model0.n_nodes, model0.dim, scenario.iterations
    count = hi - lo
    step_sizes = model0.step_sizes
    segment_of = compiled.segment_of
    window_start = horizon - max(1, int(round(STEADY_WINDOW_FRACTION * horizon)))
    window_len = horizon - window_start

    w_true, regressors, _, responses, digests = _draw_chunk(compiled, lo, hi)

    # fixed-weight rules first: rows 0..F-1 of the shared buffers are their stack
    fixed = [plan for plan in compiled.plans if plan.kind == "fixed"]
    others = [plan for plan in compiled.plans if plan.kind != "fixed"]
    plans = fixed + others
    n_fixed, n_plans = len(fixed), len(plans)
    if fixed:
        cooperation = np.stack([plan.weights for plan in fixed], axis=1)  # (S, F, N, N)
        # one combine per strategy: each strategy's rows get the product they would
        # get alone (numpy computes a one-row product as a GEMV, not within a GEMM)
        fixed_combine = np.broadcast_to(combine, (n_fixed, n, n))
    fixed_state = strategies.init_state(n, dim, (n_fixed, count))
    states = [
        strategies.init_state(n, dim, (count,), adaptive=plan.kind == "adaptive") for plan in others
    ]
    # laid out (C, P, M, N): numpy sums this order over runs in about half the
    # time it takes on (P, C, M, N), with the same run-by-run additions
    diff = np.empty((count, n_plans, dim, n)).transpose(1, 0, 3, 2)
    alive = np.ones((n_plans, count), dtype=bool)
    alive_count = np.full(n_plans, count, dtype=np.int64)
    aborted_at = np.full((n_plans, count), -1, dtype=np.int64)
    err_sum = np.zeros((horizon, n_plans, n))
    counts = np.zeros((horizon, n_plans), dtype=np.int64)
    window_net = np.zeros((n_plans, count))
    window_cluster = np.zeros((n_plans, count, compiled.cluster_sizes.size))
    frozen = False  # set once a run has aborted

    for t in range(horizon):
        seg = int(segment_of[t])
        u_t = regressors[t]
        d_t = responses[t]
        target = w_true[:, seg]
        if fixed:
            strategies.maic_step(
                fixed_state, u_t, d_t, fixed_combine, cooperation[seg], step_sizes
            )
            np.subtract(target, fixed_state.weights, out=diff[:n_fixed])
        for i, (plan, state) in enumerate(zip(others, states), n_fixed):
            if plan.kind == "mdlms":
                strategies.mdlms_step(
                    state, u_t, d_t, combine, plan.weights[0], scenario.eta, step_sizes
                )
            else:
                strategies.maic_adaptive_step(
                    state, u_t, d_t, combine, topology, scenario.alpha, step_sizes
                )
            np.subtract(target, state.weights, out=diff[i])
        err = strategies.row_dot(diff, diff)
        # A run's squared deviation and the total over all runs and strategies are
        # float sums of terms err >= 0, each within a relative (terms * 2**-53) of
        # its exact value, and the exact run sum is at most the exact total: a
        # total within half the bound clears every run. NaN fails the comparison.
        if not err.sum() <= DIVERGENCE_NORM**2 / 2:
            overflow = alive & ~(err.sum(axis=2) <= DIVERGENCE_NORM**2)
            if overflow.any():
                aborted_at[overflow] = t
                alive &= ~overflow
                alive_count -= overflow.sum(axis=1)
                frozen = True
        if frozen:
            # aborted runs restart from zero each step, so their values
            # stay finite, add nothing to the sums and never reach the solvers
            dead = ~alive
            fixed_state.weights[dead[:n_fixed]] = 0.0
            for state, dead_runs in zip(states, dead[n_fixed:]):
                state.weights[dead_runs] = 0.0
                if state.increment_power is not None:
                    state.increment_power[dead_runs] = 0.0
            err[dead] = 0.0
        err_sum[t] = err.sum(axis=1)
        counts[t] = alive_count
        if t >= window_start:
            window_net += err.sum(axis=2)
            window_cluster += err @ compiled.membership

    aborted = aborted_at >= 0
    run_steady = window_net / (window_len * n)
    run_steady[aborted] = np.nan
    run_cluster = window_cluster / (window_len * compiled.cluster_sizes)
    run_cluster[aborted] = np.nan

    out: dict = {"digests": digests, "strategies": {}}
    for i, (plan, state) in enumerate(zip(plans, [fixed_state] * n_fixed + states)):
        record = {
            "err_sum": err_sum[:, i],
            "counts": counts[:, i],
            "run_steady": run_steady[i],
            "run_cluster_steady": run_cluster[i],
            "aborted": [(lo + int(j), int(aborted_at[i, j])) for j in np.flatnonzero(aborted[i])],
            "fallbacks": int(state.fallback_count),
        }
        if plan.kind == "adaptive":
            finals = state.learned_weights * alive[i, :, None, None]
            record["final_weights_sum"] = finals.sum(axis=0)
            record["final_weights_count"] = int(alive_count[i])
        out["strategies"][plan.name] = record
    return out


def _chunk_task(args):
    return _simulate_chunk(*args)


class _KahanSum:
    """Compensated elementwise accumulator for a fixed-shape array."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, value: np.ndarray) -> None:
        adjusted = value - self._comp
        fresh = self.total + adjusted
        self._comp = (fresh - self.total) - adjusted
        self.total = fresh


@dataclass(frozen=True)
class MsdCurve:
    """Ensemble deviation curves plus per-run steady-state statistics."""

    network: np.ndarray  # (T,) linear
    per_cluster: np.ndarray  # (T, P) linear
    counts: np.ndarray  # (T,) runs contributing per iteration
    run_steady: np.ndarray  # (R,) linear, nan for aborted runs
    run_cluster_steady: np.ndarray  # (R, P)
    window_start: int

    @property
    def network_db(self) -> np.ndarray:
        return to_db(self.network)

    @property
    def n_valid_runs(self) -> int:
        return int(np.isfinite(self.run_steady).sum())

    def steady_state(self) -> float:
        return float(np.nanmean(self.run_steady))

    def steady_state_db(self) -> float:
        return float(to_db(self.steady_state()))

    def steady_se(self) -> float:
        """Standard error of the steady state; NaN with fewer than two valid runs."""
        valid = self.run_steady[np.isfinite(self.run_steady)]
        if valid.size < 2:
            return float("nan")
        return float(np.std(valid, ddof=1) / np.sqrt(valid.size))

    def steady_se_db(self) -> float:
        return float(10.0 / np.log(10.0) * self.steady_se() / self.steady_state())

    def cluster_steady(self) -> np.ndarray:
        return np.nanmean(self.run_cluster_steady, axis=0)


def msd_gain(curve: MsdCurve, baseline: MsdCurve) -> float:
    """Steady-state improvement of ``curve`` over ``baseline`` in decibels,
    from the runs valid in both, as ``summary.json`` records it."""
    return msd_gain_se(curve, baseline)[0]


def msd_gain_se(curve: MsdCurve, baseline: MsdCurve) -> tuple[float, float]:
    """Gain and its standard error from paired per-run steady states; the
    error is NaN with fewer than two valid pairs, the gain with none."""
    a = curve.run_steady
    b = baseline.run_steady
    valid = np.isfinite(a) & np.isfinite(b)
    a, b = a[valid], b[valid]
    n = a.size
    if n == 0:
        return float("nan"), float("nan")
    ma, mb = a.mean(), b.mean()
    gain = float(to_db(mb) - to_db(ma))
    if n < 2:
        return gain, float("nan")
    cov = np.cov(a, b, ddof=1)
    scale = 10.0 / np.log(10.0)
    var_gain = (scale**2) * (
        cov[0, 0] / ma**2 + cov[1, 1] / mb**2 - 2.0 * cov[0, 1] / (ma * mb)
    ) / n
    return gain, float(np.sqrt(max(var_gain, 0.0)))


@dataclass
class ScenarioResult:
    scenario: Scenario
    topology: ClusteredTopology
    combine: np.ndarray
    curves: dict[str, MsdCurve]
    reports: dict[str, "tuple[theory.TheoryReport, ...] | None"]
    weights: dict[str, np.ndarray]  # (S, N, N) per strategy
    certificates: dict[str, "tuple[dict, ...] | None"]
    diagnostics: dict
    stream_digest: str

    def summary_dict(self) -> dict:
        strategies_block = {}
        baseline = self.curves.get(BASELINE)
        for name, curve in self.curves.items():
            if curve.n_valid_runs:
                entry = {
                    "steady_state": curve.steady_state(),
                    "steady_state_db": curve.steady_state_db(),
                    "steady_se": curve.steady_se(),
                    "steady_se_db": curve.steady_se_db(),
                    "cluster_steady": curve.cluster_steady().tolist(),
                    "cluster_steady_db": to_db(curve.cluster_steady()).tolist(),
                }
            else:  # every run diverged: there is nothing to average
                entry = dict.fromkeys(
                    ("steady_state", "steady_state_db", "steady_se", "steady_se_db",
                     "cluster_steady", "cluster_steady_db")
                )
            entry["n_valid_runs"] = curve.n_valid_runs
            entry["all_runs_diverged"] = curve.n_valid_runs == 0
            entry["aborted_runs"] = len(self.diagnostics["aborted"].get(name, []))
            entry["qp_fallbacks"] = self.diagnostics["qp_fallbacks"].get(name, 0)
            if baseline is not None and name != BASELINE:
                gain = se = None
                if curve.n_valid_runs and baseline.n_valid_runs:
                    gain, se = msd_gain_se(curve, baseline)
                entry["gain_over_atc_db"] = gain
                entry["gain_over_atc_se_db"] = se
            reports = self.reports.get(name)
            entry["theory"] = None if reports is None else [r.to_dict() for r in reports]
            certs = self.certificates.get(name)
            entry["certificates"] = None if certs is None else list(certs)
            strategies_block[name] = entry
        return _finite_or_none(
            {
                "scenario": self.scenario.to_dict(),
                "stream_digest": self.stream_digest,
                "window_start": int(next(iter(self.curves.values())).window_start),
                "strategies": strategies_block,
            }
        )

    def write_outputs(self, out_dir) -> None:
        """Write curves.csv, summary.json, and per-strategy weight files."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        names = list(self.curves)
        horizon = self.scenario.iterations
        with open(os.path.join(out_dir, "curves.csv"), "w", encoding="utf-8") as handle:
            handle.write("iteration," + ",".join(f"{n}_db" for n in names) + "\n")
            columns = [self.curves[n].network_db for n in names]
            for t in range(horizon):
                row = ",".join(f"{col[t]:.17g}" for col in columns)
                handle.write(f"{t + 1},{row}\n")
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(self.summary_dict(), handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        for name, stack in self.weights.items():
            write_weight_csv(os.path.join(out_dir, f"weights_{name}.csv"), stack)


def write_weight_csv(path, stack: np.ndarray) -> None:
    """One row per segment and matrix row of an (S, N, N) weight stack."""
    with open(path, "w", encoding="utf-8") as handle:
        n = stack.shape[-1]
        handle.write("segment,row," + ",".join(f"col{j}" for j in range(n)) + "\n")
        for s in range(stack.shape[0]):
            for i in range(n):
                row = ",".join(f"{x:.17g}" for x in stack[s, i])
                handle.write(f"{s},{i},{row}\n")


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioResult:
    """Simulate every strategy of a scenario and collect paired statistics."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    compiled = compile_scenario(scenario)
    horizon, runs = scenario.iterations, scenario.runs
    n = scenario.n_nodes

    ranges = [(lo, min(lo + CHUNK_SIZE, runs)) for lo in range(0, runs, CHUNK_SIZE)]
    tasks = [(compiled, lo, hi) for lo, hi in ranges]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk_task, tasks))
    else:
        partials = [_chunk_task(task) for task in tasks]

    digest = hashlib.sha256()
    for partial in partials:
        for run_digest in partial["digests"]:
            digest.update(run_digest)
    stream_digest = digest.hexdigest()

    curves: dict[str, MsdCurve] = {}
    weights: dict[str, np.ndarray] = {}
    reports: dict[str, "tuple[theory.TheoryReport, ...] | None"] = {}
    certificates: dict[str, "tuple[dict, ...] | None"] = {}
    diagnostics = {"aborted": {}, "qp_fallbacks": {}}
    window_start = horizon - max(1, int(round(STEADY_WINDOW_FRACTION * horizon)))

    for plan in compiled.plans:
        err_sum = _KahanSum((horizon, n))
        counts = np.zeros(horizon, dtype=np.int64)
        run_steady = []
        run_cluster = []
        aborted = []
        fallbacks = 0
        final_weight_sum = _KahanSum((n, n))
        final_weight_count = 0
        for partial in partials:
            record = partial["strategies"][plan.name]
            err_sum.add(record["err_sum"])
            counts += record["counts"]
            run_steady.append(record["run_steady"])
            run_cluster.append(record["run_cluster_steady"])
            aborted.extend(record["aborted"])
            fallbacks += record["fallbacks"]
            if plan.weights is None:
                final_weight_sum.add(record["final_weights_sum"])
                final_weight_count += record["final_weights_count"]
        run_steady = np.concatenate(run_steady)
        run_cluster = np.concatenate(run_cluster)

        alive = np.where(counts > 0, counts, np.nan)  # runs alive; none: NaN, not 0/0
        network = err_sum.total.sum(axis=1) / (alive * n)
        per_cluster = (err_sum.total @ compiled.membership) / (alive[:, None] * compiled.cluster_sizes)
        curves[plan.name] = MsdCurve(
            network=network,
            per_cluster=per_cluster,
            counts=counts,
            run_steady=run_steady,
            run_cluster_steady=run_cluster,
            window_start=window_start,
        )
        reports[plan.name] = plan.reports
        certificates[plan.name] = plan.certificates
        diagnostics["aborted"][plan.name] = aborted
        diagnostics["qp_fallbacks"][plan.name] = fallbacks
        mean_final = final_weight_sum.total / max(final_weight_count, 1)  # learned online
        weights[plan.name] = mean_final[None] if plan.weights is None else plan.weights

    return ScenarioResult(
        scenario=scenario,
        topology=compiled.topology,
        combine=compiled.combine,
        curves=curves,
        reports=reports,
        weights=weights,
        certificates=certificates,
        diagnostics=diagnostics,
        stream_digest=stream_digest,
    )
