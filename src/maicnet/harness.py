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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import strategies, theory, weight_opt
from .signal_model import SignalModel, noise_profile_uniform_db, sample_parameters
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
    "paired_steady_difference",
    "KNOWN_STRATEGIES",
]

CHUNK_SIZE = 250
STEADY_WINDOW_FRACTION = 0.1
DIVERGENCE_NORM = 1e12
KNOWN_STRATEGIES = (
    "atc",
    "mdlms-averaging",
    "maic-averaging",
    "maic-p1",
    "maic-p2",
    "maic-adaptive",
)


def to_db(x):
    return 10.0 * np.log10(x)


def _require_fields(data, kind, what: str) -> None:
    """Raise ValueError naming every field ``kind`` needs that ``data`` lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [f.name for f in fields(kind) if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"{what} is missing required field(s): {', '.join(missing)}")


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
        if not self.segments or self.segments[0].start != 0:
            raise ValueError("the first segment must start at iteration 0")
        starts = [s.start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])) or starts[-1] >= self.iterations:
            raise ValueError("segment starts must increase and stay inside the horizon")
        if (self.noise_var is None) == (self.noise_db_range is None):
            raise ValueError("give exactly one of noise_var and noise_db_range")

    @property
    def boundaries(self) -> tuple[int, ...]:
        return tuple(s.start for s in self.segments[1:])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_nodes": self.n_nodes,
            "edges": [list(e) for e in self.edges],
            "cluster_of": list(self.cluster_of),
            "dim": self.dim,
            "reg_power": list(self.reg_power),
            "noise_var": None if self.noise_var is None else list(self.noise_var),
            "noise_db_range": None if self.noise_db_range is None else list(self.noise_db_range),
            "profile_seed": self.profile_seed,
            "sigma_w": list(self.sigma_w),
            "spread_scale": self.spread_scale,
            "step_size": self.step_size,
            "eta": self.eta,
            "alpha": self.alpha,
            "segments": [
                {
                    "start": s.start,
                    "cluster_means": [list(m) for m in s.cluster_means],
                    "gamma": [list(g) for g in s.gamma],
                }
                for s in self.segments
            ],
            "iterations": self.iterations,
            "runs": self.runs,
            "master_seed": self.master_seed,
            "strategies": list(self.strategies),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _require_fields(data, cls, "scenario")
        for index, segment in enumerate(data["segments"]):
            _require_fields(segment, SegmentSpec, f"segment {index}")
        segments = tuple(
            SegmentSpec(
                start=int(s["start"]),
                cluster_means=tuple(tuple(float(x) for x in m) for m in s["cluster_means"]),
                gamma=tuple(tuple(float(x) for x in g) for g in s["gamma"]),
            )
            for s in data["segments"]
        )
        return cls(
            name=str(data["name"]),
            n_nodes=int(data["n_nodes"]),
            edges=tuple((int(a), int(b)) for a, b in data["edges"]),
            cluster_of=tuple(int(c) for c in data["cluster_of"]),
            dim=int(data["dim"]),
            reg_power=tuple(float(x) for x in data["reg_power"]),
            noise_var=(
                None if data.get("noise_var") is None
                else tuple(float(x) for x in data["noise_var"])
            ),
            noise_db_range=(
                None if data.get("noise_db_range") is None
                else (float(data["noise_db_range"][0]), float(data["noise_db_range"][1]))
            ),
            profile_seed=int(data.get("profile_seed", 0)),
            sigma_w=tuple(float(x) for x in data["sigma_w"]),
            spread_scale=float(data["spread_scale"]),
            step_size=float(data["step_size"]),
            eta=float(data["eta"]),
            alpha=float(data["alpha"]),
            segments=segments,
            iterations=int(data["iterations"]),
            runs=int(data["runs"]),
            master_seed=int(data["master_seed"]),
            strategies=tuple(str(s) for s in data["strategies"]),
        )

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
    kind: str  # "fixed", "mdlms", "adaptive"
    cooperation: "np.ndarray | None"  # (S, N, N) for fixed kinds
    regularizer: "np.ndarray | None"  # (N, N) for mdlms
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


def _certificate_dict(solution: weight_opt.QPSolution) -> dict:
    return {
        "objective": float(solution.objective),
        "kkt_residual": float(solution.kkt_residual),
        "iterations": int(solution.iterations),
        "certified": bool(solution.certified),
    }


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Resolve a scenario into weights, per-segment models, and theory.

    Optimized cooperation weights are re-solved per stationary segment
    because they depend on the segment's parameter statistics.
    """
    topology = ClusteredTopology.from_edges(
        scenario.n_nodes, scenario.edges, scenario.cluster_of
    )
    combine = metropolis_weights(topology)
    validate_column_stochastic(combine, topology.intra_mask(), what="combine matrix")

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

    coop_mask = topology.inter_plus_mask()
    rho = averaging_rule_weights(topology)
    identity = np.eye(scenario.n_nodes)

    def fixed_plan(name: str, coops: list[np.ndarray], certs=None) -> StrategyPlan:
        for coop in coops:
            validate_column_stochastic(coop, coop_mask, what=f"{name} cooperation matrix")
        if scenario.n_nodes * scenario.dim <= theory.SIZE_CAP:
            reports = tuple(
                theory.analyze(combine, coop, model) for coop, model in zip(coops, models)
            )
        else:
            reports = None
        return StrategyPlan(
            name=name,
            kind="fixed",
            cooperation=np.stack(coops),
            regularizer=None,
            reports=reports,
            certificates=None if certs is None else tuple(certs),
        )

    plans = []
    for name in scenario.strategies:
        if name == "atc":
            plans.append(fixed_plan(name, [identity for _ in models]))
        elif name == "maic-averaging":
            coop = cooperation_from_regularizer(topology, rho, scenario.eta, scenario.step_size)
            plans.append(fixed_plan(name, [coop for _ in models]))
        elif name == "maic-p2":
            coops, certs = [], []
            for model in models:
                coop, sols = weight_opt.solve_p2_all_nodes(model, topology)
                coops.append(coop)
                certs.append(
                    {
                        "kkt_residual": max(s.kkt_residual for s in sols),
                        "iterations": max(s.iterations for s in sols),
                        "certified": all(s.certified for s in sols),
                        "objective": sum(s.objective for s in sols),
                    }
                )
            plans.append(fixed_plan(name, coops, certs))
        elif name == "maic-p1":
            coops, certs = [], []
            for model in models:
                coop, sol = weight_opt.solve_p1(model, topology, combine)
                coops.append(coop)
                certs.append(_certificate_dict(sol))
            plans.append(fixed_plan(name, coops, certs))
        elif name == "mdlms-averaging":
            plans.append(
                StrategyPlan(
                    name=name,
                    kind="mdlms",
                    cooperation=None,
                    regularizer=rho,
                    reports=None,
                    certificates=None,
                )
            )
        elif name == "maic-adaptive":
            plans.append(
                StrategyPlan(
                    name=name,
                    kind="adaptive",
                    cooperation=None,
                    regularizer=None,
                    reports=None,
                    certificates=None,
                )
            )

    segment_of = np.searchsorted(np.asarray(scenario.boundaries), np.arange(scenario.iterations), side="right")
    return CompiledScenario(
        scenario=scenario,
        topology=topology,
        combine=combine,
        models=models,
        plans=tuple(plans),
        segment_of=segment_of,
    )


def _draw_chunk(
    compiled: CompiledScenario, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """All randomness for runs lo..hi-1, each run from its own substream."""
    scenario = compiled.scenario
    model0 = compiled.models[0]
    n, dim, horizon = model0.n_nodes, model0.dim, scenario.iterations
    n_seg = len(compiled.models)
    count = hi - lo

    w_true = np.empty((count, n_seg, n, dim))
    regressors = np.empty((count, horizon, n, dim))
    noises = np.empty((count, horizon, n))
    digests = []
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((scenario.master_seed, lo + j)))
        for s, model in enumerate(compiled.models):
            draw = sample_parameters(model, rng)
            w_true[j, s] = draw.values[0].reshape(n, dim)
        z = rng.standard_normal((horizon, n, dim))
        regressors[j] = np.einsum("nij,tnj->tni", model0._reg_sqrt, z)
        noises[j] = rng.standard_normal((horizon, n)) * np.sqrt(model0.noise_var)
        digest = hashlib.sha256()
        digest.update(w_true[j].tobytes())
        digest.update(regressors[j].tobytes())
        digest.update(noises[j].tobytes())
        digests.append(digest.digest())

    responses = np.empty((count, horizon, n))
    starts = [seg.start for seg in scenario.segments] + [horizon]
    for s in range(n_seg):
        t0, t1 = starts[s], starts[s + 1]
        responses[:, t0:t1] = (
            np.einsum("ctnm,cnm->ctn", regressors[:, t0:t1], w_true[:, s]) + noises[:, t0:t1]
        )
    return w_true, regressors, noises, responses, digests


def _simulate_chunk(compiled: CompiledScenario, lo: int, hi: int) -> dict:
    scenario = compiled.scenario
    topology = compiled.topology
    combine = compiled.combine
    model0 = compiled.models[0]
    n, dim, horizon = model0.n_nodes, model0.dim, scenario.iterations
    n_clusters = model0.n_clusters
    count = hi - lo
    step_sizes = model0.step_sizes
    segment_of = compiled.segment_of
    window_start = horizon - max(1, int(round(STEADY_WINDOW_FRACTION * horizon)))
    window_len = horizon - window_start
    membership = np.zeros((n, n_clusters))
    membership[np.arange(n), topology.cluster_of] = 1.0
    cluster_sizes = membership.sum(axis=0)

    w_true, regressors, _, responses, digests = _draw_chunk(compiled, lo, hi)

    out: dict = {"digests": digests, "strategies": {}}
    for plan in compiled.plans:
        state = strategies.init_state(n, dim, (count,), adaptive=plan.kind == "adaptive")
        alive = np.ones(count, dtype=bool)
        aborted_at = np.full(count, -1, dtype=np.int64)
        err_sum = np.zeros((horizon, n))
        counts = np.zeros(horizon, dtype=np.int64)
        window_net = np.zeros(count)
        window_cluster = np.zeros((count, n_clusters))

        for t in range(horizon):
            seg = int(segment_of[t])
            u_t = regressors[:, t]
            d_t = responses[:, t]
            if plan.kind == "fixed":
                strategies.maic_step(
                    state, u_t, d_t, combine, plan.cooperation[seg], step_sizes
                )
            elif plan.kind == "mdlms":
                strategies.mdlms_step(
                    state, u_t, d_t, combine, plan.regularizer, scenario.eta, step_sizes
                )
            else:
                strategies.maic_adaptive_step(
                    state, u_t, d_t, combine, topology, scenario.alpha, step_sizes
                )
            diff = w_true[:, seg] - state.weights
            err = np.einsum("cnm,cnm->cn", diff, diff)
            net = err.sum(axis=1)
            overflow = alive & ~(net <= DIVERGENCE_NORM**2)
            if overflow.any():
                aborted_at[overflow] = t
                alive &= ~overflow
            masked = err * alive[:, None]
            err_sum[t] = masked.sum(axis=0)
            counts[t] = int(alive.sum())
            if t >= window_start:
                window_net += net * alive
                window_cluster += masked @ membership

        aborted = aborted_at >= 0
        run_steady = window_net / (window_len * n)
        run_steady[aborted] = np.nan
        run_cluster = window_cluster / (window_len * cluster_sizes)
        run_cluster[aborted] = np.nan

        record = {
            "err_sum": err_sum,
            "counts": counts,
            "run_steady": run_steady,
            "run_cluster_steady": run_cluster,
            "aborted": [(lo + int(j), int(aborted_at[j])) for j in np.flatnonzero(aborted)],
            "fallbacks": int(state.fallback_count),
        }
        if plan.kind == "adaptive":
            finals = state.learned_weights * alive[:, None, None]
            record["final_weights_sum"] = finals.sum(axis=0)
            record["final_weights_count"] = int(alive.sum())
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
        valid = self.run_steady[np.isfinite(self.run_steady)]
        return float(np.std(valid, ddof=1) / np.sqrt(valid.size))

    def steady_se_db(self) -> float:
        return float(10.0 / np.log(10.0) * self.steady_se() / self.steady_state())

    def cluster_steady(self) -> np.ndarray:
        return np.nanmean(self.run_cluster_steady, axis=0)

    def cluster_se(self) -> np.ndarray:
        finite = np.isfinite(self.run_cluster_steady)
        n = finite.sum(axis=0)
        return np.nanstd(self.run_cluster_steady, axis=0, ddof=1) / np.sqrt(n)


def msd_gain(curve: MsdCurve, baseline: MsdCurve) -> float:
    """Steady-state improvement of ``curve`` over ``baseline`` in decibels."""
    return baseline.steady_state_db() - curve.steady_state_db()


def msd_gain_se(curve: MsdCurve, baseline: MsdCurve) -> tuple[float, float]:
    """Gain and its standard error from paired per-run steady states."""
    a = curve.run_steady
    b = baseline.run_steady
    valid = np.isfinite(a) & np.isfinite(b)
    a, b = a[valid], b[valid]
    n = a.size
    ma, mb = a.mean(), b.mean()
    cov = np.cov(a, b, ddof=1)
    scale = 10.0 / np.log(10.0)
    var_gain = (scale**2) * (
        cov[0, 0] / ma**2 + cov[1, 1] / mb**2 - 2.0 * cov[0, 1] / (ma * mb)
    ) / n
    return float(to_db(mb) - to_db(ma)), float(np.sqrt(max(var_gain, 0.0)))


def paired_steady_difference(curve: MsdCurve, other: MsdCurve) -> tuple[float, float]:
    """Mean and standard error of per-run steady-state differences."""
    delta = curve.run_steady - other.run_steady
    delta = delta[np.isfinite(delta)]
    return float(delta.mean()), float(delta.std(ddof=1) / np.sqrt(delta.size))


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
        atc_curve = self.curves.get("atc")
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
            if atc_curve is not None and name != "atc":
                gain = se = None
                if curve.n_valid_runs and atc_curve.n_valid_runs:
                    gain, se = msd_gain_se(curve, atc_curve)
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
            path = os.path.join(out_dir, f"weights_{name}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                n = stack.shape[-1]
                handle.write("segment,row," + ",".join(f"col{j}" for j in range(n)) + "\n")
                for s in range(stack.shape[0]):
                    for i in range(n):
                        row = ",".join(f"{x:.17g}" for x in stack[s, i])
                        handle.write(f"{s},{i},{row}\n")


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioResult:
    """Simulate every strategy of a scenario and collect paired statistics."""
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
            if plan.kind == "adaptive":
                final_weight_sum.add(record["final_weights_sum"])
                final_weight_count += record["final_weights_count"]
        run_steady = np.concatenate(run_steady)
        run_cluster = np.concatenate(run_cluster)

        membership = np.zeros((n, compiled.models[0].n_clusters))
        membership[np.arange(n), compiled.topology.cluster_of] = 1.0
        sizes = membership.sum(axis=0)
        network = err_sum.total.sum(axis=1) / (counts * n)
        per_cluster = (err_sum.total @ membership) / (counts[:, None] * sizes)
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

        if plan.kind == "fixed":
            weights[plan.name] = plan.cooperation
        elif plan.kind == "mdlms":
            weights[plan.name] = plan.regularizer[None, :, :]
        else:
            mean_final = final_weight_sum.total / max(final_weight_count, 1)
            weights[plan.name] = mean_final[None, :, :]

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
