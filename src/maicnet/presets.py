"""Reference scenarios for the comparison studies.

One ten-node network with three clusters is reused throughout. The
per-node power profiles are fixed approximations chosen inside the
ranges of the original study's figures; the strategy orderings the
studies target are robust to this choice. Cluster-level parameter
statistics, step sizes, and regularization strengths are exact study
constants.
"""

from __future__ import annotations

from dataclasses import replace

from .harness import Scenario, SegmentSpec

__all__ = ["get_scenario", "PRESET_NAMES", "PRESET_KNOBS", "TEN_NODE_EDGES", "TEN_NODE_CLUSTERS"]

PRESET_NAMES = ("a", "b", "c", "nonstationary")
PRESET_KNOBS = {"gamma12": "b", "delta": "c"}  # knob -> the one preset it applies to

# Ten nodes, three clusters, five inter-cluster links arranged as a star:
# clusters 1 and 2 attach to cluster 0 only. Nodes 0, 6, and 9 have no
# inter-cluster neighbor and therefore only ever keep their own adapted
# iterate in the cooperation step.
TEN_NODE_CLUSTERS = (0, 0, 0, 0, 1, 1, 1, 2, 2, 2)
TEN_NODE_EDGES = (
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (5, 6),
    (7, 8), (7, 9), (8, 9),
    (1, 5), (2, 4), (3, 4), (3, 7), (1, 8),
)

REG_POWER = (1.12, 1.85, 1.37, 1.74, 1.08, 1.51, 1.96, 1.24, 1.62, 1.43)
NOISE_VAR = (0.59, 0.93, 0.47, 1.02, 0.76, 0.44, 0.86, 0.66, 0.82, 0.55)
SIGMA_W = (1.15, 0.85, 1.30)

CORRELATED_GAMMA = ((1.0, 0.9, 0.5), (0.9, 1.0, 0.5), (0.5, 0.5, 1.0))

ALL_STRATEGIES = ("maic-p1", "maic-p2", "maic-adaptive", "mdlms-averaging", "atc")


def _gamma_b(gamma12: float):
    return ((1.0, gamma12, 0.5), (gamma12, 1.0, 0.5), (0.5, 0.5, 1.0))


def _scenario_a() -> Scenario:
    return Scenario(
        name="a",
        n_nodes=10,
        edges=TEN_NODE_EDGES,
        cluster_of=TEN_NODE_CLUSTERS,
        dim=2,
        reg_power=REG_POWER,
        noise_var=NOISE_VAR,
        sigma_w=SIGMA_W,
        spread_scale=0.01**2,
        step_size=0.05,
        eta=1.0,
        alpha=0.7,
        segments=(
            SegmentSpec(start=0, cluster_means=((0.7, 0.7),) * 3, gamma=CORRELATED_GAMMA),
        ),
        iterations=500,
        runs=500,
        master_seed=20240,
        strategies=ALL_STRATEGIES,
    )


def _scenario_b(gamma12: float = 0.9) -> Scenario:
    return Scenario(
        name="b",
        n_nodes=10,
        edges=TEN_NODE_EDGES,
        cluster_of=TEN_NODE_CLUSTERS,
        dim=1,
        reg_power=REG_POWER,
        noise_var=None,
        noise_db_range=(-15.0, -5.0),
        profile_seed=37,
        sigma_w=SIGMA_W,
        spread_scale=0.03**2,
        step_size=0.1,
        eta=5.0,
        alpha=0.7,
        segments=(
            SegmentSpec(start=0, cluster_means=((1.0,), (1.0,), (1.0,)), gamma=_gamma_b(gamma12)),
        ),
        iterations=500,
        runs=500,
        master_seed=20241,
        strategies=("maic-p2", "mdlms-averaging", "atc"),
    )


def _scenario_c(delta: float = 0.3) -> Scenario:
    means = (
        (1.0 - delta, 1.0 - delta),
        (1.0, 1.0),
        (1.0 + delta, 1.0 + delta),
    )
    base = _scenario_a()
    return replace(
        base,
        name="c",
        spread_scale=0.03**2,
        segments=(SegmentSpec(start=0, cluster_means=means, gamma=CORRELATED_GAMMA),),
        master_seed=20242,
    )


def _scenario_nonstationary() -> Scenario:
    base = _scenario_a()
    flat = lambda value: ((value, value),) * 3  # noqa: E731
    mixed = ((1.0, 0.5, 0.1), (0.5, 1.0, 0.5), (0.1, 0.5, 1.0))
    weak = ((1.0, 0.1, 0.1), (0.1, 1.0, 0.1), (0.1, 0.1, 1.0))
    segments = (
        SegmentSpec(start=0, cluster_means=flat(0.8), gamma=CORRELATED_GAMMA),
        SegmentSpec(start=250, cluster_means=flat(0.6), gamma=mixed),
        SegmentSpec(start=500, cluster_means=flat(1.2), gamma=weak),
        SegmentSpec(start=750, cluster_means=flat(0.8), gamma=CORRELATED_GAMMA),
    )
    return replace(
        base,
        name="nonstationary",
        segments=segments,
        iterations=1000,
        eta=12.0,
        master_seed=20243,
    )


def get_scenario(name: str, **overrides) -> Scenario:
    """Build a named preset.

    Overrides accept any Scenario field plus two preset knobs:
    ``gamma12`` for preset b and ``delta`` for preset c.
    """
    key = name.lower()
    gamma12 = overrides.pop("gamma12", None)
    delta = overrides.pop("delta", None)
    if key == "a":
        scenario = _scenario_a()
    elif key == "b":
        scenario = _scenario_b(0.9 if gamma12 is None else float(gamma12))
    elif key == "c":
        scenario = _scenario_c(0.3 if delta is None else float(delta))
    elif key == "nonstationary":
        scenario = _scenario_nonstationary()
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    for knob, value in (("gamma12", gamma12), ("delta", delta)):
        if value is not None and key != PRESET_KNOBS[knob]:
            raise ValueError(f"{knob} only applies to preset {PRESET_KNOBS[knob]}")
    if overrides:
        if "strategies" in overrides:
            overrides["strategies"] = tuple(overrides["strategies"])
        scenario = replace(scenario, **overrides)
    return scenario
