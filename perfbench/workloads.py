"""Seeded scenario generators for the benchmark workloads.

The program only ever receives the ``Scenario`` built here. A seed picks
one of ``VARIANTS`` variants (``seed % VARIANTS``) so that every seed
maps onto a variant whose reference outputs are recorded in
``reference.json``.
"""

from __future__ import annotations

import numpy as np

from maicnet import presets, theory
from maicnet.harness import Scenario, SegmentSpec
from maicnet.signal_model import SignalModel
from maicnet.topology import ClusteredTopology

VARIANTS = 64

# compile-n24 shape: N nodes in equal clusters, M parameters per node.
N24_NODES = 24
N24_CLUSTERS = 4
N24_DIM = 2


def variant(seed: int) -> int:
    return seed % VARIANTS


def study_a(seed: int) -> Scenario:
    """Preset a, all five strategies, 100 runs at 500 iterations.

    Simulation still takes about four fifths of a repetition, and the
    short repetition gives each run about ten compile and total samples.
    """
    return presets.get_scenario("a", runs=100, master_seed=1000 + variant(seed))


def study_b_2w(seed: int) -> Scenario:
    """Preset b (scalar tasks), fixed-weight and MDLMS strategies, 2000 runs."""
    return presets.get_scenario(
        "b",
        runs=2000,
        master_seed=2000 + variant(seed),
        strategies=("maic-p2", "mdlms-averaging", "atc"),
    )


def _n24_edges(rng: np.random.Generator, cluster_of: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    members = [[k for k, c in enumerate(cluster_of) if c == p] for p in range(N24_CLUSTERS)]
    edges = set()

    def link(a: int, b: int) -> None:
        edges.add((min(a, b), max(a, b)))

    for group in members:
        for i, node in enumerate(group):
            link(node, group[(i + 1) % len(group)])
        for _ in range(2):
            a, b = rng.choice(group, size=2, replace=False)
            link(int(a), int(b))
    # A chain of cluster links keeps the graph connected; extra random
    # links give some nodes several inter-cluster neighbours.
    for p in range(N24_CLUSTERS - 1):
        link(int(rng.choice(members[p])), int(rng.choice(members[p + 1])))
    for _ in range(6):
        p, q = rng.choice(N24_CLUSTERS, size=2, replace=False)
        link(int(rng.choice(members[p])), int(rng.choice(members[q])))
    return tuple(sorted(edges))


def compile_n24(seed: int) -> Scenario:
    """Random 24-node, 4-cluster, M=2 network with a one-factor PD Gamma."""
    rng = np.random.default_rng(np.random.SeedSequence((24, variant(seed))))
    size = N24_NODES // N24_CLUSTERS
    cluster_of = tuple(k // size for k in range(N24_NODES))
    edges = _n24_edges(rng, cluster_of)
    # Gamma_pq = l_p l_q off the diagonal, 1 on it: l l' + diag(1 - l^2) is PD.
    loadings = rng.uniform(0.5, 0.95, N24_CLUSTERS)
    gamma = np.outer(loadings, loadings)
    np.fill_diagonal(gamma, 1.0)
    return Scenario(
        name="compile-n24",
        n_nodes=N24_NODES,
        edges=edges,
        cluster_of=cluster_of,
        dim=N24_DIM,
        reg_power=tuple(float(x) for x in rng.uniform(1.0, 2.0, N24_NODES)),
        noise_var=tuple(float(x) for x in rng.uniform(0.4, 1.0, N24_NODES)),
        sigma_w=tuple(float(x) for x in rng.uniform(0.8, 1.3, N24_CLUSTERS)),
        spread_scale=0.01**2,
        step_size=0.05,
        eta=1.0,
        alpha=0.7,
        segments=(
            SegmentSpec(
                start=0,
                cluster_means=((0.7,) * N24_DIM,) * N24_CLUSTERS,
                gamma=tuple(tuple(float(x) for x in row) for row in gamma),
            ),
        ),
        iterations=300,
        # Enough runs that the simulated part, about a fifth of a
        # repetition, is long enough to time steadily.
        runs=240,
        master_seed=3000 + variant(seed),
        strategies=("maic-p1", "maic-p2", "atc"),
    )


def require_theory_regime(scenario: Scenario) -> None:
    """Raise ``ValueError`` unless the scenario is mean-stable and within
    ``theory.SIZE_CAP``, so that its theory is computed, not skipped."""
    stacked = scenario.n_nodes * scenario.dim
    if stacked > theory.SIZE_CAP:
        raise ValueError(f"NM = {stacked} exceeds theory.SIZE_CAP = {theory.SIZE_CAP}")
    topology = ClusteredTopology.from_edges(scenario.n_nodes, scenario.edges, scenario.cluster_of)
    segment = scenario.segments[0]
    model = SignalModel.from_profiles(
        topology,
        scenario.dim,
        scenario.reg_power,
        scenario.noise_var,
        scenario.step_size,
        np.asarray(segment.cluster_means),
        scenario.sigma_w,
        scenario.spread_scale,
        np.asarray(segment.gamma),
    )
    if not theory.mean_stability_bounds(model)[1]:
        raise ValueError("generated scenario is not mean-stable")


GENERATORS = {
    "study-a": study_a,
    "compile-n24": compile_n24,
    "study-b-2w": study_b_2w,
}


def build(name: str, seed: int) -> Scenario:
    return GENERATORS[name](seed)


def shape(scenario: Scenario) -> dict:
    """The scenario's size as recorded in the benchmark output."""
    return {
        "n_nodes": scenario.n_nodes,
        "clusters": max(scenario.cluster_of) + 1,
        "dim": scenario.dim,
        "edges": len(scenario.edges),
        "runs": scenario.runs,
        "iterations": scenario.iterations,
        "strategies": list(scenario.strategies),
    }
