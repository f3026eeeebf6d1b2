"""Acceptance gate: one test per study-level claim, at its stated tolerance.

Every test prints a single labeled line with the measured quantities, so
``pytest tests/test_acceptance.py -v`` reads as a checklist. The heavy
fixtures (the 2000-run comparison and the correlation sweep) are
module-scoped; the whole module finishes in a few minutes on one core.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from maicnet import harness, presets, strategies, theory, weight_opt
from maicnet.topology import averaging_rule_weights
from oracles import (
    atc_step,
    cross_forcing_fixed_point,
    forcing_matrices_reference,
    grid_min_quadratic,
    grid_nearest_simplex_point,
    lifted_transition_bruteforce,
    local_program,
    mean_transition_reference,
    msd_forcing_terms,
    project_simplex,
    random_cooperation,
    regressor_roots,
    variance_transition,
    vec,
)

CORRELATION_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def scenario_a_result():
    return harness.run_scenario(presets.get_scenario("a", runs=2000))


@pytest.fixture(scope="module")
def correlation_results():
    return {
        gamma: harness.run_scenario(presets.get_scenario("b", gamma12=gamma))
        for gamma in CORRELATION_SWEEP
    }


@pytest.fixture(scope="module")
def base_compiled():
    scenario = presets.get_scenario("a", strategies=("atc",))
    return harness.compile_scenario(scenario)


def _paired_gap(worse, better, cluster=None):
    """Mean and standard error of per-run linear MSD differences."""
    if cluster is None:
        delta = worse.run_steady - better.run_steady
    else:
        delta = worse.run_cluster_steady[:, cluster] - better.run_cluster_steady[:, cluster]
    mean = float(delta.mean())
    se = float(delta.std(ddof=1) / math.sqrt(delta.size))
    return mean, se


class TestAcceptance:
    def test_01_theory_matches_simulation(self, scenario_a_result):
        """Closed-form steady state vs 2000-run Monte Carlo, optimized weights."""
        summary = scenario_a_result.summary_dict()
        lines = []
        for name in ("maic-p1", "maic-p2"):
            sim_db = scenario_a_result.curves[name].steady_state_db()
            report = summary["strategies"][name]["theory"][0]
            gap = abs(sim_db - report["msd_db"])
            approx_gap = abs(report["msd_db"] - report["msd_approx_db"])
            lines.append(
                f"{name}: sim {sim_db:.3f} dB, closed form {report['msd_db']:.3f} dB "
                f"(|gap| {gap:.3f} <= 1), approximation gap {approx_gap:.3f} <= 0.5"
            )
            assert gap <= 1.0
            assert approx_gap <= 0.5
        print("criterion 1 (theory vs simulation): " + "; ".join(lines))

    def test_02_strategy_ordering(self, scenario_a_result):
        """P1 <= P2 ~ adaptive < MDLMS < ATC with 3-sigma strict gaps."""
        curves = scenario_a_result.curves
        p1, p2 = curves["maic-p1"], curves["maic-p2"]
        adaptive, mdlms, atc = (
            curves["maic-adaptive"],
            curves["mdlms-averaging"],
            curves["atc"],
        )

        soft_gap, soft_se = _paired_gap(p2, p1)
        assert soft_gap >= -3.0 * soft_se

        near = abs(p2.steady_state_db() - adaptive.steady_state_db())
        assert near <= 1.0

        zs = []
        for worse, better in ((mdlms, p2), (mdlms, adaptive), (atc, mdlms)):
            gap, se = _paired_gap(worse, better)
            zs.append(gap / se)
            assert gap > 3.0 * se

        order = " < ".join(
            f"{name} {curves[name].steady_state_db():.3f}"
            for name in ("maic-p1", "maic-p2", "maic-adaptive", "mdlms-averaging", "atc")
        )
        print(
            f"criterion 2 (ordering, dB): {order}; strict-gap z-scores "
            f"{', '.join(f'{z:.1f}' for z in zs)} (all > 3); "
            f"|p2 - adaptive| {near:.3f} dB <= 1"
        )

    def test_03_cluster_level_benefit(self, correlation_results):
        """Strong correlation: optimized weights help every cluster, the
        averaging regularizer hurts at least one."""
        result = correlation_results[0.9]
        atc = result.curves["atc"]
        p2 = result.curves["maic-p2"]
        mdlms = result.curves["mdlms-averaging"]
        n_clusters = atc.run_cluster_steady.shape[1]

        p2_zs = []
        for p in range(n_clusters):
            gap, se = _paired_gap(atc, p2, cluster=p)
            p2_zs.append(gap / se)
            assert gap > 3.0 * se

        mdlms_zs = []
        for p in range(n_clusters):
            gap, se = _paired_gap(mdlms, atc, cluster=p)
            mdlms_zs.append(gap / se)
        assert max(mdlms_zs) > 3.0

        print(
            "criterion 3 (per-cluster): optimized-vs-none z "
            f"{', '.join(f'{z:.1f}' for z in p2_zs)} (all > 3); "
            "averaging-worse-than-none z "
            f"{', '.join(f'{z:.1f}' for z in mdlms_zs)} (max > 3)"
        )

    def test_04_gain_grows_with_correlation(self, correlation_results):
        """Optimized-weight gain is non-decreasing in the inter-cluster
        correlation; averaging-regularizer gain stays within 1 dB."""
        p2_gains, mdlms_gains = [], []
        for gamma in CORRELATION_SWEEP:
            result = correlation_results[gamma]
            atc = result.curves["atc"]
            p2_gains.append(harness.msd_gain_se(result.curves["maic-p2"], atc))
            mdlms_gains.append(
                harness.msd_gain_se(result.curves["mdlms-averaging"], atc)
            )

        steps = []
        for (g0, s0), (g1, s1) in zip(p2_gains, p2_gains[1:]):
            step = g1 - g0
            steps.append(step)
            assert step >= -2.0 * math.hypot(s0, s1)

        spread = max(g for g, _ in mdlms_gains) - min(g for g, _ in mdlms_gains)
        assert spread < 1.0

        print(
            "criterion 4 (correlation sweep): optimized gains "
            f"{', '.join(f'{g:+.3f}' for g, _ in p2_gains)} dB, steps "
            f"{', '.join(f'{s:+.3f}' for s in steps)} (non-decreasing within 2 se); "
            f"averaging-gain spread {spread:.3f} dB < 1"
        )

    def test_05_mean_difference_robustness(self):
        """Large cluster-mean gaps drive the cooperation weights toward the
        identity without hurting; small gaps leave every strategy ahead."""
        big = harness.run_scenario(
            presets.get_scenario("c", delta=0.3, strategies=("maic-p1", "atc"))
        )
        coop = big.weights["maic-p1"][0]
        diag_min = float(np.diag(coop).min())
        off_max = float((coop - np.diag(np.diag(coop))).max())
        assert diag_min > off_max
        big_gain, _ = harness.msd_gain_se(big.curves["maic-p1"], big.curves["atc"])
        assert abs(big_gain) <= 1.0

        small = harness.run_scenario(presets.get_scenario("c", delta=0.06))
        small_gains = {}
        for name in ("maic-p1", "maic-p2", "maic-adaptive", "mdlms-averaging"):
            gain, se = harness.msd_gain_se(small.curves[name], small.curves["atc"])
            small_gains[name] = gain
            assert gain > 3.0 * se

        print(
            f"criterion 5 (mean gaps): delta 0.3 -> min diag {diag_min:.3f} > "
            f"max off-diag {off_max:.3f}, gain {big_gain:+.3f} dB within 1; "
            "delta 0.06 gains "
            + ", ".join(f"{k} {v:+.2f}" for k, v in small_gains.items())
            + " dB (all > 3 se)"
        )

    def test_06_stability_invariants(self, base_compiled):
        """Mean stability is weight-independent, the lifted radius is the
        squared mean radius, and the empirical mean error decays to noise."""
        model = base_compiled.models[0]
        combine = base_compiled.combine
        topology = base_compiled.topology
        rng = np.random.default_rng(421)

        worst_rho, worst_gap = 0.0, 0.0
        for _ in range(100):
            coop = random_cooperation(topology, rng)
            transition = mean_transition_reference(combine, coop, model)
            rho = float(np.abs(np.linalg.eigvals(transition)).max())
            assert rho < 1.0
            lifted = variance_transition(transition)
            rho_lifted = float(np.abs(np.linalg.eigvals(lifted)).max())
            gap = abs(rho_lifted - rho**2)
            assert gap <= 1e-8
            worst_rho = max(worst_rho, rho)
            worst_gap = max(worst_gap, gap)

        runs, horizon = 500, 200
        n, dim = model.n_nodes, model.dim
        coop = random_cooperation(topology, rng)
        z = rng.standard_normal((runs, model.n_clusters * dim))
        blocks = (model.cluster_means.reshape(-1) + z @ model._cluster_sqrt.T).reshape(
            runs, model.n_clusters, dim
        )
        w_true = blocks[:, model.cluster_of, :]
        state = strategies.init_state(n, dim, (runs,))
        start_norm = float(np.linalg.norm(w_true.reshape(runs, -1).mean(axis=0)))
        for _ in range(horizon):
            u = np.einsum(
                "nij,rnj->rni", regressor_roots(model), rng.standard_normal((runs, n, dim))
            )
            d = np.einsum("rni,rni->rn", u, w_true)
            d = d + rng.standard_normal((runs, n)) * np.sqrt(model.noise_var)
            strategies.maic_step(state, u, d, combine, coop, model.step_size)
        errors = (w_true - state.weights).reshape(runs, -1)
        mean_norm = float(np.linalg.norm(errors.mean(axis=0)))
        se_norm = float(
            np.linalg.norm(errors.std(axis=0, ddof=1) / math.sqrt(runs))
        )
        assert mean_norm <= 10.0 * se_norm
        assert mean_norm <= 0.05 * start_norm

        print(
            f"criterion 6 (stability): 100 random weights, max mean radius "
            f"{worst_rho:.4f} < 1, max |lifted - squared| {worst_gap:.1e} <= 1e-8; "
            f"mean-error norm {mean_norm:.4f} <= 10 x se norm {se_norm:.4f} "
            f"(start {start_norm:.2f})"
        )

    def test_07_oracle_equivalences(self, base_compiled):
        """Closed forms agree with brute-force and fixed-point references."""
        model = base_compiled.models[0]
        combine = base_compiled.combine
        topology = base_compiled.topology

        coop, solutions = weight_opt.solve_p2_all_nodes(model, topology)
        terms = msd_forcing_terms(combine, coop, model)
        transition = mean_transition_reference(combine, coop, model)
        _, spread_mat = forcing_matrices_reference(combine, coop, model)
        fixed = cross_forcing_fixed_point(transition, spread_mat)
        cross_rel = float(
            np.linalg.norm(2.0 * vec(fixed) - terms.cross_limit)
            / np.linalg.norm(terms.cross_limit)
        )
        assert cross_rel <= 1e-10

        worst_qp = 0.0
        for node, solution in enumerate(solutions):
            support, quad, lin = local_program(node, model, topology)
            assert len(support) <= 3
            _, grid_value = grid_min_quadratic(quad, lin, resolution=1e-3)
            q = solution.weights
            solved = float(q @ quad @ q - 2.0 * lin @ q)
            assert solved <= grid_value + 1e-9
            worst_qp = max(worst_qp, abs(solved - grid_value))
            assert abs(solved - grid_value) <= 2e-3

        rng = np.random.default_rng(77)
        worst_proj = 0.0
        for size in (2, 3):
            for _ in range(4):
                point = rng.uniform(-0.5, 1.5, size=size)
                projected = project_simplex(point)
                proj_dist = float(np.linalg.norm(projected - point))
                _, grid_sq = grid_nearest_simplex_point(point, resolution=1e-3)
                grid_dist = math.sqrt(grid_sq)
                assert proj_dist <= grid_dist + 1e-12
                worst_proj = max(worst_proj, grid_dist - proj_dist)
                assert grid_dist - proj_dist <= 2e-3

        small = np.array([[0.9, 0.2], [0.1, 0.7]])
        assert np.array_equal(
            variance_transition(small), lifted_transition_bruteforce(small)
        )

        print(
            f"criterion 7 (oracles): cross-term fixed point rel err {cross_rel:.1e} "
            f"<= 1e-10; worst QP-vs-grid objective gap {worst_qp:.1e} <= 2e-3; "
            f"worst projection-vs-grid distance gap {worst_proj:.1e} <= 2e-3; "
            "lifted operator matches the four-index form exactly"
        )

    def test_08_reduction_identities(self, scalar_node):
        """Identity cooperation and zero pull reduce bit-exactly to the
        no-cooperation rule; the one-node steady state hits the closed form."""
        scenario = presets.get_scenario("a", strategies=("atc",))
        compiled = harness.compile_scenario(scenario)
        model, combine = compiled.models[0], compiled.combine
        regularizer = averaging_rule_weights(compiled.topology)
        n, dim, batch = model.n_nodes, model.dim, 8
        rng = np.random.default_rng(5150)

        identity = np.eye(n)
        start = rng.standard_normal((batch, n, dim))
        plain = strategies.init_state(n, dim, (batch,))
        merged = strategies.init_state(n, dim, (batch,))
        pulled = strategies.init_state(n, dim, (batch,))
        plain.weights = start.copy()
        merged.weights = start.copy()
        pulled.weights = start.copy()
        for _ in range(20):
            u = rng.standard_normal((batch, n, dim))
            d = rng.standard_normal((batch, n))
            atc_step(plain, u, d, combine, model.step_size)
            strategies.maic_step(merged, u, d, combine, identity, model.step_size)
            strategies.mdlms_step(
                pulled, u, d, combine, regularizer, 0.0, model.step_size
            )
            assert np.array_equal(plain.weights, merged.weights)
            assert np.array_equal(plain.weights, pulled.weights)

        paired = harness.run_scenario(
            presets.get_scenario(
                "a", eta=0.0, strategies=("atc", "mdlms-averaging"), runs=40, iterations=100
            )
        )
        assert np.array_equal(
            paired.curves["atc"].network, paired.curves["mdlms-averaging"].network
        )
        assert np.array_equal(
            paired.curves["atc"].run_steady,
            paired.curves["mdlms-averaging"].run_steady,
        )

        _, one_model = scalar_node
        eye = np.eye(1)
        msd, approx = theory.steady_state_msd(eye, eye, one_model)
        expected = 1e-4 / 0.19
        assert abs(msd - expected) <= 1e-9 * expected
        assert abs(approx - expected) <= 1e-9 * expected

        print(
            "criterion 8 (reductions): identity-weight and zero-pull steps "
            "bit-identical to no cooperation over 20 shared-input iterations, "
            "harness curves bit-identical at zero pull strength; one-node "
            f"steady state {msd:.15e} vs closed form {expected:.15e}"
        )

    def test_09_byte_identical_reruns(self, tmp_path):
        """Same seed, any worker count: the written curves match byte for byte."""
        scenario = presets.get_scenario("b", runs=510, iterations=150)
        blobs = []
        for tag, workers in (("first", 1), ("again", 1), ("pooled", 3)):
            out = tmp_path / tag
            harness.run_scenario(scenario, workers=workers).write_outputs(str(out))
            blobs.append((out / "curves.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]
        print(
            "criterion 9 (determinism): 510-run rerun and 3-worker pool both "
            f"byte-identical curves.csv ({len(blobs[0])} bytes)"
        )
