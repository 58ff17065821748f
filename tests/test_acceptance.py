"""Whole-library acceptance checks.

Each test prints one line, `[criterion NN] PASS/FAIL: ...`, with the
measured quantities, then asserts.  The ten checks exercise score
correctness against an independent sequential-predictive oracle, tree
optimality against brute force, normalization and structural properties
of compiled circuits, parameter accounting, overfitting protection on
synthetic two-regime data, learner monotonicity, exact MPE, structural
EM, and throughput.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from cnetlearn import (
    BD,
    BIC,
    LearnerConfig,
    Mixture,
    ScoreConfig,
    bd_cnet,
    bic_cnet,
    check_decomposable,
    check_deterministic,
    check_smooth,
    circuit_size,
    circuit_values,
    clt_log_density_rows,
    clt_mpe,
    cnet_log_density_rows,
    cnet_mpe,
    compile_cnet,
    e_step,
    kmeans_init,
    learn_clt,
    learn_cnet,
    learn_sem,
    mixture_log_density_rows,
    mutual_information,
    structure_param_count,
)
from cnetlearn.cnet import CutsetNetwork, Leaf

from helpers import (
    all_spanning_trees,
    count_decisions,
    enumerate_bits,
    mpe_of,
    prequential_cnet_log,
    random_dataset,
    random_net,
    random_tree,
    regime_entropy_nats,
    regime_log_prob_rows,
    regime_samples,
    tree_weight,
    unit_dataset,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared model pools

@pytest.fixture(scope="module")
def model_pool():
    """Learned models over 2..12 variables under both scores, half on
    dependent two-regime data so real decision nodes appear; each plain
    learner run keeps its cut trace."""
    rng = np.random.default_rng(900)
    nets = []  # (net, n_vars, trace, circuit)
    for i in range(50):
        n_vars = 2 + i % 11
        kind = BD if i % 2 == 0 else BIC
        n_rows = int(rng.integers(150, 400))
        if i % 4 < 2 and n_vars >= 3:
            x = regime_samples(rng, n_rows, n_vars)
        else:
            x = rng.integers(0, 2, size=(n_rows, n_vars)).astype(np.uint8)
        d = unit_dataset(x)
        trace = []
        net = learn_cnet(d, LearnerConfig(score=ScoreConfig(kind=kind)), trace=trace)
        nets.append((net, n_vars, trace, compile_cnet(net)))

    mixtures = []  # (mixture, n_vars, component circuits)
    for i in range(10):
        n_vars = 3 + i % 6
        x = regime_samples(rng, int(rng.integers(120, 250)), n_vars)
        d = unit_dataset(x)
        m = learn_sem(d, 1 + i % 3, LearnerConfig(), rng, max_iters=3)
        mixtures.append((m, n_vars, [compile_cnet(c) for c in m.components]))
    return {"nets": nets, "mixtures": mixtures}


@pytest.fixture(scope="module")
def regime_runs():
    """Two-regime learning runs over 12 variables at two sample sizes
    under both scores, plus pure-independence decision counts."""
    d_vars = 12
    test_x = regime_samples(np.random.default_rng(12345), 4096, d_vars)
    runs = {}
    for n_rows in (128, 4096):
        x = regime_samples(np.random.default_rng(42), n_rows, d_vars)
        d = unit_dataset(x)
        for kind in (BD, BIC):
            trace = []
            net = learn_cnet(
                d, LearnerConfig(score=ScoreConfig(kind=kind)), trace=trace
            )
            test_ll = float(np.mean(cnet_log_density_rows(net, test_x)))
            runs[(n_rows, kind)] = {
                "net": net,
                "trace": trace,
                "test_ll_per_sample": test_ll,
                "train": d,
            }

    indep = {}
    for n_rows in (128, 1280):
        counts = []
        for seed in range(20):
            rng = np.random.default_rng(10_000 + seed)
            d = random_dataset(rng, n_rows, d_vars)
            counts.append(count_decisions(learn_cnet(d, LearnerConfig())))
        indep[n_rows] = counts
    return {"runs": runs, "indep": indep}


# ---------------------------------------------------------------------------

def test_criterion_01_bd_matches_prequential_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    worst_perm = 0.0
    n_cases = 200
    for case in range(n_cases):
        n_vars = int(rng.integers(2, 7))
        n_rows = int(rng.integers(1, 65))
        alpha = 0.1 if case % 2 == 0 else 1.0
        net = random_net(rng, np.arange(n_vars), int(rng.integers(0, 4)))
        d = random_dataset(rng, n_rows, n_vars)
        got = bd_cnet(net, d, alpha)
        oracle = prequential_cnet_log(net, d.samples, alpha)
        worst = max(worst, abs(got - oracle) / max(1.0, abs(oracle)))
        perm = rng.permutation(n_rows)
        shuffled = unit_dataset(d.samples[perm])
        worst_perm = max(worst_perm, abs(bd_cnet(net, shuffled, alpha) - got))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_perm <= 1e-10 and elapsed < 30
    _report(
        1,
        ok,
        f"{n_cases} nets vs sequential-predictive oracle: worst rel err "
        f"{worst:.3e} (<=1e-8), worst permutation drift {worst_perm:.3e} "
        f"(<=1e-10), {elapsed:.2f}s (<30s)",
    )


def test_criterion_02_chow_liu_brute_force_optimal():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_gap = 0.0
    n_sets = 100
    for _ in range(n_sets):
        n_vars = int(rng.integers(2, 6))
        d = random_dataset(rng, int(rng.integers(2, 41)), n_vars)
        tree = learn_clt(d, 0.1)
        mi = np.zeros((n_vars, n_vars))
        for i in range(n_vars):
            for j in range(i + 1, n_vars):
                mi[i, j] = mi[j, i] = mutual_information(d, i, j)
        learned_edges = [
            (min(v, int(p)), max(v, int(p)))
            for v, p in enumerate(tree.parents)
            if p >= 0
        ]
        learned_w = tree_weight(mi, learned_edges)
        best_w = max(
            tree_weight(mi, edges) for edges in all_spanning_trees(n_vars)
        )
        worst_gap = max(worst_gap, best_w - learned_w)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-13 and elapsed < 10
    _report(
        2,
        ok,
        f"{n_sets} datasets d<=5: worst weight gap to brute-force best "
        f"{worst_gap:.3e} (<=1e-13), {elapsed:.2f}s (<10s)",
    )


def test_criterion_03_normalization(model_pool):
    worst_net = 0.0
    worst_circ = 0.0
    worst_mix = 0.0
    for net, n_vars, _, circuit in model_pool["nets"]:
        x = enumerate_bits(n_vars)
        worst_net = max(
            worst_net, abs(np.exp(cnet_log_density_rows(net, x)).sum() - 1.0)
        )
        worst_circ = max(worst_circ, abs(circuit_values(circuit, x).sum() - 1.0))
    for m, n_vars, circuits in model_pool["mixtures"]:
        x = enumerate_bits(n_vars)
        worst_mix = max(
            worst_mix, abs(np.exp(mixture_log_density_rows(m, x)).sum() - 1.0)
        )
        for c in circuits:
            worst_circ = max(worst_circ, abs(circuit_values(c, x).sum() - 1.0))
    ok = max(worst_net, worst_circ, worst_mix) <= 1e-10
    _report(
        3,
        ok,
        f"{len(model_pool['nets'])} nets, {len(model_pool['mixtures'])} "
        f"mixtures, d<=12: worst |sum p - 1| net {worst_net:.3e}, circuit "
        f"{worst_circ:.3e}, mixture {worst_mix:.3e} (all <=1e-10)",
    )


def test_criterion_04_structural_properties(model_pool):
    circuits = [c for _, _, _, c in model_pool["nets"]]
    for _, _, comps in model_pool["mixtures"]:
        circuits.extend(comps)
    n_smooth = sum(check_smooth(c) for c in circuits)
    n_decomp = sum(check_decomposable(c) for c in circuits)
    n_det = sum(check_deterministic(c) for c in circuits)
    n = len(circuits)
    ok = n_smooth == n_decomp == n_det == n
    _report(
        4,
        ok,
        f"{n} compiled circuits: smooth {n_smooth}/{n}, decomposable "
        f"{n_decomp}/{n}, deterministic (exhaustive) {n_det}/{n}",
    )


def test_criterion_05_parameter_accounting():
    rng = np.random.default_rng(1005)
    n_structs = 50
    n_equal = 0
    n_strict = 0
    for _ in range(n_structs):
        n_vars = int(rng.integers(2, 11))
        net = random_net(rng, np.arange(n_vars), int(rng.integers(0, 6)))
        expected = count_decisions(net)
        leaf_sizes = []
        stack = [net.root]
        while stack:
            node = stack.pop()
            if node.kind == "leaf":
                leaf_sizes.append(len(node.tree.variable_ids))
            else:
                stack.extend(node.children)
        expected += sum(2 * s - 1 for s in leaf_sizes)
        got = circuit_size(compile_cnet(net)).n_params
        if got == expected == structure_param_count(net):
            n_equal += 1
        if leaf_sizes and got > count_decisions(net):
            n_strict += 1
    ok = n_equal == n_structs and n_strict == n_structs
    _report(
        5,
        ok,
        f"{n_structs} random structures: circuit params == decisions + "
        f"sum(2*d_leaf - 1) in {n_equal}/{n_structs}; strictly above the "
        f"decision-only count in {n_strict}/{n_structs}",
    )


def test_criterion_06_overfitting_protection(regime_runs):
    entropy_rate = regime_entropy_nats(12) / 12
    gaps = {}
    for kind in (BD, BIC):
        run = regime_runs["runs"][(4096, kind)]
        model_rate = -run["test_ll_per_sample"] / 12
        gaps[kind] = abs(model_rate - entropy_rate)
    indep = regime_runs["indep"]
    zeros_small = sum(c == 0 for c in indep[128])
    zeros_big = sum(c == 0 for c in indep[1280])
    grew = sum(indep[1280]) > sum(indep[128])
    ok = (
        gaps[BD] <= 0.15
        and gaps[BIC] <= 0.15
        and zeros_small >= 18
        and zeros_big >= 18
        and not grew
    )
    _report(
        6,
        ok,
        f"two-regime d=12 N=4096: |test rate - entropy rate| bd "
        f"{gaps[BD]:.4f}, bic {gaps[BIC]:.4f} nats/var (<=0.15); "
        f"independence: zero-decision seeds {zeros_small}/20 at N=128, "
        f"{zeros_big}/20 at N=1280 (>=18), total decisions "
        f"{sum(indep[128])} -> {sum(indep[1280])} (must not grow)",
    )


def test_criterion_07_learner_monotonicity(model_pool, regime_runs):
    deltas = []
    for _, _, trace, _ in model_pool["nets"]:
        deltas.extend(rec["delta"] for rec in trace)
    for run in regime_runs["runs"].values():
        deltas.extend(rec["delta"] for rec in run["trace"])
    n_pos = sum(delta > 0 for delta in deltas)

    # accepted cuts must also leave the final model at least as good as
    # the single-tree baseline under the configured score
    baseline_ok = 0
    for kind in (BD, BIC):
        run = regime_runs["runs"][(4096, kind)]
        d = run["train"]
        leaf_net = CutsetNetwork(
            Leaf(learn_clt(d, 0.1 / 2 if kind == BD else 0.01)),
            d.variable_ids.copy(),
        )
        if kind == BD:
            better = bd_cnet(run["net"], d, 0.1) >= bd_cnet(leaf_net, d, 0.1)
        else:
            cfg = ScoreConfig(
                kind=BIC, beta=0.01, root_dataset_size=d.total_weight
            )
            better = bic_cnet(run["net"], d, cfg) >= bic_cnet(leaf_net, d, cfg)
        baseline_ok += better
    ok = n_pos == len(deltas) and len(deltas) > 0 and baseline_ok == 2
    _report(
        7,
        ok,
        f"{n_pos}/{len(deltas)} accepted cuts have strictly positive score "
        f"gain; final score beats the single-tree baseline in "
        f"{baseline_ok}/2 spot checks",
    )


def test_criterion_08_mpe_exactness():
    rng = np.random.default_rng(1008)
    worst_tree = 0.0
    n_trees = 100
    mismatches = 0
    for _ in range(n_trees):
        n_vars = int(rng.integers(2, 11))
        tree = random_tree(rng, np.arange(n_vars))
        evidence = {
            v: int(rng.integers(0, 2))
            for v in range(n_vars)
            if rng.random() < 0.35
        }
        values, score = mpe_of(clt_mpe, tree, evidence)
        x = enumerate_bits(n_vars)
        mask = np.ones(len(x), dtype=bool)
        for v, val in evidence.items():
            mask &= x[:, v] == val
        dens = clt_log_density_rows(tree, x[mask])
        best = float(dens.max())
        worst_tree = max(worst_tree, abs(score - best))
        argmaxes = np.flatnonzero(dens >= best - 1e-12)
        if len(argmaxes) == 1 and not np.array_equal(
            values, x[mask][argmaxes[0]]
        ):
            mismatches += 1

    worst_net_excess = -math.inf
    n_nets = 30
    inconsistent = 0
    for _ in range(n_nets):
        n_vars = int(rng.integers(2, 9))
        net = random_net(rng, np.arange(n_vars), int(rng.integers(0, 4)))
        evidence = {
            v: int(rng.integers(0, 2))
            for v in range(n_vars)
            if rng.random() < 0.35
        }
        values, score = mpe_of(cnet_mpe, net, evidence)
        if score != cnet_log_density_rows(net, values[None, :])[0]:
            inconsistent += 1
        x = enumerate_bits(n_vars)
        mask = np.ones(len(x), dtype=bool)
        for v, val in evidence.items():
            mask &= x[:, v] == val
        best = float(cnet_log_density_rows(net, x[mask]).max())
        worst_net_excess = max(worst_net_excess, score - best)
    ok = (
        worst_tree <= 1e-12
        and mismatches == 0
        and inconsistent == 0
        and worst_net_excess <= 1e-12
    )
    _report(
        8,
        ok,
        f"{n_trees} trees: worst |tree MPE - exhaustive| {worst_tree:.3e} "
        f"(<=1e-12), argmax mismatches {mismatches}; {n_nets} nets: "
        f"score!=density in {inconsistent}, worst excess over exhaustive "
        f"max {worst_net_excess:.3e} (<=1e-12)",
    )


def test_criterion_09_structural_em_improves():
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    wins = 0
    init_ok = 0
    gamma_ok = 0
    n_seeds = 5
    for seed in range(n_seeds):
        x = regime_samples(np.random.default_rng(seed), 2000, 12)
        d = unit_dataset(x)

        single = learn_cnet(d, cfg)
        single_ll = float(np.mean(cnet_log_density_rows(single, d.samples)))

        m = learn_sem(d, 5, cfg, np.random.default_rng(seed))
        mix_ll = float(np.mean(mixture_log_density_rows(m, d.samples)))
        wins += mix_ll >= single_ll

        gamma = e_step(m, d)
        gamma_ok += bool(np.allclose(gamma.sum(axis=1), 1.0, atol=1e-10))

        clusters = kmeans_init(d, 5, np.random.default_rng(seed))
        comps = [learn_cnet(c, cfg) for c in clusters]
        mass = np.array([c.total_weight for c in clusters])
        init = Mixture(comps, mass / mass.sum())
        init_ll = float(np.mean(mixture_log_density_rows(init, d.samples)))
        init_ok += mix_ll >= init_ll - 1e-12
    ok = wins == n_seeds and init_ok == n_seeds and gamma_ok == n_seeds
    _report(
        9,
        ok,
        f"two-regime d=12 N=2000: K=5 EM train LL >= single-net LL in "
        f"{wins}/{n_seeds} seeds; responsibilities normalized in "
        f"{gamma_ok}/{n_seeds}; final >= initialization in {init_ok}/{n_seeds}",
    )


def test_criterion_10_throughput():
    rng = np.random.default_rng(1010)
    x = regime_samples(rng, 16384, 16)
    d = unit_dataset(x)
    t0 = time.perf_counter()
    net = learn_cnet(d, LearnerConfig())
    learn_time = time.perf_counter() - t0
    net.validate()

    half = unit_dataset(x[:8192])
    times = {8192: [], 16384: []}
    for _ in range(5):
        t0 = time.perf_counter()
        learn_clt(half, 0.05)
        times[8192].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        learn_clt(d, 0.05)
        times[16384].append(time.perf_counter() - t0)
    ratio = statistics.median(times[16384]) / statistics.median(times[8192])
    ok = learn_time < 10 and ratio <= 2.5
    _report(
        10,
        ok,
        f"full learn on 16 vars x 16384 rows: {learn_time:.2f}s (<10s); "
        f"tree-learning time ratio for 2x rows: {ratio:.2f} (<=2.5)",
    )
