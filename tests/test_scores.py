"""Structure scores: closed forms against prequential oracles, BIC
arithmetic, and the cut deltas that drive the greedy search."""

import dataclasses
import math

import numpy as np
import pytest

from cnetlearn import (
    BD,
    BIC,
    DatasetError,
    DecisionNode,
    ScoreConfig,
    SumNodeCounts,
    WeightedDataset,
    bd_cnet,
    bd_sum_node,
    bic_cnet,
    clt_bd_score,
    clt_log_likelihood,
    evaluate_cut,
    learn_clt,
    learn_cnet,
    restrict,
    structure_param_count,
    LearnerConfig,
    Leaf,
    CutsetNetwork,
)

from helpers import (
    count_decisions,
    leaf_scopes,
    prequential_cnet_log,
    prequential_counts_log,
    random_dataset,
    random_net,
    switch_dataset_16,
    unit_dataset,
)


# ---------------------------------------------------------------------------
# config validation

def test_score_config_validation():
    assert ScoreConfig().kind == BD
    assert ScoreConfig().alpha == 0.1 and ScoreConfig().beta == 0.01
    with pytest.raises(ValueError):
        ScoreConfig(kind="mdl")
    with pytest.raises(ValueError):
        ScoreConfig(kind=BD, alpha=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(kind=BIC, beta=-1.0)
    with pytest.raises(ValueError):
        ScoreConfig(kind=BIC, root_dataset_size=0.0)


def test_fit_beta_by_kind():
    assert ScoreConfig(kind=BD, alpha=0.4).fit_beta == 0.2
    assert ScoreConfig(kind=BIC, beta=0.25).fit_beta == 0.25


def test_sum_node_counts_validation():
    c = SumNodeCounts(2.0, 3.5)
    assert c.total == 5.5
    with pytest.raises(ValueError):
        SumNodeCounts(-1.0, 0.0)


# ---------------------------------------------------------------------------
# decision-node BD score

def test_bd_sum_node_examples():
    assert bd_sum_node(SumNodeCounts(0, 0), alpha=1.0) == 0.0
    assert math.isclose(
        bd_sum_node(SumNodeCounts(1, 0), alpha=0.1), math.log(0.5), rel_tol=1e-12
    )
    assert math.isclose(
        bd_sum_node(SumNodeCounts(3, 1), alpha=1.0),
        math.log(0.0390625),
        rel_tol=1e-12,
    )


def test_bd_sum_node_prequential_and_symmetry():
    for alpha in (0.1, 1.0, 2.5):
        for n0, n1 in [(5, 2), (0, 7), (13, 13)]:
            got = bd_sum_node(SumNodeCounts(n0, n1), alpha)
            assert abs(got - prequential_counts_log((n0, n1), alpha)) <= 1e-9
            assert got == bd_sum_node(SumNodeCounts(n1, n0), alpha)


def test_bd_sum_node_rejects_bad_alpha():
    with pytest.raises(ValueError):
        bd_sum_node(SumNodeCounts(1, 1), alpha=0.0)


# ---------------------------------------------------------------------------
# whole-network BD score

def test_bd_cnet_single_leaf_equals_clt_score():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, 30, 4)
    tree = learn_clt(d, 0.05)
    net = CutsetNetwork(Leaf(tree), d.variable_ids.copy())
    assert bd_cnet(net, d, 0.1) == clt_bd_score(tree, d, 0.1)


def test_bd_cnet_empty_dataset():
    rng = np.random.default_rng(4)
    net = random_net(rng, range(3), 1)
    empty = WeightedDataset(np.zeros((0, 3), dtype=np.uint8), np.zeros(0))
    assert bd_cnet(net, empty, 0.1) == 0.0


def test_bd_cnet_depth1_prequential():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 8, 3)
    net = random_net(rng, range(3), 1)
    while count_decisions(net) != 1:
        net = random_net(rng, range(3), 1)
    got = bd_cnet(net, d, 1.0)
    ref = prequential_cnet_log(net, d.samples, 1)
    assert abs(got - ref) <= 1e-9


def test_bd_cnet_prequential_random_nets():
    rng = np.random.default_rng(17)
    for case in range(25):
        n_vars = int(rng.integers(2, 7))
        d = random_dataset(rng, int(rng.integers(1, 65)), n_vars)
        net = random_net(rng, range(n_vars), int(rng.integers(0, 4)))
        alpha = (0.1, 1.0)[case % 2]
        got = bd_cnet(net, d, alpha)
        ref = prequential_cnet_log(net, d.samples, alpha)
        assert abs(got - ref) <= 1e-8, case


def test_bd_cnet_row_permutation_invariance():
    rng = np.random.default_rng(19)
    d = random_dataset(rng, 50, 5)
    net = random_net(rng, range(5), 2)
    base = bd_cnet(net, d, 0.1)
    for _ in range(5):
        perm = rng.permutation(50)
        shuffled = WeightedDataset(d.samples[perm], d.weights[perm])
        assert abs(bd_cnet(net, shuffled, 0.1) - base) <= 1e-10


def test_bd_cnet_scope_mismatch():
    rng = np.random.default_rng(20)
    net = random_net(rng, range(3), 1)
    with pytest.raises(DatasetError):
        bd_cnet(net, random_dataset(rng, 5, 4), 0.1)


def test_bd_cnet_alpha_continuity_smoke():
    rng = np.random.default_rng(21)
    d = random_dataset(rng, 32, 4)
    net = random_net(rng, range(4), 2)
    vals = [bd_cnet(net, d, a) for a in (0.01, 0.1, 1.0, 10.0)]
    assert all(math.isfinite(v) for v in vals)
    assert len(set(vals)) == len(vals)


# ---------------------------------------------------------------------------
# locality of the BD score

def test_bd_cut_locality():
    # accepting one cut changes the total by exactly the local delta
    rng = np.random.default_rng(30)
    d = random_dataset(rng, 40, 4)
    cfg = ScoreConfig(kind=BD, alpha=0.1)
    tree = learn_clt(d, cfg.fit_beta)
    before_net = CutsetNetwork(Leaf(tree), d.variable_ids.copy())
    before = bd_cnet(before_net, d, cfg.alpha)
    for var in range(4):
        cand = evaluate_cut(tree, d, var, cfg)
        children = [learn_clt(restrict(d, var, c), cfg.fit_beta) for c in (0, 1)]
        for child, (parents, _) in zip(children, cand.child_structures):
            assert np.array_equal(child.parents, parents)
        after_net = CutsetNetwork(
            DecisionNode(var, np.array([0.5, 0.5]), [Leaf(c) for c in children]),
            d.variable_ids.copy(),
        )
        after = bd_cnet(after_net, d, cfg.alpha)
        assert abs((after - before) - cand.delta) <= 1e-10


# ---------------------------------------------------------------------------
# corrected BIC

def test_structure_param_count_formula():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n_vars = int(rng.integers(2, 9))
        net = random_net(rng, range(n_vars), int(rng.integers(0, 4)))
        expected = count_decisions(net) + sum(
            2 * len(s) - 1 for s in leaf_scopes(net)
        )
        assert structure_param_count(net) == expected


def test_bic_single_leaf_formula():
    rng = np.random.default_rng(41)
    d = random_dataset(rng, 64, 5)
    for beta in (0.0, 0.01):
        cfg = ScoreConfig(kind=BIC, beta=beta, root_dataset_size=d.total_weight)
        tree = learn_clt(d, beta)
        net = CutsetNetwork(Leaf(tree), d.variable_ids.copy())
        expected = clt_log_likelihood(tree, d) - 0.5 * math.log(64.0) * 9
        # the score sums family counts, the reference sums rows
        assert math.isclose(bic_cnet(net, d, cfg), expected, rel_tol=1e-12)


def test_bic_beta_zero_zero_decisions_exact():
    rng = np.random.default_rng(42)
    d = random_dataset(rng, 100, 4)
    cfg = ScoreConfig(kind=BIC, beta=0.0, root_dataset_size=d.total_weight)
    tree = learn_clt(d, 0.0)
    net = CutsetNetwork(Leaf(tree), d.variable_ids.copy())
    penalty = 0.5 * math.log(d.total_weight) * structure_param_count(net)
    # the score sums family counts, the reference sums rows
    assert math.isclose(bic_cnet(net, d, cfg), clt_log_likelihood(tree, d) - penalty, rel_tol=1e-12)


def test_bic_requires_bic_config():
    rng = np.random.default_rng(43)
    d = random_dataset(rng, 10, 3)
    net = CutsetNetwork(Leaf(learn_clt(d, 0.01)), d.variable_ids.copy())
    with pytest.raises(ValueError):
        bic_cnet(net, d, ScoreConfig(kind=BD))


def test_bic_penalty_uses_global_size():
    # same structure, same data, different penalty base: scores differ by
    # exactly 0.5 * params * (ln N1 - ln N2)
    rng = np.random.default_rng(44)
    d = random_dataset(rng, 32, 4)
    tree = learn_clt(d, 0.01)
    net = CutsetNetwork(Leaf(tree), d.variable_ids.copy())
    cfg1 = ScoreConfig(kind=BIC, beta=0.01, root_dataset_size=32.0)
    cfg2 = ScoreConfig(kind=BIC, beta=0.01, root_dataset_size=3200.0)
    gap = bic_cnet(net, d, cfg1) - bic_cnet(net, d, cfg2)
    expected = 0.5 * (math.log(3200.0) - math.log(32.0)) * 7
    assert math.isclose(gap, expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# cut deltas

def test_cut_delta_scope2_bic_has_no_penalty_term():
    # with a 2-variable leaf the parameter count is unchanged (1+1+1-3=0),
    # so the BIC delta is exactly the likelihood difference
    d = unit_dataset([[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]])
    cfg = ScoreConfig(kind=BIC, beta=0.0, root_dataset_size=6.0)
    leaf = learn_clt(d, 0.0)
    cand = evaluate_cut(leaf, d, 0, cfg)
    parts = [restrict(d, 0, c) for c in (0, 1)]
    ll_after = (
        cand.counts.n0 * math.log(cand.counts.n0 / 6.0)
        + cand.counts.n1 * math.log(cand.counts.n1 / 6.0)
        + sum(clt_log_likelihood(learn_clt(part, 0.0), part) for part in parts)
    )
    ll_before = clt_log_likelihood(leaf, d)
    # the delta is analytically 0 here, so a relative bound cannot hold;
    # the score sums family counts and the reference sums rows
    assert math.isclose(
        cand.delta, ll_after - ll_before, rel_tol=1e-12, abs_tol=1e-12 * abs(ll_before)
    )


def test_cut_delta_rejects_small_scope():
    d = unit_dataset([[0], [1]])
    leaf = learn_clt(d, 0.0)
    with pytest.raises(DatasetError):
        evaluate_cut(leaf, d, 0, ScoreConfig()).delta


def test_cut_delta_rejects_unknown_variable():
    d = unit_dataset([[0, 1], [1, 0]])
    leaf = learn_clt(d, 0.0)
    with pytest.raises(DatasetError):
        evaluate_cut(leaf, d, 5, ScoreConfig()).delta


def test_cut_candidate_list_is_checked():
    d = unit_dataset([[0, 1], [1, 0]])
    leaf = learn_clt(d, 0.0)
    for candidates in ([], [0, 5]):
        with pytest.raises(DatasetError):
            evaluate_cut(leaf, d, candidates, ScoreConfig())


def test_cut_delta_noise_rejection_bd():
    # pure-independence data: conditioning is never worth it for BD
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = random_dataset(rng, 256, 5)
        cfg = ScoreConfig(kind=BD, alpha=0.1)
        leaf = learn_clt(d, cfg.fit_beta)
        deltas = [evaluate_cut(leaf, d, v, cfg).delta for v in range(5)]
        assert all(dv < 0 for dv in deltas), (seed, deltas)


def test_cut_delta_noise_rejection_bic():
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        d = random_dataset(rng, 256, 5)
        cfg = ScoreConfig(kind=BIC, beta=0.01, root_dataset_size=d.total_weight)
        leaf = learn_clt(d, cfg.fit_beta)
        deltas = [evaluate_cut(leaf, d, v, cfg).delta for v in range(5)]
        assert all(dv < 0 for dv in deltas), (seed, deltas)


def test_cut_delta_regime_switch_positive_both_scores():
    # x0 flips the sign of the x1-x2 coupling, so every pairwise table is
    # uniform and only conditioning on x0 reveals structure; 16 balanced
    # rows are already enough for both scores to accept the cut
    d = switch_dataset_16()
    bd_cfg = ScoreConfig(kind=BD, alpha=0.1)
    bd_delta = evaluate_cut(learn_clt(d, bd_cfg.fit_beta), d, 0, bd_cfg).delta
    assert bd_delta > 0
    bic_cfg = ScoreConfig(kind=BIC, beta=0.01, root_dataset_size=d.total_weight)
    bic_delta = evaluate_cut(learn_clt(d, bic_cfg.fit_beta), d, 0, bic_cfg).delta
    assert bic_delta > 0


def test_cut_delta_matches_learner_acceptance():
    # the learner's first accepted cut carries exactly the delta that
    # evaluate_cut reports at the root
    d = switch_dataset_16()
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    trace = []
    learn_cnet(d, cfg, trace=trace)
    assert trace, "expected at least one accepted cut"
    first = trace[0]
    leaf = learn_clt(d, cfg.score.fit_beta)
    assert first["delta"] == evaluate_cut(leaf, d, first["var"], cfg.score).delta


def test_fractional_counts_change_the_score():
    # fractional EM-style weights must flow into the Gamma functions
    # unrounded: halving all weights is not a no-op
    rng = np.random.default_rng(50)
    x = rng.integers(0, 2, size=(30, 3)).astype(np.uint8)
    d_int = WeightedDataset(x, np.ones(30))
    d_half = WeightedDataset(x, np.full(30, 0.5))
    tree = learn_clt(d_int, 0.0)
    assert clt_bd_score(tree, d_int, 0.1) != clt_bd_score(tree, d_half, 0.1)
