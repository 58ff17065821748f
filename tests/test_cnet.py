"""Cutset networks: gain-based candidate selection, the greedy learner,
and inference."""

import json
import math

import numpy as np
import pytest

from cnetlearn import (
    BD,
    BIC,
    ChowLiuTree,
    CutsetNetwork,
    DatasetError,
    DecisionNode,
    Leaf,
    LearnerConfig,
    ScoreConfig,
    SumNodeCounts,
    WeightedDataset,
    bd_cnet,
    bd_sum_node,
    clt_bd_score,
    clt_log_density_rows,
    cnet_log_density_rows,
    cnet_mpe,
    cnet_sample,
    induced_path,
    information_gain,
    learn_clt,
    learn_cnet,
    model_to_dict,
    select_best_candidates,
    select_best_cut,
    structure_param_count,
)

from cnetlearn.cnet import walk

from helpers import (
    count_decisions,
    enumerate_bits,
    evidence_matrix,
    mpe_of,
    random_dataset,
    random_net,
    regime_samples,
    routed_decision_counts,
    switch_dataset_16,
    unit_dataset,
)


def _two_tree_regime(rng, n: int) -> WeightedDataset:
    """x0 picks between two dependency trees over x1..x4."""
    x = rng.integers(0, 2, size=(n, 5)).astype(np.uint8)
    flip = rng.random((n, 2)) < 0.05
    e1 = x[:, 1] ^ x[:, 0]
    e2 = x[:, 3] ^ x[:, 0]
    x[:, 2] = np.where(flip[:, 0], 1 - e1, e1)
    x[:, 4] = np.where(flip[:, 1], 1 - e2, e2)
    return unit_dataset(x)


# ---------------------------------------------------------------------------
# information gain

def test_gain_constant_variable_is_exact_zero():
    d = unit_dataset([[0, 0], [0, 1], [0, 1]])
    assert information_gain(d, 0) == 0.0


def test_gain_perfect_split():
    d = unit_dataset([[0, 0], [1, 1]])
    assert information_gain(d, 0) == math.log(2)
    assert information_gain(d, 1) == math.log(2)


def test_gain_independent_columns_only_claim_own_entropy():
    # with independent columns the split on v removes only v's share of
    # the column-averaged entropy, so gain ~ ln(2)/n_vars for fair bits
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        d = random_dataset(rng, 4096, 4)
        for v in range(4):
            assert abs(information_gain(d, v) - math.log(2) / 4) < 0.02


def test_gain_errors():
    with pytest.raises(DatasetError):
        information_gain(unit_dataset([[0]]), 0)
    with pytest.raises(DatasetError):
        information_gain(unit_dataset([[0, 1]]), 9)
    d0 = WeightedDataset(np.array([[0, 1]]), np.array([0.0]))
    with pytest.raises(DatasetError):
        information_gain(d0, 0)


# ---------------------------------------------------------------------------
# candidate selection

def test_candidates_all_when_lam_large():
    rng = np.random.default_rng(60)
    d = random_dataset(rng, 40, 5)
    got = select_best_candidates(d, 99)
    assert sorted(got) == [0, 1, 2, 3, 4]
    gains = {v: information_gain(d, v) for v in got}
    ranked = sorted(got, key=lambda v: (-gains[v], v))
    assert got == ranked


def test_candidates_lam1_perfect_splitter():
    d = unit_dataset([[0, 0], [1, 1]])
    # both variables split perfectly; the tie goes to the lower index
    assert select_best_candidates(d, 1) == [0]


def test_candidates_equal_gains_lowest_indices():
    d = unit_dataset([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert select_best_candidates(d, 2) == [0, 1]


def test_candidates_single_variable_error():
    with pytest.raises(DatasetError):
        select_best_candidates(unit_dataset([[0], [1]]), 3)


# ---------------------------------------------------------------------------
# cut selection

def test_select_best_cut_rejects_noise():
    rng = np.random.default_rng(61)
    d = random_dataset(rng, 256, 5)
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    leaf = learn_clt(d, cfg.score.fit_beta)
    assert select_best_cut(leaf, d, list(range(5)), cfg.score) is None


def test_select_best_cut_takes_positive_delta():
    d = switch_dataset_16()
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    cut = select_best_cut(learn_clt(d, cfg.score.fit_beta), d, [0, 1, 2], cfg.score)
    assert cut is not None and cut.delta > 0
    assert cut.counts.n0 + cut.counts.n1 == d.total_weight


def test_select_best_cut_two_regime_picks_switch_variable():
    d = _two_tree_regime(np.random.default_rng(0), 512)
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    leaf = learn_clt(d, cfg.score.fit_beta)
    cut = select_best_cut(leaf, d, list(range(5)), cfg.score)
    assert cut is not None and cut.var == 0


# ---------------------------------------------------------------------------
# the learner

def test_learn_single_variable_is_leaf():
    d = unit_dataset([[0], [1], [1]])
    net = learn_cnet(d, LearnerConfig())
    assert net.root.kind == "leaf"
    net.validate()


def test_learn_independent_data_mostly_leaf():
    zero_cut_seeds = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        d = random_dataset(rng, 4096, 8)
        net = learn_cnet(d, LearnerConfig())
        if count_decisions(net) == 0:
            zero_cut_seeds += 1
    assert zero_cut_seeds >= 18


def test_learn_regime_data_cuts_and_validates():
    d = _two_tree_regime(np.random.default_rng(1), 512)
    for kind in (BD, BIC):
        cfg = LearnerConfig(score=ScoreConfig(kind=kind))
        trace = []
        net = learn_cnet(d, cfg, trace=trace)
        net.validate()
        assert count_decisions(net) >= 1
        assert all(rec["delta"] > 0 for rec in trace)
        assert len(trace) == count_decisions(net)


def test_learn_trace_depths_and_counts():
    d = _two_tree_regime(np.random.default_rng(2), 512)
    trace = []
    net = learn_cnet(d, LearnerConfig(), trace=trace)
    assert trace[0]["depth"] == 0
    assert trace[0]["n0"] + trace[0]["n1"] == d.total_weight
    routed = routed_decision_counts(net, d)
    assert math.isclose(
        sum(routed[id(net.root)]), d.total_weight, rel_tol=1e-12
    )


def test_learn_routing_partitions_weight():
    d = _two_tree_regime(np.random.default_rng(3), 512)
    net = learn_cnet(d, LearnerConfig())
    routed = routed_decision_counts(net, d)

    def rec(node, incoming):
        if node.kind == "leaf":
            return
        w0, w1 = routed.get(id(node), (0.0, 0.0))
        assert abs((w0 + w1) - incoming) <= 1e-12 * max(1.0, incoming)
        rec(node.children[0], w0)
        rec(node.children[1], w1)

    rec(net.root, d.total_weight)


def test_learn_deterministic_bitwise():
    d = _two_tree_regime(np.random.default_rng(5), 256)
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    a = model_to_dict(learn_cnet(d, cfg), cfg.score)
    b = model_to_dict(learn_cnet(d, cfg), cfg.score)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_learn_zero_weight_rejected():
    d = WeightedDataset(np.array([[0, 1]]), np.array([0.0]))
    with pytest.raises(DatasetError):
        learn_cnet(d, LearnerConfig())


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(lam=0)


def test_learn_decision_weights_bd_posterior_mean():
    d = switch_dataset_16()
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    trace = []
    net = learn_cnet(d, cfg, trace=trace)
    assert net.root.kind == "decision"
    n0, n1 = trace[0]["n0"], trace[0]["n1"]
    expected = np.array(
        [(n0 + 0.05) / (n0 + n1 + 0.1), (n1 + 0.05) / (n0 + n1 + 0.1)]
    )
    assert np.allclose(net.root.weights, expected, atol=1e-15)


def test_learn_decision_weights_bic_smoothed_ml():
    d = switch_dataset_16()
    cfg = LearnerConfig(score=ScoreConfig(kind=BIC, beta=0.25))
    trace = []
    net = learn_cnet(d, cfg, trace=trace)
    assert net.root.kind == "decision"
    n0, n1 = trace[0]["n0"], trace[0]["n1"]
    expected = np.array(
        [(n0 + 0.25) / (n0 + n1 + 0.5), (n1 + 0.25) / (n0 + n1 + 0.5)]
    )
    assert np.allclose(net.root.weights, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# density

def test_density_single_leaf_equals_tree_density():
    rng = np.random.default_rng(70)
    d = random_dataset(rng, 64, 4)
    net = learn_cnet(d, LearnerConfig())
    if net.root.kind == "leaf":
        x = enumerate_bits(4)
        got = cnet_log_density_rows(net, x)
        ref = clt_log_density_rows(net.root.tree, x)
        assert np.array_equal(got, ref)


def test_density_depth1_is_logw_plus_leaf():
    d = switch_dataset_16()
    net = learn_cnet(d, LearnerConfig())
    assert net.root.kind == "decision"
    var = net.root.var
    x = enumerate_bits(3)
    got = cnet_log_density_rows(net, x)
    cols = [c for c in range(3) if c != var]
    for i, row in enumerate(x):
        k = int(row[var])
        child = net.root.children[k]
        sub = row[cols][None, :]
        ref = math.log(net.root.weights[k]) + float(
            cnet_log_density_rows(
                type(net)(child, net.variable_ids[cols]), sub
            )[0]
        )
        assert math.isclose(got[i], ref, rel_tol=1e-12, abs_tol=1e-12)


def test_density_normalizes():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n_vars = int(rng.integers(2, 11))
        d = random_dataset(rng, 60, n_vars)
        net = learn_cnet(d, LearnerConfig())
        total = np.exp(cnet_log_density_rows(net, enumerate_bits(n_vars))).sum()
        assert abs(total - 1.0) <= 1e-10


def test_density_input_validation():
    d = switch_dataset_16()
    net = learn_cnet(d, LearnerConfig())
    with pytest.raises(DatasetError):
        cnet_log_density_rows(net, np.array([[0, 1]]))
    with pytest.raises(DatasetError):
        cnet_log_density_rows(net, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# sampling

def test_sample_reproducible_and_in_domain():
    d = _two_tree_regime(np.random.default_rng(7), 512)
    net = learn_cnet(d, LearnerConfig())
    a = cnet_sample(net, 4, np.random.default_rng(5))
    b = cnet_sample(net, 4, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.shape == (4, 5) and set(np.unique(a)) <= {0, 1}


def test_sample_frequencies_match_density():
    # total-variation distance between the sampler and the density over
    # all 8 assignments of a 3-variable net
    d = switch_dataset_16()
    net = learn_cnet(d, LearnerConfig())
    rng = np.random.default_rng(11)
    n = 20000
    x = cnet_sample(net, n, rng)
    counts = np.bincount(x @ np.array([4, 2, 1]), minlength=8)
    probs = np.exp(cnet_log_density_rows(net, enumerate_bits(3)))
    tv = 0.5 * np.abs(counts / n - probs).sum()
    assert tv < 0.05


# ---------------------------------------------------------------------------
# MPE

def test_mpe_self_consistent_and_bounded():
    rng = np.random.default_rng(80)
    for _ in range(20):
        n_vars = int(rng.integers(2, 9))
        d = random_dataset(rng, 50, n_vars)
        net = learn_cnet(d, LearnerConfig())
        evidence = {
            v: int(rng.integers(0, 2)) for v in range(n_vars) if rng.random() < 0.4
        }
        values, score = mpe_of(cnet_mpe, net, evidence)
        # exact self-consistency
        assert score == cnet_log_density_rows(net, values[None, :])[0]
        for v, val in evidence.items():
            assert values[v] == val
        # never exceeds the exhaustive constrained maximum
        x = enumerate_bits(n_vars)
        mask = np.ones(len(x), dtype=bool)
        for v, val in evidence.items():
            mask &= x[:, v] == val
        best = cnet_log_density_rows(net, x[mask]).max()
        assert score <= best + 1e-12


def test_mpe_exact_when_decisions_observed():
    d = _two_tree_regime(np.random.default_rng(9), 512)
    net = learn_cnet(d, LearnerConfig())
    decision_vars = set()
    stack = [net.root]
    while stack:
        node = stack.pop()
        if node.kind == "decision":
            decision_vars.add(int(node.var))
            stack.extend(node.children)
    assert decision_vars
    rng = np.random.default_rng(10)
    for _ in range(10):
        evidence = {v: int(rng.integers(0, 2)) for v in decision_vars}
        values, score = mpe_of(cnet_mpe, net, evidence)
        x = enumerate_bits(5)
        mask = np.ones(len(x), dtype=bool)
        for v, val in evidence.items():
            mask &= x[:, v] == val
        best = cnet_log_density_rows(net, x[mask]).max()
        assert abs(score - best) <= 1e-12


def test_mpe_is_exact_on_any_evidence():
    # the decision variables may be free: the max pass maximizes over
    # both branches, so the score is the constrained maximum itself
    rng = np.random.default_rng(81)
    for _ in range(300):
        n_vars = int(rng.integers(2, 9))
        net = random_net(rng, np.arange(n_vars), int(rng.integers(0, 4)))
        evidence = rng.integers(-1, 2, size=(6, n_vars)).astype(np.int8)
        _, scores = cnet_mpe(net, evidence)
        x = enumerate_bits(n_vars)
        log_p = cnet_log_density_rows(net, x)
        for ev, score in zip(evidence, scores):
            consistent = np.all((ev < 0) | (x == ev), axis=1)
            assert score == log_p[consistent].max()


def test_mpe_full_evidence_echoes():
    d = switch_dataset_16()
    net = learn_cnet(d, LearnerConfig())
    ev = {0: 1, 1: 0, 2: 1}
    values, score = mpe_of(cnet_mpe, net, ev)
    assert np.array_equal(values, [1, 0, 1])
    assert score == cnet_log_density_rows(net, np.array([[1, 0, 1]]))[0]


def test_mpe_evidence_validation():
    d = switch_dataset_16()
    net = learn_cnet(d, LearnerConfig())
    with pytest.raises(DatasetError):
        cnet_mpe(net, np.full((1, 4), -1))  # no scope variable for column 3
    with pytest.raises(DatasetError):
        cnet_mpe(net, np.array([[2, -1, -1]]))


def test_mpe_single_leaf_reduces_to_tree_mpe():
    rng = np.random.default_rng(81)
    d = random_dataset(rng, 100, 4)
    net = learn_cnet(d, LearnerConfig())
    if net.root.kind == "leaf":
        from cnetlearn import clt_mpe

        ev = {1: 1}
        v1, s1 = mpe_of(cnet_mpe, net, ev)
        v2, s2 = mpe_of(clt_mpe, net.root.tree, ev)
        assert np.array_equal(v1, v2)
        assert math.isclose(s1, s2, rel_tol=1e-12, abs_tol=1e-12)


def test_mpe_keeps_impossible_evidence():
    # x0 = 1 has probability 0 in both leaves: the completion keeps it
    # and scores -inf
    tree = ChowLiuTree(
        np.array([0, 1]),
        np.array([-1, 0]),
        np.array([0, 1]),
        [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5], [0.5, 0.5]])],
    )
    root = DecisionNode(2, np.array([0.5, 0.5]), [Leaf(tree), Leaf(tree)])
    net = CutsetNetwork(root, np.arange(3))
    net.validate()
    ev = evidence_matrix([{0: 1}, {0: 1, 2: 1}, {}], net.variable_ids)
    values, scores = cnet_mpe(net, ev)
    assert np.array_equal(values, [[1, 0, 0], [1, 0, 1], [0, 0, 0]])
    assert scores[0] == scores[1] == -math.inf
    assert scores[2] == pytest.approx(2 * math.log(0.5))


def test_walk_routes_children_after_the_caller_handles_the_node():
    # the samplers and MPE write a node's branch values in the loop body
    # and route its rows on them
    net = random_net(np.random.default_rng(3), range(6), 5)
    assert count_decisions(net) > 0
    handled = set()

    def route(node, item, k):
        assert id(node) in handled
        return item

    for node, _ in walk(net.root, 0, route):
        handled.add(id(node))
    assert len(handled) == 2 * count_decisions(net) + 1


def test_learn_uses_regime_structure_for_better_fit():
    # the learned net on regime data beats the single tree in likelihood
    d = _two_tree_regime(np.random.default_rng(12), 512)
    net = learn_cnet(d, LearnerConfig())
    tree = learn_clt(d, 0.05)
    net_ll = float(d.weights @ cnet_log_density_rows(net, d.samples))
    tree_ll = float(d.weights @ clt_log_density_rows(tree, d.samples))
    assert net_ll > tree_ll


def test_validate_rejects_decision_outside_its_scope():
    net = learn_cnet(switch_dataset_16(), LearnerConfig())
    assert net.root.kind == "decision"
    net.validate()
    again = DecisionNode(net.root.var, np.array([0.5, 0.5]), list(net.root.children))
    net.root.children[1] = again
    with pytest.raises(DatasetError, match="not in its scope"):
        net.validate()


# ---------------------------------------------------------------------------
# depth: no traversal recurses, so a chain deeper than Python's recursion
# limit works everywhere

CHAIN = 1100
ROOT_ROW = np.array([[0.3, 0.7]])
COND_ROWS = np.array([[0.8, 0.2], [0.4, 0.6]])


def _chain_net():
    """Decision i cuts variable i; its branch 0 is a chain-shaped leaf over
    variables i+1..CHAIN, its branch 1 the next decision.  The leaves
    share their id, parent, order and CPT arrays, so building is cheap."""
    ids = np.arange(CHAIN + 1)
    parents = np.arange(-1, CHAIN)
    cpt = [ROOT_ROW] + [COND_ROWS] * CHAIN

    def leaf(first):
        m = CHAIN + 1 - first
        return Leaf(ChowLiuTree(ids[first:], parents[:m], ids[:m], cpt[:m]))

    node = leaf(CHAIN)
    for i in range(CHAIN - 1, -1, -1):
        node = DecisionNode(i, np.array([0.5, 0.5]), [leaf(i + 1), node])
    return CutsetNetwork(node, ids)


def _chain_leaf_log_density(x: np.ndarray) -> float:
    return math.log(ROOT_ROW[0, x[0]]) + float(
        np.log(COND_ROWS[x[:-1], x[1:]]).sum()
    )


def _leaf_of(net, row) -> Leaf:
    node, k = induced_path(net, row)[-1]
    return node.children[k]


def test_chain_deeper_than_recursion_limit():
    net = _chain_net()
    net.validate()

    rng = np.random.default_rng(77)
    x = rng.integers(0, 2, size=(4, CHAIN + 1)).astype(np.uint8)
    zeros = [None, 550, 0, 10]  # where each row leaves the chain
    for row, z in zip(x, zeros):
        row[: CHAIN if z is None else z] = 1
        if z is not None:
            row[z] = 0
    got = cnet_log_density_rows(net, x)
    for r, z in enumerate(zeros):
        depth = CHAIN if z is None else z + 1
        want = depth * math.log(0.5) + _chain_leaf_log_density(x[r, depth:])
        assert math.isclose(got[r], want, rel_tol=1e-12)

    values, score = mpe_of(cnet_mpe, net, {v: 1 for v in range(CHAIN)})
    assert np.array_equal(values, np.ones(CHAIN + 1))
    assert math.isclose(score, CHAIN * math.log(0.5) + math.log(0.7), rel_tol=1e-12)

    # one parameter per decision, 2m - 1 per leaf over m variables
    assert structure_param_count(net) == CHAIN + CHAIN**2 + 1

    # empty leaves and decisions score exactly 0, so only the rows' paths count
    d = unit_dataset(x)
    want = 0.0
    for r, z in enumerate(zeros):
        depth = CHAIN if z is None else z + 1
        leaf_d = unit_dataset(x[r : r + 1, depth:], ids=np.arange(depth, CHAIN + 1))
        want += clt_bd_score(_leaf_of(net, x[r]).tree, leaf_d, 0.1)
    want += sum(
        bd_sum_node(SumNodeCounts(*n), 0.1)
        for n in routed_decision_counts(net, d).values()
    )
    assert math.isclose(bd_cnet(net, d, 0.1), want, rel_tol=1e-12)
