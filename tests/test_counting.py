"""Differential tests: the count-once fast paths against the slow
per-family, per-variable and per-edge references in helpers.py, and the
kind-agnostic score code against the per-kind BD and BIC references.

CPTs and BD scores must agree exactly, because the learner's accept rule
compares a score delta with 0 and can hinge on the last bit.  The
information gain sums in another order, so it agrees to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cnetlearn import (
    ChowLiuTree,
    LearnerConfig,
    WeightedDataset,
    bd_cnet,
    bic_cnet,
    clt_bd_score,
    clt_log_likelihood,
    learn_clt,
    learn_cnet,
)
from cnetlearn.clt import _fit_cpts, _max_spanning_tree
from cnetlearn.cnet import _information_gains, information_gain
from cnetlearn.scores import BD, BIC, ScoreConfig, evaluate_cut

from helpers import (
    random_net,
    random_tree,
    ref_bd_cnet,
    ref_bic_cnet,
    ref_clt_bd_score,
    ref_cut_delta,
    ref_decision_weights,
    ref_fit_cpts,
    ref_information_gain,
    ref_max_spanning_tree,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def datasets(draw, min_rows=0):
    """Small datasets with unit or fractional weights, some zero-weight
    rows and some constant columns."""
    n = draw(st.integers(min_rows, 40))
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = (rng.random((n, d)) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.uint8)
    for v in range(d):
        if rng.random() < 0.2:
            x[:, v] = rng.integers(0, 2)
    kind = draw(st.sampled_from(["unit", "fractional", "sparse"]))
    if kind == "unit":
        w = np.ones(n)
    else:
        w = rng.random(n) * rng.choice([1e-3, 1.0, 7.0], size=n)
        if kind == "sparse":
            w[rng.random(n) < 0.5] = 0.0
    ids = np.sort(rng.choice(1000, size=d, replace=False))
    return WeightedDataset(x, w, ids)


def _trees(d: WeightedDataset, seed: int) -> list:
    """The learned tree plus a random one over the same scope."""
    rng = np.random.default_rng(seed)
    return [learn_clt(d, 0.05), random_tree(rng, d.variable_ids)]


@SETTINGS
@given(datasets(), st.sampled_from([0.0, 0.01, 0.05, 0.5]), st.integers(0, 99))
def test_cpts_equal_reference(d, beta, seed):
    for t in _trees(d, seed):
        got = _fit_cpts(d, t.parents, beta)
        want = ref_fit_cpts(d, t.parents, beta)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert g.shape == r.shape and np.array_equal(g, r)


@SETTINGS
@given(datasets(), st.sampled_from([0.1, 1.0, 3.7]), st.integers(0, 99))
def test_bd_score_equal_reference(d, alpha, seed):
    for t in _trees(d, seed):
        assert clt_bd_score(t, d, alpha) == ref_clt_bd_score(t, d, alpha)


@SETTINGS
@given(datasets(min_rows=1))
def test_information_gains_match_reference(d):
    if d.n_vars < 2 or d.total_weight <= 0:
        return
    gains = _information_gains(d)
    for col, var in enumerate(d.variable_ids):
        want = ref_information_gain(d, int(var))
        assert abs(gains[col] - want) <= 1e-12
        assert information_gain(d, int(var)) == gains[col]
        if np.all(d.samples[:, col] == d.samples[0, col]):
            assert gains[col] == 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "rounded", "coarse", "distinct"]),
)
def test_kruskal_equals_sorted_reference(dvars, seed, ties):
    rng = np.random.default_rng(seed)
    mi = rng.random((dvars, dvars))
    if ties == "zero":
        mi[:] = 0.0
    elif ties == "rounded":
        mi = np.round(mi, 1)
    elif ties == "coarse":
        mi = rng.integers(0, 3, size=(dvars, dvars)) * 0.25
    mi = np.triu(mi, 1) + np.triu(mi, 1).T
    assert _max_spanning_tree(mi) == ref_max_spanning_tree(mi)


@settings(max_examples=60, deadline=None)
@given(datasets(min_rows=2), st.sampled_from([BD, BIC]))
def test_cut_delta_same_with_reference_leaf_score(d, kind):
    if d.n_vars < 2 or d.total_weight <= 0:
        return
    cfg = ScoreConfig(kind=kind, root_dataset_size=max(d.total_weight, 1.0))
    leaf = learn_clt(d, cfg.fit_beta)
    if kind == BD:
        before = ref_clt_bd_score(leaf, d, cfg.alpha)
    else:
        cpts = ref_fit_cpts(d, leaf.parents, cfg.beta)
        refit = ChowLiuTree(leaf.variable_ids, leaf.parents, leaf.order, cpts)
        before = clt_log_likelihood(refit, d)
    for var in d.variable_ids.tolist():
        plain = evaluate_cut(leaf, d, var, cfg)
        assert evaluate_cut(leaf, d, var, cfg, leaf_score=before).delta == plain.delta


CONSTANTS = st.sampled_from([0.02, 0.5, 2.0])  # BD alpha or BIC beta


def _score_configs(d: WeightedDataset, kind: str, const: float) -> list:
    """BD with alpha = const, or BIC with beta = const under both an
    unpinned and a pinned penalty base."""
    if kind == BD:
        return [ScoreConfig(kind=BD, alpha=const)]
    return [
        ScoreConfig(kind=BIC, beta=const, root_dataset_size=size)
        for size in (1.0, max(d.total_weight, 1.0) * 3.0)
    ]


@settings(max_examples=80, deadline=None)
@given(datasets(min_rows=2), st.sampled_from([BD, BIC]), CONSTANTS)
def test_cut_delta_equals_per_kind_reference(d, kind, const):
    if d.n_vars < 2:
        return
    for cfg in _score_configs(d, kind, const):
        leaf = learn_clt(d, cfg.fit_beta)
        for var in d.variable_ids.tolist():
            want = ref_cut_delta(leaf, d, var, cfg)
            assert evaluate_cut(leaf, d, var, cfg).delta == want


@settings(max_examples=80, deadline=None)
@given(datasets(), st.sampled_from([BD, BIC]), CONSTANTS, st.integers(0, 99))
def test_net_scores_equal_per_kind_reference(d, kind, const, seed):
    nets = [random_net(np.random.default_rng(seed), d.variable_ids, 4)]
    if d.total_weight > 0:
        nets.append(learn_cnet(d, LearnerConfig(score=ScoreConfig(kind=kind), lam=3)))
    for cfg in _score_configs(d, kind, const):
        for net in nets:
            if kind == BD:
                assert bd_cnet(net, d, cfg.alpha) == ref_bd_cnet(net, d, cfg.alpha)
            else:
                assert bic_cnet(net, d, cfg) == ref_bic_cnet(net, d, cfg)


@settings(max_examples=60, deadline=None)
@given(datasets(min_rows=2), st.sampled_from([BD, BIC]), CONSTANTS)
def test_decision_weights_equal_per_kind_reference(d, kind, const):
    if d.total_weight <= 0:
        return
    score = _score_configs(d, kind, const)[0]
    trace = []
    net = learn_cnet(d, LearnerConfig(score=score, lam=4), trace=trace)
    # the learner appends one trace record per cut in pre-order
    decisions = []
    stack = [net.root]
    while stack:
        node = stack.pop()
        if node.kind == "decision":
            decisions.append(node)
            stack.extend(reversed(node.children))
    assert len(decisions) == len(trace)
    for node, rec in zip(decisions, trace):
        want = ref_decision_weights(rec["n0"], rec["n1"], score)
        assert np.array_equal(node.weights, want)
