"""Differential tests: the count-once fast paths against the slow
per-family, per-variable and per-edge references in helpers.py, the
kind-agnostic score code against the per-kind BD and BIC references,
the stacked cut pass against one learn per child, and the whole learner
against one that restricts and learns every child one at a time.

Families are counted one way: CPTs and scores both read their family
tables off the Gram counts, as ref_gram_family_table does one cell at a
time.  Weights lie on a grid on which every count is exact (see
WeightedDataset), so an oracle test holds those tables equal to a
per-family np.add.at count in row order, for unit, fractional and zero
weights alike, and the counts do not depend on the order of the rows.
Scores must agree with their references exactly, because the learner's
accept rule compares a score delta with 0 and can hinge on the last bit.
The information gain sums in another order, so it agrees to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cnetlearn import (
    LearnerConfig,
    WeightedDataset,
    bd_cnet,
    bic_cnet,
    clt_bd_score,
    learn_clt,
    learn_cnet,
    restrict,
    select_best_cut,
)
from cnetlearn.clt import (
    _family_tables,
    _fit_cpts,
    _mi_pairs,
    _rooted_trees,
    _stacked,
)
from cnetlearn.cnet import _information_gains, information_gain, walk
from cnetlearn.scores import BD, BIC, ScoreConfig, _leaf_score, _scored_cuts, evaluate_cut

from helpers import (
    _ref_refit_ll,
    orient_at_zero,
    random_net,
    random_tree,
    ref_bd_cnet,
    ref_bic_cnet,
    ref_clt_bd_score,
    ref_cut_delta,
    ref_decision_weights,
    ref_fit_cpts,
    ref_cut,
    ref_gram_family_table,
    ref_information_gain,
    ref_learn_cnet,
    ref_max_spanning_tree,
    ref_mi_matrix,
    ref_select_best_cut,
    regime_samples,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def datasets(draw, min_rows=0, regimes=False):
    """Small datasets with unit or fractional weights, some zero-weight
    rows and some constant columns.  With `regimes`, some are larger
    draws of regime_samples instead, on which the learner cuts."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if regimes and draw(st.booleans()):
        n, d = draw(st.integers(40, 300)), draw(st.integers(3, 8))
        x = regime_samples(rng, n, d, flip=draw(st.sampled_from([0.02, 0.1])))
    else:
        n, d = draw(st.integers(min_rows, 40)), draw(st.integers(1, 8))
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
        assert _same_bits(_fit_cpts(d, t.parents, beta), ref_fit_cpts(d, t.parents, beta))


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


def _tied_mi(rng, dvars: int, ties: str) -> np.ndarray:
    mi = rng.random((dvars, dvars))
    if ties == "zero":
        mi[:] = 0.0
    elif ties == "rounded":
        mi = np.round(mi, 1)
    elif ties == "coarse":
        mi = rng.integers(0, 3, size=(dvars, dvars)) * 0.25
    return np.triu(mi, 1) + np.triu(mi, 1).T


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 14),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["zero", "rounded", "coarse", "distinct"]), min_size=6, max_size=6),
)
def test_prim_on_mi_equals_kruskal_on_tied_stacks(m, dvars, seed, ties):
    # Prim takes the edge of highest MI, ties to the smaller pair: the
    # trees of Kruskal's strict order, rooted at 0 and ordered breadth first
    rng = np.random.default_rng(seed)
    stack = np.stack([_tied_mi(rng, dvars, ties[k]) for k in range(m)])
    iu, ju = np.triu_indices(dvars, 1)
    parents, order = _rooted_trees(stack[:, iu, ju], dvars)
    for k, mi in enumerate(stack):
        want = orient_at_zero(dvars, ref_max_spanning_tree(mi))
        assert _same_bits(parents[k], want[0]) and _same_bits(order[k], want[1])


@SETTINGS
@given(st.lists(datasets(), min_size=1, max_size=5), st.integers(1, 8))
def test_mi_stack_equals_one_matrix_at_a_time(ds, dvars):
    # the learner reads only the cells i < j
    grams = []
    for d in ds:  # the same number of variables, as in one stack
        d = WeightedDataset(np.resize(d.samples, (d.n_rows, dvars)), d.weights)
        grams.append(d.gram_counts())
    got = _mi_pairs(*_stacked(grams))
    iu, ju = np.triu_indices(dvars, 1)
    for k, gram in enumerate(grams):
        want = ref_mi_matrix(*gram) if gram[0] > 0 else np.zeros((dvars, dvars))
        assert np.array_equal(got[k], want[iu, ju])


def _random_parents(rng, n: int) -> np.ndarray:
    """Parents of a random tree over n variables rooted anywhere."""
    order = rng.permutation(n)
    parents = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        parents[order[i]] = order[rng.integers(i)]
    return parents


def _add_at_table(d: WeightedDataset, v: int, p: int) -> np.ndarray:
    """Family table of local variable v under parent p (-1 at a root),
    counted row by row with np.add.at."""
    xv = d.samples[:, v].astype(np.int64)
    xu = np.zeros_like(xv) if p < 0 else d.samples[:, p].astype(np.int64)
    table = np.zeros((2, 2))
    np.add.at(table, (xu, xv), d.weights)
    return table


@SETTINGS
@given(st.lists(datasets(), min_size=1, max_size=4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gram_family_tables_equal_add_at_counts(ds, dvars, seed):
    # one stack of datasets over dvars variables, each with a random tree
    rng = np.random.default_rng(seed)
    ds = [WeightedDataset(np.resize(d.samples, (d.n_rows, dvars)), d.weights) for d in ds]
    parents = np.stack([_random_parents(rng, dvars) for _ in ds])
    tables = _family_tables(*_stacked([d.gram_counts() for d in ds]), parents)
    assert tables.shape == (len(ds), dvars, 2, 2)
    assert np.all(tables >= 0.0)
    for k, d in enumerate(ds):
        for v, p in enumerate(parents[k].tolist()):
            got = tables[k, v]
            assert np.array_equal(got, ref_gram_family_table(d, v, p))
            assert np.array_equal(got, _add_at_table(d, v, p))
            if p < 0:
                assert np.array_equal(got[1], [0.0, 0.0]) and not np.signbit(got[1]).any()
        if d.n_rows == 0:
            assert np.all(tables[k] == 0.0) and not np.signbit(tables[k]).any()


@SETTINGS
@given(datasets(), st.integers(0, 2**32 - 1))
def test_counts_do_not_depend_on_the_order_of_the_rows(d, seed):
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    shuffled = WeightedDataset(d.samples[perm], d.weights[perm], d.variable_ids)
    for a, b in zip(d.gram_counts(), shuffled.gram_counts()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@SETTINGS
@given(datasets(), st.integers(0, 2**32 - 1))
def test_subtracted_child_counts_equal_counts_of_the_restricted_parts(d, seed):
    # three more columns: one 1 (a one-row child 1, the smaller one from
    # three rows up), one 0 (a one-row child 0, likewise) and a constant
    # (an empty child); datasets() adds unit, fractional and zero weights
    rng = np.random.default_rng(seed)
    extra = np.zeros((d.n_rows, 3), dtype=np.uint8)
    extra[:, 1], extra[:, 2] = 1, rng.integers(0, 2)
    if d.n_rows:
        extra[rng.integers(d.n_rows), 0] = 1
        extra[rng.integers(d.n_rows), 1] = 0
    d = WeightedDataset(np.hstack([d.samples, extra]), d.weights)
    ids = d.variable_ids.tolist()
    for cut in _scored_cuts(d, ids, ScoreConfig(), 0.0):
        for c in (0, 1):
            got, want = cut.child_grams[c], restrict(d, cut.var, c).gram_counts()
            assert got[0] == want[0]
            assert all(_same_bits(a, b) for a, b in zip(got[1:], want[1:]))


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
        before = _ref_refit_ll(leaf, d, cfg.beta)
    assert _leaf_score(leaf, d, cfg) == before


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
@given(datasets(regimes=True), st.sampled_from([BD, BIC]), CONSTANTS, st.integers(0, 99))
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
@given(datasets(min_rows=2, regimes=True), st.sampled_from([BD, BIC]), CONSTANTS)
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


def _same_cut(got, want) -> None:
    assert got.var == want.var and got.delta == want.delta
    assert (got.counts.n0, got.counts.n1) == (want.counts.n0, want.counts.n1)
    for c in (0, 1):
        for a, b in zip(got.child_structures[c], want.child_structures[c]):
            assert np.array_equal(a, b)  # parents, then order
        # the Gram counts an accepted child is handed, for the next level
        assert all(np.array_equal(a, b) for a, b in zip(got.child_grams[c], want.child_grams[c]))


@settings(max_examples=100, deadline=None)
@given(
    datasets(),
    st.sampled_from([BD, BIC]),
    CONSTANTS,
    st.sampled_from([1, 2, 3, 100]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_cuts_equal_one_learn_per_child(d, kind, const, lam, seed):
    # datasets() makes constant columns, whose cuts leave an empty child,
    # and zero weights, which leave zero-weight children; lam = 100 takes
    # every variable
    if d.n_vars < 2:
        return
    cfg = _score_configs(d, kind, const)[-1]
    leaf = learn_clt(d, cfg.fit_beta)
    ids = d.variable_ids.tolist()
    candidates = np.random.default_rng(seed).permutation(ids)[:lam].tolist()
    got = select_best_cut(leaf, d, candidates, cfg)
    want = ref_select_best_cut(leaf, d, candidates, cfg)
    assert (got is None) == (want is None)
    if got is not None:
        _same_cut(got, want)
    best = evaluate_cut(leaf, d, candidates, cfg)
    _same_cut(best, max((ref_cut(leaf, d, v, cfg) for v in candidates),
                        key=lambda c: c.delta))
    _same_cut(evaluate_cut(leaf, d, candidates[0], cfg), ref_cut(leaf, d, candidates[0], cfg))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_net(got, want) -> None:
    """Node for node in preorder, every array bit for bit."""
    assert _same_bits(got.variable_ids, want.variable_ids)
    nodes, ref_nodes = list(walk(got.root)), list(walk(want.root))
    assert len(nodes) == len(ref_nodes)
    for (node, _), (ref, _) in zip(nodes, ref_nodes):
        assert node.kind == ref.kind
        if node.kind == "decision":
            assert node.var == ref.var and _same_bits(node.weights, ref.weights)
            continue
        t, r = node.tree, ref.tree
        assert _same_bits(t.variable_ids, r.variable_ids)
        assert _same_bits(t.parents, r.parents) and _same_bits(t.order, r.order)
        assert _same_bits(t.cpt, r.cpt)


@settings(max_examples=100, deadline=None)
@given(
    datasets(min_rows=1, regimes=True),
    st.sampled_from([BD, BIC]),
    CONSTANTS,
    st.sampled_from([1, 3, 100]),
)
def test_learner_equals_one_step_at_a_time_reference(d, kind, const, lam):
    # unit, fractional and zero weights; only accepted cuts build children
    if d.total_weight <= 0:
        return
    score = ScoreConfig(kind=BD, alpha=const) if kind == BD else ScoreConfig(kind=BIC, beta=const)
    cfg = LearnerConfig(score=score, lam=lam)
    trace = []
    net = learn_cnet(d, cfg, trace=trace)
    want, want_trace = ref_learn_cnet(d, cfg)
    _same_net(net, want)
    assert trace == want_trace
