"""Chow-Liu trees: structure optimality, scores, sampling, MPE."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cnetlearn import (
    ChowLiuTree,
    DatasetError,
    WeightedDataset,
    clt_bd_score,
    clt_log_density_rows,
    clt_log_likelihood,
    clt_mpe,
    clt_param_count,
    clt_sample,
    learn_clt,
    mutual_information,
)

from helpers import (
    all_spanning_trees,
    cpt_of,
    enumerate_bits,
    mpe_of,
    pair_counts,
    prequential_counts_log,
    random_dataset,
    random_tree,
    tree_weight,
    unit_dataset,
)


def mi_reference(d: WeightedDataset, i: int, j: int) -> float:
    """MI straight from the definition, probabilities in exact rationals."""
    table = pair_counts(d, i, j)
    total = Fraction(d.total_weight).limit_denominator(10**9)
    mi = 0.0
    for a in (0, 1):
        for b in (0, 1):
            p = Fraction(float(table[a, b])).limit_denominator(10**9) / total
            if p == 0:
                continue
            pi = (
                Fraction(float(table[a, 0] + table[a, 1])).limit_denominator(10**9)
                / total
            )
            pj = (
                Fraction(float(table[0, b] + table[1, b])).limit_denominator(10**9)
                / total
            )
            mi += float(p) * math.log(float(p / (pi * pj)))
    return mi


# ---------------------------------------------------------------------------
# mutual information

def test_mi_identical_columns():
    d = unit_dataset([[0, 0], [0, 0], [1, 1], [1, 1]])
    assert math.isclose(mutual_information(d, 0, 1), math.log(2), rel_tol=1e-12)


def test_mi_independent_columns():
    d = unit_dataset([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert mutual_information(d, 0, 1) == 0.0


def test_mi_from_definition():
    d = unit_dataset([[0, 0], [0, 0], [0, 1], [1, 1]])
    got = mutual_information(d, 0, 1)
    assert math.isclose(got, mi_reference(d, 0, 1), rel_tol=1e-12)


def test_mi_symmetric_and_nonnegative():
    rng = np.random.default_rng(1)
    for k in range(200):
        d = random_dataset(rng, 12, 3)
        if k % 2:  # fractional weights: the two cell orders differ in bits
            d = d.with_weights(rng.random(12) * 7)
        a = mutual_information(d, 0, 2)
        b = mutual_information(d, 2, 0)
        assert a == b
        assert a >= 0.0


def test_mi_errors():
    d = unit_dataset([[0, 1]])
    with pytest.raises(DatasetError):
        mutual_information(d, 1, 1)
    d0 = WeightedDataset(np.array([[0, 1]]), np.array([0.0]))
    with pytest.raises(DatasetError):
        mutual_information(d0, 0, 1)


# ---------------------------------------------------------------------------
# structure learning

def test_learn_clt_single_variable_ml_row():
    d = unit_dataset([[1], [1], [1], [0]])
    t = learn_clt(d, 0.0)
    assert t.n_vars == 1 and t.root == 0
    assert np.allclose(t.cpt[0], [[0.25, 0.75], [0.5, 0.5]])


def test_learn_clt_two_variables_single_edge():
    d = unit_dataset([[0, 0], [1, 1], [1, 0]])
    t = learn_clt(d, 0.01)
    assert np.array_equal(t.parents, [-1, 0])
    assert np.array_equal(t.order, [0, 1])
    t.validate()


def test_learn_clt_smoothing_formula():
    # theta = (n(x,u) + beta) / (n(u) + 2 beta)
    d = unit_dataset([[0, 0], [0, 1], [1, 1]])
    beta = 0.5
    t = learn_clt(d, beta)
    # root is variable 0 with counts (2, 1)
    assert np.allclose(t.cpt[0, 0], [(2 + beta) / (3 + 2 * beta), (1 + beta) / (3 + 2 * beta)])
    # child rows: given x0=0 counts (1,1); given x0=1 counts (0,1)
    assert np.allclose(t.cpt[1, 0], [0.5, 0.5])
    assert np.allclose(t.cpt[1, 1], [beta / (1 + 2 * beta), (1 + beta) / (1 + 2 * beta)])


def test_learn_clt_brute_force_optimal_d4():
    rng = np.random.default_rng(42)
    # correlated data so the MI graph is not flat
    base = rng.integers(0, 2, size=(30, 1))
    noise = rng.integers(0, 2, size=(30, 3))
    x = np.hstack([base, (base ^ (noise[:, :1] & rng.integers(0, 2, (30, 1)))), noise[:, 1:]])
    d = unit_dataset(x.astype(np.uint8))
    t = learn_clt(d, 0.0)
    mi = [[mutual_information(d, i, j) if i != j else 0.0 for j in range(4)] for i in range(4)]
    learned = tree_weight(mi, [(min(v, int(p)), max(v, int(p))) for v, p in enumerate(t.parents) if p >= 0])
    best = max(tree_weight(mi, e) for e in all_spanning_trees(4))
    assert learned >= best - 1e-13


def test_learn_clt_brute_force_optimal_many():
    rng = np.random.default_rng(9)
    for case in range(30):
        n_vars = 2 + case % 4  # 2..5
        d = random_dataset(rng, int(rng.integers(5, 40)), n_vars)
        t = learn_clt(d, 0.01)
        t.validate()
        mi = [
            [mutual_information(d, i, j) if i != j else 0.0 for j in range(n_vars)]
            for i in range(n_vars)
        ]
        learned = tree_weight(
            mi,
            [(min(v, int(p)), max(v, int(p))) for v, p in enumerate(t.parents) if p >= 0],
        )
        best = max(tree_weight(mi, e) for e in all_spanning_trees(n_vars))
        assert learned >= best - 1e-13


def test_learn_clt_degenerate_data_ties():
    # all MI zero: the lexicographic edge preference joins (0,1), (0,2), ...
    d = unit_dataset([[0] * 5, [0] * 5])
    t = learn_clt(d, 0.0)
    assert np.array_equal(t.parents, [-1, 0, 0, 0, 0])
    # constant data with beta=0 still yields valid rows (degenerate families
    # fall back to (0.5, 0.5))
    t.validate()


def test_learn_clt_zero_weight_dataset():
    d = WeightedDataset(np.array([[0, 1, 0]]), np.array([0.0]))
    t = learn_clt(d, 0.0)
    t.validate()
    for v in range(3):
        assert np.allclose(t.cpt[v], 0.5)


@pytest.mark.parametrize(
    "damage",
    [
        lambda t: t.order.__setitem__(2, t.order[0]),
        lambda t: t.parents.__setitem__(t.order[2], -1),
        lambda t: setattr(t, "order", t.order[::-1].copy()),
        lambda t: setattr(t, "cpt", t.cpt[:, :1]),
        lambda t: t.cpt.__setitem__(1, np.array([[0.9, 0.9], [0.5, 0.5]])),
    ],
    ids=["order-repeats-root", "two-roots", "children-first", "cpt-not-d22", "row-sum"],
)
def test_validate_raises_dataset_error(damage):
    t = learn_clt(unit_dataset([[0, 0, 1], [1, 1, 0], [1, 1, 1]]), 0.1)
    t.validate()
    damage(t)
    with pytest.raises(DatasetError):
        t.validate()


def test_learn_clt_deterministic():
    rng = np.random.default_rng(10)
    d = random_dataset(rng, 50, 6)
    t1 = learn_clt(d, 0.01)
    t2 = learn_clt(d, 0.01)
    assert np.array_equal(t1.parents, t2.parents)
    assert np.array_equal(t1.cpt, t2.cpt)


# ---------------------------------------------------------------------------
# likelihood

def test_clt_log_likelihood_examples():
    t = ChowLiuTree(
        np.array([0]),
        np.array([-1]),
        np.array([0]),
        cpt_of([[[0.5, 0.5]]]),
    )
    d = unit_dataset([[0], [1]])
    assert math.isclose(clt_log_likelihood(t, d), 2 * math.log(0.5), rel_tol=1e-14)
    empty = WeightedDataset(np.zeros((0, 1), dtype=np.uint8), np.zeros(0))
    assert clt_log_likelihood(t, empty) == 0.0


def test_chow_liu_identity():
    # at beta=0 on its own training data: LL / W = sum of edge MIs minus
    # the sum of marginal entropies
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(300, 5)).astype(np.uint8)
    d = unit_dataset(x)
    t = learn_clt(d, 0.0)
    ll = clt_log_likelihood(t, d) / d.total_weight
    mi_sum = math.fsum(
        mutual_information(d, int(t.variable_ids[v]), int(t.variable_ids[p]))
        for v, p in enumerate(t.parents)
        if p >= 0
    )
    h_sum = 0.0
    for v in range(5):
        n1 = float(d.weights @ (d.samples[:, v] == 1))
        p1 = n1 / d.total_weight
        h_sum -= p1 * math.log(p1) + (1 - p1) * math.log(1 - p1)
    assert math.isclose(ll, mi_sum - h_sum, rel_tol=1e-10, abs_tol=1e-10)


def test_clt_log_likelihood_scope_mismatch():
    t = random_tree(np.random.default_rng(0), [0, 1, 2])
    d = unit_dataset([[0, 1]])
    with pytest.raises(DatasetError):
        clt_log_likelihood(t, d)


def test_normalization_random_trees():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n_vars = int(rng.integers(1, 11))
        t = random_tree(rng, range(n_vars))
        total = np.exp(clt_log_density_rows(t, enumerate_bits(n_vars))).sum()
        assert abs(total - 1.0) <= 1e-10


def test_density_rows_agree_with_single_row_likelihood():
    rng = np.random.default_rng(15)
    t = random_tree(rng, range(4))
    x = enumerate_bits(4)
    rows = clt_log_density_rows(t, x)
    for k in range(len(x)):
        single = WeightedDataset(x[k : k + 1], np.ones(1))
        assert math.isclose(
            clt_log_likelihood(t, single), rows[k], rel_tol=1e-12, abs_tol=1e-12
        )


# ---------------------------------------------------------------------------
# Bayesian-Dirichlet scoring

def test_clt_bd_single_variable_prequential_value():
    d = unit_dataset([[0], [1], [1], [1]])
    t = learn_clt(d, 0.5)
    got = clt_bd_score(t, d, alpha=1.0)
    assert math.isclose(got, math.log(0.0390625), rel_tol=1e-12)
    assert math.isclose(got, prequential_counts_log((1, 3), 1), rel_tol=1e-12)


def test_clt_bd_empty_dataset():
    t = ChowLiuTree(
        np.array([0]), np.array([-1]), np.array([0]), cpt_of([[[0.5, 0.5]]])
    )
    empty = WeightedDataset(np.zeros((0, 1), dtype=np.uint8), np.zeros(0))
    assert clt_bd_score(t, empty, alpha=1.0) == 0.0


def test_clt_bd_first_predictive():
    d = unit_dataset([[1]])
    t = learn_clt(d, 0.0)
    assert math.isclose(clt_bd_score(t, d, alpha=0.1), math.log(0.5), rel_tol=1e-12)


def test_clt_bd_matches_prequential_on_trees():
    # whole-tree score = exact sequential predictive chain, any order
    rng = np.random.default_rng(23)
    for alpha in (0.1, 1.0):
        for _ in range(10):
            n_vars = int(rng.integers(1, 6))
            d = random_dataset(rng, int(rng.integers(1, 40)), n_vars)
            t = learn_clt(d, 0.0)
            got = clt_bd_score(t, d, alpha)
            ref = 0.0
            # accumulate the chain family by family
            for v in range(n_vars):
                p = int(t.parents[v])
                if p < 0:
                    c = np.zeros(2)
                    np.add.at(c, d.samples[:, v].astype(int), d.weights)
                    ref += prequential_counts_log((int(c[0]), int(c[1])), alpha)
                else:
                    tab = pair_counts(d, int(t.variable_ids[p]), int(t.variable_ids[v]))
                    for u in (0, 1):
                        ref += prequential_counts_log(
                            (int(tab[u, 0]), int(tab[u, 1])), alpha
                        )
            assert abs(got - ref) <= 1e-8


def test_clt_bd_order_invariance():
    rng = np.random.default_rng(31)
    d = random_dataset(rng, 40, 4)
    t = learn_clt(d, 0.0)
    base = clt_bd_score(t, d, 0.1)
    for _ in range(5):
        perm = rng.permutation(40)
        shuffled = WeightedDataset(d.samples[perm], d.weights[perm])
        assert abs(clt_bd_score(t, shuffled, 0.1) - base) <= 1e-10


def test_clt_bd_ignores_stored_cpts():
    rng = np.random.default_rng(32)
    d = random_dataset(rng, 25, 3)
    t1 = learn_clt(d, 0.0)
    t2 = ChowLiuTree(
        t1.variable_ids, t1.parents, t1.order, np.full_like(t1.cpt, 0.5)
    )
    assert clt_bd_score(t1, d, 0.1) == clt_bd_score(t2, d, 0.1)


def test_clt_bd_rejects_bad_alpha():
    d = unit_dataset([[0]])
    t = learn_clt(d, 0.0)
    with pytest.raises(ValueError):
        clt_bd_score(t, d, 0.0)


# ---------------------------------------------------------------------------
# sampling

def test_clt_sample_deterministic_cpts():
    t = ChowLiuTree(
        np.array([0, 1]),
        np.array([-1, 0]),
        np.array([0, 1]),
        cpt_of([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    )
    rng = np.random.default_rng(0)
    assert np.array_equal(clt_sample(t, 20, rng), np.zeros((20, 2)))


def test_clt_sample_mean_concentration():
    t = ChowLiuTree(
        np.array([0]), np.array([-1]), np.array([0]), cpt_of([[[0.5, 0.5]]])
    )
    rng = np.random.default_rng(123)
    draws = clt_sample(t, 10000, rng)[:, 0]
    assert abs(draws.mean() - 0.5) <= 0.02


def test_clt_sample_seed_reproducible():
    t = random_tree(np.random.default_rng(5), range(6))
    a = clt_sample(t, 3, np.random.default_rng(99))
    b = clt_sample(t, 3, np.random.default_rng(99))
    assert a.shape == (3, 6) and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# MPE

def _exhaustive_mpe(t, evidence):
    ids = [int(g) for g in t.variable_ids]
    free = [i for i, g in enumerate(ids) if g not in evidence]
    x = np.zeros((2 ** len(free), len(ids)), dtype=np.uint8)
    for i, g in enumerate(ids):
        if g in evidence:
            x[:, i] = evidence[g]
    if free:
        x[:, free] = enumerate_bits(len(free))
    scores = clt_log_density_rows(t, x)
    k = int(np.argmax(scores))
    return x, scores, k


def test_clt_mpe_full_and_empty_evidence():
    rng = np.random.default_rng(77)
    t = random_tree(rng, range(5))
    # full evidence echoes itself with its exact density
    ev = {i: int(rng.integers(0, 2)) for i in range(5)}
    values, score = mpe_of(clt_mpe, t, ev)
    assert all(values[i] == ev[i] for i in range(5))
    assert score == float(clt_log_density_rows(t, values[None, :])[0])
    # deterministic CPTs: the support point scores 0
    det = ChowLiuTree(
        np.array([0, 1]),
        np.array([-1, 0]),
        np.array([0, 1]),
        cpt_of([[[0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    )
    values, score = mpe_of(clt_mpe, det, {})
    assert np.array_equal(values, [1, 1]) and score == 0.0


def test_clt_mpe_matches_exhaustive():
    rng = np.random.default_rng(200)
    for case in range(60):
        n_vars = int(rng.integers(2, 11))
        t = random_tree(rng, range(n_vars))
        evidence = {
            i: int(rng.integers(0, 2))
            for i in range(n_vars)
            if rng.random() < 0.35
        }
        values, score = mpe_of(clt_mpe, t, evidence)
        x, scores, k = _exhaustive_mpe(t, evidence)
        assert abs(score - scores[k]) <= 1e-12, case
        ties = np.flatnonzero(scores >= scores[k] - 1e-12)
        if len(ties) == 1:
            assert np.array_equal(values, x[k])
        for g, val in evidence.items():
            assert values[g] == val


def test_clt_mpe_tie_breaks_toward_zero():
    t = ChowLiuTree(
        np.array([0, 1]),
        np.array([-1, 0]),
        np.array([0, 1]),
        cpt_of([[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]),
    )
    values, score = mpe_of(clt_mpe, t, {})
    assert np.array_equal(values, [0, 0])
    assert math.isclose(score, 2 * math.log(0.5), rel_tol=1e-14)


def test_clt_mpe_unknown_evidence_variable():
    t = random_tree(np.random.default_rng(0), [0, 1])
    with pytest.raises(DatasetError):
        clt_mpe(t, np.array([[1, -1, 0]]))  # no scope variable for column 2
    with pytest.raises(DatasetError):
        clt_mpe(t, np.array([[2, -1]]))


def test_clt_mpe_8var_3evidence_example():
    rng = np.random.default_rng(321)
    t = random_tree(rng, range(8))
    evidence = {1: 1, 4: 0, 6: 1}
    values, score = mpe_of(clt_mpe, t, evidence)
    x, scores, k = _exhaustive_mpe(t, evidence)
    assert abs(score - scores[k]) <= 1e-12


def test_clt_mpe_keeps_impossible_evidence():
    # x0 = 1 has probability 0: the completion keeps it and scores -inf
    t = ChowLiuTree(
        np.array([0, 1]),
        np.array([-1, 0]),
        np.array([0, 1]),
        cpt_of([[[1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]),
    )
    values, scores = clt_mpe(t, np.array([[1, -1], [-1, -1]]))
    assert np.array_equal(values, [[1, 0], [0, 0]])
    assert scores[0] == -math.inf and scores[1] == math.log(0.5)


# ---------------------------------------------------------------------------
# parameter count

def test_clt_param_count():
    rng = np.random.default_rng(2)
    assert clt_param_count(random_tree(rng, [0])) == 1
    assert clt_param_count(random_tree(rng, range(5))) == 9
    for _ in range(5):
        assert clt_param_count(random_tree(rng, range(7))) == 13
