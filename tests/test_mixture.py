"""Mixtures of cutset networks: clustering init, EM steps, and the
structural EM driver."""

import json
import math

import numpy as np
import pytest

from cnetlearn import (
    BD,
    DatasetError,
    LearnerConfig,
    Mixture,
    ScoreConfig,
    WeightedDataset,
    cnet_log_density_rows,
    e_step,
    kmeans_init,
    learn_clt,
    learn_cnet,
    learn_sem,
    m_step,
    mixture_log_density_rows,
    model_to_dict,
)
from cnetlearn.cli import _sample
from cnetlearn.cnet import CutsetNetwork, Leaf

from helpers import (
    enumerate_bits,
    log_sum_exp,
    random_dataset,
    random_net,
    regime_samples,
    unit_dataset,
)



def _single_net(rows, beta=0.1):
    d = unit_dataset(rows)
    return CutsetNetwork(Leaf(learn_clt(d, beta)), d.variable_ids.copy())


# ---------------------------------------------------------------------------
# k-means initialization

def test_kmeans_single_cluster_is_whole_dataset():
    rng = np.random.default_rng(600)
    d = random_dataset(rng, 30, 4)
    parts = kmeans_init(d, 1, rng)
    assert len(parts) == 1
    assert parts[0].total_weight == d.total_weight
    assert parts[0].n_rows == d.n_rows


def test_kmeans_separates_obvious_clusters():
    rows = [[0] * 4] * 10 + [[1] * 4] * 10
    d = unit_dataset(rows)
    parts = kmeans_init(d, 2, np.random.default_rng(601))
    assert sorted(p.n_rows for p in parts) == [10, 10]
    for p in parts:
        assert len(np.unique(p.samples, axis=0)) == 1


def test_kmeans_deterministic_given_seed():
    rng_data = np.random.default_rng(602)
    d = random_dataset(rng_data, 50, 5)
    a = kmeans_init(d, 3, np.random.default_rng(7))
    b = kmeans_init(d, 3, np.random.default_rng(7))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.samples, pb.samples)
        assert np.array_equal(pa.weights, pb.weights)


def test_kmeans_round_robin_on_identical_rows():
    d = unit_dataset([[0, 1]] * 5)
    parts = kmeans_init(d, 3, np.random.default_rng(603))
    assert sorted(p.n_rows for p in parts) == [1, 2, 2]
    assert all(p.total_weight > 0 for p in parts)


def test_kmeans_errors():
    d = unit_dataset([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        kmeans_init(d, 0, np.random.default_rng(0))
    with pytest.raises(DatasetError):
        kmeans_init(d, 3, np.random.default_rng(0))
    d0 = WeightedDataset(np.array([[0, 1]]), np.array([0.0]))
    with pytest.raises(DatasetError):
        kmeans_init(d0, 1, np.random.default_rng(0))


def test_kmeans_every_part_has_positive_weight():
    # one heavy row plus many zero-weight rows: starved parts get topped
    # up with live rows only
    samples = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    weights = np.array([2.0, 1.0, 0.0, 1.0])
    d = WeightedDataset(samples, weights)
    parts = kmeans_init(d, 2, np.random.default_rng(604))
    assert all(p.total_weight > 0 for p in parts)


# ---------------------------------------------------------------------------
# mixture container and density

def test_mixture_validation():
    net = _single_net([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        Mixture([], [])
    with pytest.raises(ValueError):
        Mixture([net], [0.5, 0.5])
    with pytest.raises(ValueError):
        Mixture([net, net], [0.7, 0.5])
    with pytest.raises(ValueError):
        Mixture([net, net], [-0.1, 1.1])
    other = _single_net([[0, 1, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        Mixture([net, other], [0.5, 0.5])
    # zero weight on a component is allowed
    m = Mixture([net, net], [1.0, 0.0])
    assert m.n_components == 2


def test_mixture_density_is_weighted_logsumexp():
    a = _single_net([[0, 0], [0, 1]])
    b = _single_net([[1, 1], [1, 0]])
    m = Mixture([a, b], [0.3, 0.7])
    x = enumerate_bits(2)
    got = mixture_log_density_rows(m, x)
    la = cnet_log_density_rows(a, x)
    lb = cnet_log_density_rows(b, x)
    for i in range(len(x)):
        ref = log_sum_exp([math.log(0.3) + la[i], math.log(0.7) + lb[i]])
        assert math.isclose(got[i], ref, rel_tol=0, abs_tol=1e-12)


def test_mixture_density_normalizes():
    rng = np.random.default_rng(605)
    for n_comp in (2, 3):
        d_vars = int(rng.integers(2, 9))
        d = random_dataset(rng, 80, d_vars)
        m = learn_sem(d, n_comp, LearnerConfig(), rng, max_iters=3)
        total = np.exp(mixture_log_density_rows(m, enumerate_bits(d_vars))).sum()
        assert abs(total - 1.0) <= 1e-10


def test_mixture_sample_frequencies_match_density():
    # total-variation distance between the sampler and the density over
    # all 32 assignments of a 5-variable mixture
    rng = np.random.default_rng(606)
    comps = [random_net(rng, range(5), 3) for _ in range(3)]
    m = Mixture(comps, [0.2, 0.5, 0.3])
    n = 200_000
    x = _sample(m, n, rng)
    counts = np.bincount(x @ (1 << np.arange(4, -1, -1)), minlength=32)
    probs = np.exp(mixture_log_density_rows(m, enumerate_bits(5)))
    tv = 0.5 * np.abs(counts / n - probs).sum()
    assert tv < 0.05


# ---------------------------------------------------------------------------
# E step

def test_e_step_single_component_all_ones():
    rng = np.random.default_rng(606)
    d = random_dataset(rng, 20, 3)
    m = Mixture([learn_cnet(d, LearnerConfig())], [1.0])
    gamma = e_step(m, d)
    assert np.array_equal(gamma, np.ones((20, 1)))


def test_e_step_identical_components_split_evenly():
    rng = np.random.default_rng(607)
    d = random_dataset(rng, 20, 3)
    net = learn_cnet(d, LearnerConfig())
    m = Mixture([net, net], [0.5, 0.5])
    gamma = e_step(m, d)
    assert np.allclose(gamma, 0.5, atol=1e-12)


def test_e_step_matches_bayes_rule():
    a = _single_net([[0, 0], [0, 1]])
    b = _single_net([[1, 1], [1, 0]])
    m = Mixture([a, b], [0.25, 0.75])
    d = unit_dataset([[0, 0], [1, 1], [0, 1], [1, 0]])
    gamma = e_step(m, d)
    pa = np.exp(cnet_log_density_rows(a, d.samples))
    pb = np.exp(cnet_log_density_rows(b, d.samples))
    ref0 = 0.25 * pa / (0.25 * pa + 0.75 * pb)
    assert np.allclose(gamma[:, 0], ref0, atol=1e-12)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-10)


def test_e_step_zero_density_row_is_reported():
    # beta=0 on constant data yields a deterministic leaf, so the
    # opposite assignment has zero density under every component
    d_fit = unit_dataset([[0, 0], [0, 0]])
    net = CutsetNetwork(Leaf(learn_clt(d_fit, 0.0)), d_fit.variable_ids.copy())
    m = Mixture([net], [1.0])
    bad = unit_dataset([[0, 0], [1, 1]])
    with pytest.raises(DatasetError, match="row 1"):
        e_step(m, bad)


def test_e_step_scope_mismatch():
    net = _single_net([[0, 1], [1, 0]])
    m = Mixture([net], [1.0])
    with pytest.raises(DatasetError):
        e_step(m, unit_dataset([[0, 1, 1]]))


# ---------------------------------------------------------------------------
# M step

def test_m_step_weights_are_responsibility_masses():
    rng = np.random.default_rng(608)
    d = random_dataset(rng, 12, 3)
    gamma = np.zeros((12, 2))
    gamma[:, 0] = 1.0
    m = m_step(d, gamma, LearnerConfig())
    assert np.array_equal(m.mix_weights, [1.0, 0.0])
    # the starved component was refit on a single row, not dropped
    assert m.n_components == 2
    m.components[1].validate()


def test_m_step_restarts_a_component_whose_weights_round_to_zero():
    # 1e-12 of a unit row is below half the weight grid's step 2^-32
    rng = np.random.default_rng(612)
    d = random_dataset(rng, 12, 3)
    gamma = np.column_stack([np.full(12, 1 - 1e-12), np.full(12, 1e-12)])
    m = m_step(d, gamma, LearnerConfig())
    assert np.array_equal(m.mix_weights, [1.0, 0.0])
    # every row is equally ambiguous, so the restart takes the first
    restart = learn_cnet(WeightedDataset(d.samples[:1], np.ones(1)), LearnerConfig())
    cfg = ScoreConfig()
    got = json.dumps(model_to_dict(m.components[1], cfg), sort_keys=True)
    assert got == json.dumps(model_to_dict(restart, cfg), sort_keys=True)


def test_m_step_uniform_responsibilities_tie_components():
    rng = np.random.default_rng(609)
    d = random_dataset(rng, 30, 4)
    gamma = np.full((30, 2), 0.5)
    m = m_step(d, gamma, LearnerConfig())
    cfg = ScoreConfig()
    a = json.dumps(model_to_dict(m.components[0], cfg), sort_keys=True)
    b = json.dumps(model_to_dict(m.components[1], cfg), sort_keys=True)
    assert a == b
    assert np.allclose(m.mix_weights, [0.5, 0.5], atol=1e-12)


def test_m_step_validation():
    rng = np.random.default_rng(610)
    d = random_dataset(rng, 10, 3)
    with pytest.raises(ValueError):
        m_step(d, np.ones((5, 2)), LearnerConfig())
    with pytest.raises(ValueError):
        m_step(d, np.full((10, 2), 0.7), LearnerConfig())
    bad = np.zeros((10, 2))
    bad[:, 0] = 1.2
    bad[:, 1] = -0.2
    with pytest.raises(ValueError):
        m_step(d, bad, LearnerConfig())
    # no weight, or weights so small that every component's share rounds
    # to zero on the grid, leave no component to fit
    for w in (0.0, 2.0**-32):
        tiny = d.with_weights(np.full(10, w))
        with pytest.raises(DatasetError, match="rounds to zero"):
            m_step(tiny, np.full((10, 2), 0.5), LearnerConfig())


# ---------------------------------------------------------------------------
# structural EM driver

def test_sem_one_component_equals_plain_learner():
    rng = np.random.default_rng(611)
    d = random_dataset(rng, 100, 5)
    cfg = LearnerConfig(score=ScoreConfig(kind=BD, alpha=0.1))
    m = learn_sem(d, 1, cfg, np.random.default_rng(0))
    net = learn_cnet(d, cfg)
    assert np.array_equal(m.mix_weights, [1.0])
    a = json.dumps(model_to_dict(m.components[0], cfg.score), sort_keys=True)
    b = json.dumps(model_to_dict(net, cfg.score), sort_keys=True)
    assert a == b


def test_sem_never_worse_than_initialization():
    rng = np.random.default_rng(612)
    x = regime_samples(rng, 400, 6)
    d = unit_dataset(x)
    cfg = LearnerConfig()

    def train_ll(m):
        return float(
            d.weights @ mixture_log_density_rows(m, d.samples)
        ) / d.total_weight

    final = learn_sem(d, 3, cfg, np.random.default_rng(42))
    clusters = kmeans_init(d, 3, np.random.default_rng(42))
    comps = [learn_cnet(c, cfg) for c in clusters]
    mass = np.array([c.total_weight for c in clusters])
    init = Mixture(comps, mass / mass.sum())
    assert train_ll(final) >= train_ll(init) - 1e-12


def test_sem_multiple_components_help_on_regime_data():
    rng = np.random.default_rng(613)
    x = regime_samples(rng, 600, 6)
    d = unit_dataset(x)
    cfg = LearnerConfig()

    single = learn_cnet(d, cfg)
    single_ll = float(d.weights @ cnet_log_density_rows(single, d.samples))
    m = learn_sem(d, 2, cfg, np.random.default_rng(1))
    mix_ll = float(d.weights @ mixture_log_density_rows(m, d.samples))
    assert mix_ll >= single_ll


def test_sem_responsibilities_stay_normalized_through_iterations():
    rng = np.random.default_rng(614)
    d = unit_dataset(regime_samples(rng, 200, 6))
    m = learn_sem(d, 2, LearnerConfig(), np.random.default_rng(3), max_iters=4)
    gamma = e_step(m, d)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-10)
    assert gamma.shape == (200, 2)
