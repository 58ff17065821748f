"""Mixtures of cutset networks, trained by structural EM.

Each EM iteration relearns every component's structure from scratch on
the fractionally reweighted data (weights times responsibilities), so
structure and parameters move together.  The loop keeps the best
iterate by training log-likelihood, including the k-means-initialized
starting model.
"""

from __future__ import annotations

import numpy as np

from .clt import _check_distributions
from .cnet import LearnerConfig, cnet_log_density_rows, learn_cnet
from .data import DatasetError, WeightedDataset, _check_scope
from .numerics import log_sum_exp_rows, weighted_sum

__all__ = [
    "Mixture",
    "kmeans_init",
    "e_step",
    "m_step",
    "learn_sem",
    "mixture_log_density_rows",
    "log_density_rows",
    "mean_log_likelihood",
]


class Mixture:
    """Convex combination of cutset networks over a shared scope."""

    def __init__(self, components: list, mix_weights) -> None:
        if not components:
            raise ValueError("a mixture needs at least one component")
        w = np.asarray(mix_weights, dtype=np.float64)
        if w.shape != (len(components),):
            raise ValueError("one mixture weight per component required")
        _check_distributions(w[None, :])
        ids = components[0].variable_ids
        for c in components[1:]:
            if not np.array_equal(c.variable_ids, ids):
                raise ValueError("components must share one variable scope")
        self.components = list(components)
        self.mix_weights = w

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def variable_ids(self) -> np.ndarray:
        return self.components[0].variable_ids

    @property
    def n_vars(self) -> int:
        return len(self.variable_ids)


def _component_log_matrix(m: Mixture, x: np.ndarray) -> np.ndarray:
    """(K, n) matrix of log a_k + log p_k(row)."""
    with np.errstate(divide="ignore"):
        logw = np.log(m.mix_weights)
    return np.stack(
        [logw[k] + cnet_log_density_rows(c, x) for k, c in enumerate(m.components)]
    )


def mixture_log_density_rows(m: Mixture, x: np.ndarray) -> np.ndarray:
    """Per-row log density of full assignments in scope order."""
    return log_sum_exp_rows(_component_log_matrix(m, np.asarray(x)))


def _pairwise_sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # expansion avoids the (n, K, d) broadcast intermediate
    xx = (x * x).sum(axis=1)[:, None]
    cc = (centers * centers).sum(axis=1)[None, :]
    return np.maximum(xx - 2.0 * (x @ centers.T) + cc, 0.0)


def kmeans_init(d: WeightedDataset, n_clusters: int, rng: np.random.Generator) -> list:
    """Weighted k-means partition of the rows into `n_clusters` parts.

    Seeding is k-means++ over the distinct rows (selection probability
    proportional to aggregated weight times squared distance to the
    nearest chosen seed); Lloyd iterations use weighted centroids and
    stop after 100 rounds or when no centroid moves by 1e-6.  With fewer
    distinct rows than clusters, rows are dealt out round-robin instead.
    Every returned part carries positive weight.
    """
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if not d.total_weight > 0:
        raise DatasetError("cannot cluster a zero-weight dataset")
    n_pos = int((d.weights > 0).sum())
    if n_clusters > n_pos:
        raise DatasetError(
            f"{n_clusters} clusters need at least as many positive-weight rows"
        )

    x = d.samples.astype(np.float64)
    uniq, inverse = np.unique(d.samples, axis=0, return_inverse=True)
    if len(uniq) < n_clusters:
        assign = np.arange(d.n_rows) % n_clusters
    else:
        uw = np.zeros(len(uniq))
        np.add.at(uw, inverse, d.weights)
        centers = np.empty((n_clusters, d.n_vars))
        chosen: set = set()
        p = uw.copy()
        best_d2 = None
        for k in range(n_clusters):
            mass = p.sum()
            if mass > 0:
                idx = int(rng.choice(len(uniq), p=p / mass))
            else:  # remaining mass is zero: take the first unchosen row
                idx = next(i for i in range(len(uniq)) if i not in chosen)
            chosen.add(idx)
            centers[k] = uniq[idx]
            d2 = ((uniq - centers[k]) ** 2).sum(axis=1)
            best_d2 = d2 if best_d2 is None else np.minimum(best_d2, d2)
            p = uw * best_d2

        for _ in range(100):
            assign = _pairwise_sq_dists(x, centers).argmin(axis=1)
            new_centers = centers.copy()
            for k in range(n_clusters):
                wk = d.weights[assign == k]
                if wk.sum() > 0:
                    new_centers[k] = (wk @ x[assign == k]) / wk.sum()
            move = float(np.abs(new_centers - centers).max())
            centers = new_centers
            if move < 1e-6:
                break
        assign = _pairwise_sq_dists(x, centers).argmin(axis=1)

    # every part must keep positive weight for the learners downstream;
    # top up starved parts from the one holding the most live rows
    live = d.weights > 0
    counts = np.bincount(assign[live], minlength=n_clusters)
    for k in range(n_clusters):
        while counts[k] == 0:
            donor = int(counts.argmax())
            rows = np.flatnonzero(live & (assign == donor))
            assign[rows[-1]] = k
            counts[k] += 1
            counts[donor] -= 1

    return [
        WeightedDataset(
            d.samples[assign == k].copy(),
            d.weights[assign == k].copy(),
            d.variable_ids.copy(),
        )
        for k in range(n_clusters)
    ]


def e_step(m: Mixture, d: WeightedDataset) -> np.ndarray:
    """Responsibility matrix (n_rows, K); rows sum to one."""
    _check_scope(m.variable_ids, d, "mixture")
    logm = _component_log_matrix(m, d.samples)
    lse = log_sum_exp_rows(logm)
    dead = np.flatnonzero(lse == -np.inf)
    if dead.size:
        raise DatasetError(
            f"row {int(dead[0])} has zero density under every component"
        )
    gamma = np.exp(logm - lse).T
    return gamma / gamma.sum(axis=1, keepdims=True)


def _row_entropies(gamma: np.ndarray) -> np.ndarray:
    g = np.where(gamma > 0, gamma, 1.0)  # 0 log 0 = 0
    return -(gamma * np.log(g)).sum(axis=1)


def m_step(d: WeightedDataset, gamma: np.ndarray, cfg: LearnerConfig) -> Mixture:
    """Relearn every component on responsibility-weighted data; mixture
    weights become the responsibility masses.

    A component whose responsibility mass is zero on the weight grid
    (see WeightedDataset) is restarted on the single most ambiguous row
    (highest responsibility entropy) with unit weight; its mixture weight
    stays zero.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 2 or gamma.shape[0] != d.n_rows:
        raise ValueError("responsibility matrix shape mismatch")
    if np.any(gamma < 0) or np.any(np.abs(gamma.sum(axis=1) - 1.0) > 1e-8):
        raise ValueError("responsibility rows must sum to one")

    parts = [d.with_weights(d.weights * g) for g in gamma.T]
    mass = np.array([dk.total_weight for dk in parts])
    if not mass.sum() > 0:
        raise DatasetError("cannot fit a mixture: every component's weight rounds to zero")
    components = []
    for dk in parts:
        if not dk.total_weight > 0:
            r = int(np.argmax(_row_entropies(gamma)))
            dk = WeightedDataset(
                d.samples[r : r + 1].copy(),
                np.array([1.0]),
                d.variable_ids.copy(),
            )
        components.append(learn_cnet(dk, cfg))
    return Mixture(components, mass / mass.sum())


def log_density_rows(model, x: np.ndarray) -> np.ndarray:
    """Per-row log density under a mixture or a single cutset network."""
    if isinstance(model, Mixture):
        return mixture_log_density_rows(model, x)
    return cnet_log_density_rows(model, x)


def mean_log_likelihood(model, d: WeightedDataset) -> float:
    """Weighted log-likelihood of `d` per unit weight; zero-weight rows
    are skipped, so a row of zero density only counts when it has weight."""
    # exactly rounded, so EM's stopping test, which reads it, does not
    # depend on the BLAS thread count
    return weighted_sum(d.weights, log_density_rows(model, d.samples)) / d.total_weight


def learn_sem(
    d: WeightedDataset,
    n_components: int,
    cfg: LearnerConfig,
    rng: np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-4,
) -> Mixture:
    """Structural EM: k-means initialization, then alternate
    responsibilities (E) and per-component structure relearning (M).

    Stops after `max_iters` iterations or when the train log-likelihood
    improves by less than `tol` nats per sample; returns the best
    iterate seen, which with one component equals the plain learner's
    output exactly.
    """
    clusters = kmeans_init(d, n_components, rng)
    components = [learn_cnet(c, cfg) for c in clusters]
    mass = np.array([c.total_weight for c in clusters])
    model = Mixture(components, mass / mass.sum())

    best_model, best_ll = model, mean_log_likelihood(model, d)
    prev_ll = best_ll
    for _ in range(max_iters):
        gamma = e_step(model, d)
        model = m_step(d, gamma, cfg)
        ll = mean_log_likelihood(model, d)
        if ll > best_ll:
            best_model, best_ll = model, ll
        if ll - prev_ll < tol:
            break
        prev_ll = ll
    return best_model
