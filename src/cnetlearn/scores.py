"""Structure scores for cutset networks.

Two scores drive the greedy learner:

* the Bayes-Dirichlet (BD) score -- the exact log marginal likelihood of
  a structure with Dirichlet priors on every decision weight pair and
  every CPT row, computed in closed form via log-Gamma terms; and
* a corrected BIC score -- smoothed maximum-likelihood fit minus
  (log N / 2) times the number of independent parameters, counting both
  the decision weights and the Chow-Liu-tree CPT entries.

Both scores decompose over nodes, so the effect of replacing one leaf by
a decision node is a purely local delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cnet  # cnet imports this module; walk is read at call time
from .clt import (
    ChowLiuTree,
    _fit_cpts,
    clt_bd_score,
    clt_log_likelihood,
    clt_param_count,
    learn_clt,
)
from .data import WeightedDataset, DatasetError, restrict
from .numerics import log_beta

__all__ = [
    "ScoreConfig",
    "SumNodeCounts",
    "bd_sum_node",
    "bd_cnet",
    "bic_cnet",
    "evaluate_cut",
    "CutCandidate",
    "structure_param_count",
]

BD = "bd"
BIC = "bic"


@dataclass
class ScoreConfig:
    """Which structure score to use, and its (few) constants.

    alpha is the equivalent sample size of the BD score's Dirichlet
    priors; beta the Laplace smoothing of the BIC fit;
    root_dataset_size the penalty base |D| of BIC, which is always the
    full training-set weight, never a local sub-dataset size.
    """

    kind: str = BD
    alpha: float = 0.1
    beta: float = 0.01
    root_dataset_size: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (BD, BIC):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.kind == BD and not self.alpha > 0:
            raise ValueError("BD score needs alpha > 0")
        if self.kind == BIC:
            if self.beta < 0:
                raise ValueError("beta must be nonnegative")
            if not self.root_dataset_size > 0:
                raise ValueError("root_dataset_size must be positive")

    @property
    def fit_beta(self) -> float:
        """Smoothing used when fitting parameters under this score: the
        Dirichlet posterior mean for BD, plain Laplace beta for BIC."""
        return self.alpha / 2.0 if self.kind == BD else self.beta


@dataclass
class SumNodeCounts:
    """Weighted counts routed to the two branches of one decision node."""

    n0: float
    n1: float

    def __post_init__(self) -> None:
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError("branch counts must be nonnegative")

    @property
    def total(self) -> float:
        return self.n0 + self.n1


def bd_sum_node(counts: SumNodeCounts, alpha: float) -> float:
    """Log marginal likelihood of one decision node's branch counts under
    a Dirichlet(alpha/2, alpha/2) prior on its weight pair."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return log_beta(alpha / 2 + counts.n0, alpha / 2 + counts.n1) - log_beta(
        alpha / 2, alpha / 2
    )


def _check_net_scope(net, d: WeightedDataset) -> None:
    if len(net.variable_ids) != d.n_vars or np.any(net.variable_ids != d.variable_ids):
        raise DatasetError("dataset variables do not match the network scope")


def structure_param_count(net) -> int:
    """Independent parameters of a cutset network: one per decision node
    plus 2d - 1 per leaf over d variables."""

    return sum(
        1 if node.kind == "decision" else clt_param_count(node.tree)
        for node, _ in cnet.walk(net.root)
    )


def _refit_tree(tree: ChowLiuTree, dsub: WeightedDataset, beta: float) -> ChowLiuTree:
    if tree.n_vars != dsub.n_vars or np.any(tree.variable_ids != dsub.variable_ids):
        raise DatasetError("dataset variables do not match the leaf scope")
    cpts = _fit_cpts(dsub, tree.parents, beta)
    return ChowLiuTree(tree.variable_ids, tree.parents, tree.order, cpts)


def _branch_term(counts: SumNodeCounts, cfg: ScoreConfig) -> float:
    """A decision node's own term of the configured score: the BD score
    of its branch counts, or their log-likelihood n0 log w0 + n1 log w1
    at the smoothed ML weights."""
    if cfg.kind == BD:
        return bd_sum_node(counts, cfg.alpha)
    ll = 0.0
    for nk in (counts.n0, counts.n1):
        if nk > 0:
            ll += nk * math.log((nk + cfg.beta) / (counts.total + 2 * cfg.beta))
    return ll


def _leaf_score(leaf: ChowLiuTree, d_leaf: WeightedDataset, cfg: ScoreConfig) -> float:
    """A leaf's own term of the configured score: its BD score, or its
    log-likelihood after a refit with the BIC smoothing."""
    if cfg.kind == BD:
        return clt_bd_score(leaf, d_leaf, cfg.alpha)
    return clt_log_likelihood(_refit_tree(leaf, d_leaf, cfg.beta), d_leaf)


def _penalty(n_params: int, cfg: ScoreConfig) -> float:
    """Price of `n_params` independent parameters: log|D|/2 each under
    BIC, nothing under BD (its priors already pay for them)."""
    if cfg.kind == BD:
        return 0.0
    return 0.5 * math.log(cfg.root_dataset_size) * n_params


def _cnet_score(net, d: WeightedDataset, cfg: ScoreConfig) -> float:
    """Configured score of a whole structure: the sum of every node's own
    term over the data routed to it, minus the penalty."""
    _check_net_scope(net, d)

    nodes = cnet.walk(net.root, d, lambda node, dsub, k: restrict(dsub, node.var, k))
    # bottom-up: done[id(node)] = (score of the subtree, its data's weight)
    done = {}
    for node, dsub in reversed(list(nodes)):
        if node.kind == "leaf":
            score = _leaf_score(node.tree, dsub, cfg)
        else:
            (s0, n0), (s1, n1) = (done[id(c)] for c in node.children)
            score = _branch_term(SumNodeCounts(n0, n1), cfg) + s0 + s1
        done[id(node)] = (score, dsub.total_weight)
    return done[id(net.root)][0] - _penalty(structure_param_count(net), cfg)


def bd_cnet(net, d: WeightedDataset, alpha: float) -> float:
    """Exact log marginal likelihood of a whole cutset-network structure:
    the sum of per-decision-node and per-leaf local scores over the data
    routed to each node."""
    return _cnet_score(net, d, ScoreConfig(kind=BD, alpha=alpha))


def bic_cnet(net, d: WeightedDataset, cfg: ScoreConfig) -> float:
    """Penalized log-likelihood of the structure: parameters are refit on
    `d` with Laplace smoothing cfg.beta, and every independent parameter
    (decision weights and CPT rows alike) pays log|D|/2."""
    if cfg.kind != BIC:
        raise ValueError("bic_cnet requires a BIC score config")
    return _cnet_score(net, d, cfg)


@dataclass
class CutCandidate:
    """One evaluated conditioning candidate: the score delta plus the
    child trees and routed datasets, kept so an accepted cut does not
    have to relearn anything."""

    var: int
    delta: float
    counts: SumNodeCounts
    child_trees: tuple
    child_data: tuple


def evaluate_cut(
    leaf: ChowLiuTree, d_leaf: WeightedDataset, var: int, cfg: ScoreConfig,
    leaf_score: float | None = None,
) -> CutCandidate:
    """Score change of replacing `leaf` by a decision node on `var` with
    two freshly learned Chow-Liu children.  A caller that evaluates many
    cuts of one leaf passes the leaf's own score term as `leaf_score`,
    so it is computed once."""
    if leaf.n_vars < 2:
        raise DatasetError("cannot cut a leaf with fewer than two variables")
    if var not in leaf.variable_ids:
        raise DatasetError(f"variable {var} not in leaf scope")
    if leaf_score is None:
        leaf_score = _leaf_score(leaf, d_leaf, cfg)
    d0 = restrict(d_leaf, var, 0)
    d1 = restrict(d_leaf, var, 1)
    counts = SumNodeCounts(d0.total_weight, d1.total_weight)
    t0 = learn_clt(d0, cfg.fit_beta)
    t1 = learn_clt(d1, cfg.fit_beta)
    delta = (
        _branch_term(counts, cfg)
        + _leaf_score(t0, d0, cfg)
        + _leaf_score(t1, d1, cfg)
        - leaf_score
        - _penalty(2 * leaf.n_vars - 4, cfg)
    )
    return CutCandidate(var, float(delta), counts, (t0, t1), (d0, d1))

