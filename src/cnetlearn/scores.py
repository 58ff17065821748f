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
    _bd_scores,
    _family_tables,
    _ll_scores,
    _smoothed,
    _stacked,
    _structures,
    clt_param_count,
    learn_clt,  # noqa: F401  kept bound here: benchmarks/test_bench.py wraps it
)
from .data import DatasetError, WeightedDataset, _check_scope, _cut_grams, restrict
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


def structure_param_count(net) -> int:
    """Independent parameters of a cutset network: one per decision node
    plus 2d - 1 per leaf over d variables."""

    return sum(
        1 if node.kind == "decision" else clt_param_count(node.tree)
        for node, _ in cnet.walk(net.root)
    )


def _branch_term(counts: SumNodeCounts, cfg: ScoreConfig) -> float:
    """A decision node's own term of the configured score: the BD score
    of its branch counts, or their log-likelihood n0 log w0 + n1 log w1
    at the smoothed ML weights (an empty branch adds 0)."""
    if cfg.kind == BD:
        return bd_sum_node(counts, cfg.alpha)
    n = (counts.n0, counts.n1)
    w = _smoothed(np.array(n), cfg.beta).tolist()
    return sum((nk * math.log(wk) for nk, wk in zip(n, w) if nk > 0), 0.0)


def _leaf_scores(stack: tuple, parents: np.ndarray, cfg: ScoreConfig) -> np.ndarray:
    """Own terms of the configured score of m leaves with (m, d) parents,
    from the stacked Gram counts of their data (see clt._stacked): each
    leaf's BD score, or its log-likelihood at the ML CPTs with the BIC
    smoothing."""
    tables = _family_tables(*stack, parents)
    if cfg.kind == BD:
        return _bd_scores(tables, cfg.alpha)
    return _ll_scores(tables, cfg.beta)


def _leaf_score(leaf: ChowLiuTree, d_leaf: WeightedDataset, cfg: ScoreConfig) -> float:
    """One leaf's own term of the configured score; see _leaf_scores."""
    _check_scope(leaf.variable_ids, d_leaf, "tree")
    return float(_leaf_scores(_stacked([d_leaf.gram_counts()]), leaf.parents[None], cfg)[0])


def _penalty(n_params: int, cfg: ScoreConfig) -> float:
    """Price of `n_params` independent parameters: log|D|/2 each under
    BIC, nothing under BD (its priors already pay for them)."""
    if cfg.kind == BD:
        return 0.0
    return 0.5 * math.log(cfg.root_dataset_size) * n_params


def _cnet_score(net, d: WeightedDataset, cfg: ScoreConfig) -> float:
    """Configured score of a whole structure: the sum of every node's own
    term over the data routed to it, minus the penalty."""
    _check_scope(net.variable_ids, d, "network")

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
    """One scored conditioning candidate: the score delta, the branch
    counts, and the structure (parents, order) and Gram counts of each
    child, taken on the leaf's own rows.  Nothing is built for it: the
    learner copies out a child's rows and fits its CPTs only once the
    cut is accepted (see cnet.learn_cnet)."""

    var: int
    delta: float
    counts: SumNodeCounts
    child_structures: tuple
    child_grams: tuple


# at most this many Gram cells (children x vars^2) are learned in one
# stack, which bounds its temporaries at high dimension
_STACK_CELLS = 1 << 18


def evaluate_cut(
    leaf: ChowLiuTree, d_leaf: WeightedDataset, var, cfg: ScoreConfig
) -> CutCandidate:
    """Score change of replacing `leaf` by a decision node on `var` with
    two freshly learned Chow-Liu children.

    `var` may also be a list of candidate variables.  Then the children
    of all the cuts are learned together, and the best cut is returned,
    the first in list order on a tie.  Only scores are computed: no
    child's rows are copied out and no CPT is fit."""
    variables = [var] if np.ndim(var) == 0 else list(var)
    if leaf.n_vars < 2:
        raise DatasetError("cannot cut a leaf with fewer than two variables")
    if not variables:
        raise DatasetError("no variable to cut on")
    for v in variables:
        if v not in leaf.variable_ids:
            raise DatasetError(f"variable {v} not in leaf scope")
    leaf_score = _leaf_score(leaf, d_leaf, cfg)
    return max(_scored_cuts(d_leaf, variables, cfg, leaf_score), key=lambda c: c.delta)


def _scored_cuts(d_leaf: WeightedDataset, variables: list, cfg: ScoreConfig, leaf_score: float):
    """Yield the CutCandidate of each variable in turn.

    The children of many cuts are counted on the leaf's own rows (see
    data._cut_grams) and learned and scored as one stack; no child's
    rows are kept."""
    dvars = d_leaf.n_vars - 1
    step = max(1, _STACK_CELLS // (2 * dvars * dvars))
    for lo in range(0, len(variables), step):
        cuts = variables[lo : lo + step]
        stack = _cut_grams(d_leaf, np.array([d_leaf.column(v) for v in cuts]))
        parents, order = _structures(stack)
        scores = _leaf_scores(stack, parents, cfg).tolist()
        totals = stack[0].tolist()
        for i, var in enumerate(cuts):
            pair = (2 * i, 2 * i + 1)
            counts = SumNodeCounts(totals[2 * i], totals[2 * i + 1])
            delta = (
                _branch_term(counts, cfg)
                + scores[2 * i]
                + scores[2 * i + 1]
                - leaf_score
                - _penalty(2 * d_leaf.n_vars - 4, cfg)
            )
            # copies, so that an accepted child holds its own counts only
            grams = tuple((totals[j], stack[1][j].copy(), stack[2][j].copy()) for j in pair)
            structures = tuple((parents[j], order[j]) for j in pair)
            yield CutCandidate(var, float(delta), counts, structures, grams)
