"""Cutset networks: decision trees over variables with Chow-Liu leaves.

A cutset network routes each sample down a binary decision tree.  Every
internal node conditions on one variable, weights its two branches, and
removes that variable from the child scopes; each leaf holds a Chow-Liu
tree over the variables that remain.  The density of a sample is the
product of the branch weights along its path times the leaf density.

The learner is greedy: at every leaf it ranks conditioning candidates by
information gain, evaluates the top few by the exact local change of the
configured structure score, and keeps cutting while the best change is
positive.  No other stopping rule exists; the score penalties are what
end the recursion.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .clt import (
    ChowLiuTree,
    _check_distributions,
    clt_log_density_rows,
    clt_mpe,
    clt_sample,
    learn_clt,
)
from .data import DatasetError, WeightedDataset, _check_cells
from .scores import BIC, CutCandidate, ScoreConfig, evaluate_cut

__all__ = [
    "Leaf",
    "DecisionNode",
    "CutsetNetwork",
    "LearnerConfig",
    "information_gain",
    "select_best_candidates",
    "select_best_cut",
    "learn_cnet",
    "cnet_log_density_rows",
    "cnet_sample",
    "cnet_mpe",
    "walk",
]


@dataclass(eq=False)
class Leaf:
    """Terminal node: a Chow-Liu tree over the remaining scope."""

    tree: ChowLiuTree
    kind = "leaf"


@dataclass(eq=False)
class DecisionNode:
    """Conditions on one variable (global id); weights sum to one and the
    conditioned variable is absent from both child scopes."""

    var: int
    weights: np.ndarray
    children: list
    kind = "decision"


def walk(root, item=None, route=None):
    """Yield (node, item) for every node under `root` in preorder, child 0's
    subtree before child 1's.  The stack is explicit, so depth is
    unbounded.  `route(node, item, k)` gives child k's item, and None
    skips that subtree; without `route` every node gets `item`.
    `route` is asked for a node's children only once the caller has
    handled the node, so it may read what the caller wrote there:
    `cnet_sample` and `cnet_mpe` route rows on the branch values they
    have just written.
    Bottom-up callers iterate `reversed(list(walk(...)))`."""
    stack = [(root, item)]
    while stack:
        node, item = stack.pop()
        yield node, item
        if node.kind == "decision":
            for k in reversed(range(len(node.children))):
                sub = item if route is None else route(node, item, k)
                if route is None or sub is not None:
                    stack.append((node.children[k], sub))


@dataclass(eq=False)
class CutsetNetwork:
    root: object
    variable_ids: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.variable_ids)

    def column_of(self, var: int) -> int:
        pos = int(np.searchsorted(self.variable_ids, var))
        if pos >= self.n_vars or self.variable_ids[pos] != var:
            raise DatasetError(f"variable {var} not in network scope")
        return pos

    def validate(self) -> None:
        """Raise DatasetError unless the ids ascend, every decision node has
        two children and two weights and cuts a variable of its scope, every
        leaf tree is well formed over exactly the scope its path leaves, and
        every CPT row and decision weight pair is a distribution."""
        ids = self.variable_ids
        if ids.ndim != 1 or np.any(np.diff(ids) <= 0):
            raise DatasetError("network variable ids must be distinct and ascending")
        rows = []
        for node, scope in walk(self.root, ids, lambda n, s, k: s[s != n.var]):
            if node.kind == "leaf":
                if node.tree.variable_ids.tolist() != scope.tolist():
                    raise DatasetError("a leaf must cover the scope its path leaves")
                node.tree._check_structure()
                rows.extend(node.tree.cpt)
                continue
            if len(node.children) != 2 or np.shape(node.weights) != (2,):
                raise DatasetError("a decision node needs two children and two weights")
            if node.var not in scope.tolist():
                raise DatasetError(f"decision variable {node.var} is not in its scope")
            rows.append(node.weights[None, :])
        _check_distributions(np.concatenate(rows))


@dataclass
class LearnerConfig:
    """Greedy-learner knobs: the structure score and the number of
    highest-gain candidates evaluated exactly at each leaf."""

    score: ScoreConfig = field(default_factory=ScoreConfig)
    lam: int = 10

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError("lam must be at least 1")


def _xlogx(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    m = c > 0
    out[m] = c[m] * np.log(c[m])
    return out


def _information_gains(d: WeightedDataset) -> np.ndarray:
    """information_gain of every column, in one pass over the Gram counts.

    For a split on v the part with x_v = 1 weighs n1[v] and holds
    n11[v, u] ones of column u; the part with x_v = 0 holds the rest.
    """
    if d.total_weight <= 0:
        raise DatasetError("information gain of a zero-weight dataset")
    total, n1, n11 = d.gram_counts()

    def mean_entropy(part, ones):
        # column-averaged weighted binary entropy (nats) of each part
        h = np.log(part) - (_xlogx(part - ones) + _xlogx(ones)) / part
        return h.mean(axis=-1)

    gain = np.full(d.n_vars, mean_entropy(total, n1))
    for part, ones in ((total - n1, n1 - n11), (n1, n11)):
        live = part > 0
        gain[live] -= (part[live] / total) * mean_entropy(part[live, None], ones[live])
    gain[d.samples.min(axis=0) == d.samples.max(axis=0)] = 0.0
    return gain


def information_gain(d: WeightedDataset, var: int) -> float:
    """Drop in the column-averaged entropy when the rows are split on
    `var`.  The split keeps every column (including `var`, which is then
    constant in each part), so a constant variable scores exactly zero.
    """
    if d.n_vars < 2:
        raise DatasetError("information gain needs at least two variables")
    col = d.column(var)
    return float(_information_gains(d)[col])


def select_best_candidates(d: WeightedDataset, lam: int) -> list:
    """Top-lam variables by information gain; ties broken toward the
    lower variable id."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    if d.n_vars < 2:
        raise DatasetError("candidate selection needs at least two variables")
    ranked = np.lexsort((d.variable_ids, -_information_gains(d)))
    return d.variable_ids[ranked[:lam]].tolist()


def select_best_cut(
    leaf_tree: ChowLiuTree,
    d_leaf: WeightedDataset,
    candidates: list,
    score: ScoreConfig,
) -> CutCandidate | None:
    """Best candidate cut of the leaf `leaf_tree` over `d_leaf`, or None
    when no candidate improves the score.  Ties go to the lowest
    variable id."""
    if not candidates:
        return None
    best = evaluate_cut(leaf_tree, d_leaf, sorted(candidates), score)
    return best if best.delta > 0 else None


def learn_cnet(
    d: WeightedDataset, cfg: LearnerConfig, trace: list | None = None
) -> CutsetNetwork:
    """Greedy top-down learner.

    When `trace` is a list, one record per accepted cut is appended:
    {"var", "delta", "n0", "n1", "depth"}.  The BIC penalty base is
    pinned to the entry dataset's total weight for the whole learn.
    """
    if not d.total_weight > 0:
        raise DatasetError("cannot learn from a zero-weight dataset")
    score = cfg.score
    if score.kind == BIC:
        score = dataclasses.replace(score, root_dataset_size=d.total_weight)

    root = [None]
    # pending (data, tree, depth, slot): the node built from it goes to
    # slot = (list, index); child 0 pops first, as in a recursion
    pending = [(d, learn_clt(d, score.fit_beta), 0, (root, 0))]
    while pending:
        dsub, tree, depth, (kids, k) = pending.pop()
        cut = None
        if dsub.n_vars >= 2 and dsub.total_weight > 0:
            cands = select_best_candidates(dsub, cfg.lam)
            cut = select_best_cut(tree, dsub, cands, score)
        if cut is None:
            kids[k] = Leaf(tree)
            continue
        n0, n1, h = cut.counts.n0, cut.counts.n1, score.fit_beta
        if trace is not None:
            trace.append(dict(var=cut.var, delta=cut.delta, n0=n0, n1=n1, depth=depth))
        denom = n0 + n1 + 2 * h
        weights = np.array([(n0 + h) / denom, (n1 + h) / denom])
        kids[k] = DecisionNode(cut.var, weights, [None, None])
        for b in (1, 0):
            slot = (kids[k].children, b)
            pending.append((cut.child_data[b], cut.child_trees[b], depth + 1, slot))

    return CutsetNetwork(root[0], d.variable_ids.copy())


def _router(net: CutsetNetwork, x: np.ndarray):
    """`walk` route that sends each row of `x` down every branch its cell
    of the cut variable allows: the branch the cell holds, or both for a
    free cell (-1).  A branch that no row takes is skipped."""

    def route(node, idx, k):
        sub = idx[x[idx, net.column_of(node.var)] != 1 - k]
        return sub if sub.size else None

    return route


def _log_weight(node, k: int) -> float:
    w = float(node.weights[k])
    return math.log(w) if w > 0 else -math.inf


def cnet_log_density_rows(net: CutsetNetwork, x: np.ndarray) -> np.ndarray:
    """Per-row log density of full assignments given in scope order."""
    x = _check_cells(x, net.n_vars)
    ll = np.zeros(x.shape[0])
    by_value = _router(net, x)

    def route(node, idx, k):
        sub = by_value(node, idx, k)
        if sub is not None:
            ll[sub] += _log_weight(node, k)
        return sub

    for node, idx in walk(net.root, np.arange(x.shape[0]), route):
        if node.kind == "leaf" and idx.size:
            cols = np.searchsorted(net.variable_ids, node.tree.variable_ids)
            ll[idx] += clt_log_density_rows(node.tree, x[idx], columns=cols)
    return ll


def cnet_sample(net: CutsetNetwork, n: int, rng: np.random.Generator) -> np.ndarray:
    """n ancestral samples, one row each in scope order.  Each decision
    node draws its variable for the rows that reach it, which then go down
    the branch drawn; each leaf's tree draws the rest of its rows."""
    out = np.zeros((n, net.n_vars), dtype=np.uint8)
    for node, idx in walk(net.root, np.arange(n), _router(net, out)):
        if node.kind == "decision":
            out[idx, net.column_of(node.var)] = rng.random(idx.size) < node.weights[1]
        else:
            cols = np.searchsorted(net.variable_ids, node.tree.variable_ids)
            out[np.ix_(idx, cols)] = clt_sample(node.tree, idx.size, rng)
    return out


def cnet_mpe(net: CutsetNetwork, evidence: np.ndarray) -> tuple:
    """Most probable completion of each evidence row.

    `evidence` is an (n, n_vars) matrix in scope order whose cells are
    0, 1, or -1 for a free variable.  Bottom-up, each node gets the rows
    whose evidence allows its path and keeps their best score: an
    observed cut takes the observed branch, a free cut the branch whose
    log weight plus best score is higher, branch 0 on a tie.  Top-down,
    each row follows its chosen branches to a leaf's tree MPE.  Returns
    (the (n, n_vars) completions, their log densities); the scores are
    recomputed by the density evaluator, so each pair is exactly
    self-consistent.
    """
    ev = _check_cells(evidence, net.n_vars, cells=(-1, 0, 1))
    # best[id(node)] = (its rows, per row the leaf completion or the
    # branch taken, per row the best log score of the node's subtree)
    best = {}
    rows = np.arange(ev.shape[0])
    for node, idx in reversed(list(walk(net.root, rows, _router(net, ev)))):
        if node.kind == "leaf":
            cols = np.searchsorted(net.variable_ids, node.tree.variable_ids)
            values, score = clt_mpe(node.tree, ev[np.ix_(idx, cols)])
            best[id(node)] = (idx, values, score)
            continue
        obs = ev[idx, net.column_of(node.var)]
        total = np.full((2, idx.size), -math.inf)
        for k in (0, 1):
            reach = obs != 1 - k
            if reach.any():
                total[k, reach] = _log_weight(node, k) + best[id(node.children[k])][2]
        branch = np.where(obs < 0, total[1] > total[0], obs == 1)
        best[id(node)] = (idx, branch, np.where(branch, total[1], total[0]))

    out = np.zeros(ev.shape, dtype=np.uint8)
    for node, idx in walk(net.root, rows, _router(net, out)):
        reached, chosen, _ = best[id(node)]
        chosen = chosen[np.searchsorted(reached, idx)]
        if node.kind == "decision":
            out[idx, net.column_of(node.var)] = chosen
        else:
            cols = np.searchsorted(net.variable_ids, node.tree.variable_ids)
            out[np.ix_(idx, cols)] = chosen
    return out, cnet_log_density_rows(net, out)
