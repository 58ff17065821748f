"""Chow-Liu trees over binary variables.

A tree is learned as the maximum-weight spanning tree of the pairwise
mutual-information graph, rooted at the lowest variable index, with
Laplace-smoothed conditional probability tables.  These trees serve as
the leaf distributions of cutset networks but are usable on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DatasetError, WeightedDataset, _check_cells, _check_scope
from .numerics import weighted_sum

__all__ = [
    "ChowLiuTree",
    "mutual_information",
    "learn_clt",
    "clt_log_likelihood",
    "clt_log_density_rows",
    "clt_bd_score",
    "clt_sample",
    "clt_mpe",
    "clt_param_count",
]


@dataclass(eq=False)
class ChowLiuTree:
    """Directed tree with per-family conditional probability tables.

    variable_ids -- global ids of the scope, ascending
    parents      -- local parent index per variable, -1 for the root
    order        -- topological order of local indices, root first
    cpt          -- float64 (d, 2, 2) array, cpt[v, u, x] = P(X_v = x |
                    parent = u); the root reads row u = 0 as the child of
                    a parent that is always 0, and its row 1, never read,
                    holds (0.5, 0.5)
    """

    variable_ids: np.ndarray
    parents: np.ndarray
    order: np.ndarray
    cpt: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.variable_ids)

    @property
    def root(self) -> int:
        return int(self.order[0])

    def children(self) -> list:
        kids = [[] for _ in range(self.n_vars)]
        for v, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(v)
        return kids

    def validate(self) -> None:
        """Raise DatasetError unless the order lists every variable once,
        one root first and parents before children, the CPT is a (d, 2, 2)
        array and every one of its rows is a distribution."""
        d = self.n_vars
        if self.parents.shape != (d,) or self.order.shape != (d,):
            raise DatasetError("a tree needs a parent and an order entry per variable")
        parents, order = self.parents.tolist(), self.order.tolist()
        if sorted(order) != list(range(d)) or parents.count(-1) != 1:
            raise DatasetError("a tree order must list every variable once, one root")
        placed = {-1}  # so the first variable must be the root
        for v in order:
            if parents[v] not in placed:
                raise DatasetError("a tree order must place parents before children")
            placed.add(v)
        if self.cpt.shape != (d, 2, 2):
            raise DatasetError("a tree's CPT must be one (d, 2, 2) array")
        _check_distributions(self.cpt.reshape(-1, 2))


def _check_distributions(rows: np.ndarray) -> None:
    """Raise DatasetError unless every row of the (k, m) array lies in
    [0, 1] and sums to 1 within 1e-12."""
    in_range = np.all((rows >= 0.0) & (rows <= 1.0))
    if not (in_range and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)):
        raise DatasetError(
            "CPT rows, decision weights and mixture weights must lie in "
            "[0, 1] and sum to 1"
        )


def mutual_information(d: WeightedDataset, i: int, j: int) -> float:
    """Empirical mutual information (nats) between variables i and j,
    from raw weighted counts, clamped at 0: the value the tree learner
    uses for the pair, which it reads in ascending order."""
    if i == j:
        raise DatasetError("mutual information needs two distinct variables")
    if d.total_weight <= 0:
        raise DatasetError("mutual information of a zero-weight dataset")
    total, n1, n11 = d.gram_counts()
    pair = sorted((d.column(i), d.column(j)))
    return float(_mi_pairs(np.array([total]), n1[None, pair], n11[np.ix_(pair, pair)][None])[0, 0])


def _mi_pairs(total: np.ndarray, n1: np.ndarray, n11: np.ndarray) -> np.ndarray:
    """(m, E) mutual information of each of m datasets over d variables
    for its E = d(d - 1)/2 pairs i < j, in np.triu_indices order, from
    their Gram counts: total (m,), n1 (m, d) and n11 (m, d, d).  Zero for
    a zero-weight dataset.  The (a, b) cells of the pair tables are formed
    and used one at a time.  Counts are exact (see WeightedDataset), so
    no cell is negative."""
    iu, ju = np.triu_indices(n1.shape[1], 1)
    live = total > 0
    total = np.where(live, total, 1.0)[:, None]
    pi1 = n1 / total
    pi = (1.0 - pi1, pi1)  # pi[a][k, v]
    n1i, n1j, n11 = n1[:, iu], n1[:, ju], n11[:, iu, ju]
    cells = {
        (1, 1): lambda: n11,
        (1, 0): lambda: n1i - n11,
        (0, 1): lambda: n1j - n11,
        (0, 0): lambda: total - n1i - n1j + n11,
    }
    mi = np.zeros(n11.shape)
    for a in range(2):
        for b in range(2):
            pab = cells[a, b]() / total
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.log(pab)
                term -= np.log(pi[a][:, iu] * pi[b][:, ju])
                term *= pab
            term[pab == 0] = 0.0
            mi += term
    mi[~live] = 0.0
    return np.clip(mi, 0.0, None)


def _rooted_trees(mi: np.ndarray, dvars: int) -> tuple:
    """(parents, order), each (m, d), of the maximum spanning tree of the
    MI of each of m datasets over d variables, given as _mi_pairs gives
    it, rooted at 0 and ordered breadth first, each vertex's children
    ascending.

    Prim's algorithm grows every tree from vertex 0 at once.  It takes
    the crossing edge of highest MI, ties to the smaller pair index, and
    that is the strict order in which Kruskal takes the edges: by MI
    descending, ties to the lexicographically smaller pair.  So each
    tree is unique, and each vertex's parent is the tree end of the edge
    it joined by."""
    m = len(mi)
    rows = np.arange(m)
    iu, ju = np.triu_indices(dvars, 1)
    n_pairs = len(iu)
    pair = np.zeros((dvars, dvars), dtype=np.int64)  # pair index of (u, v)
    pair[iu, ju] = pair[ju, iu] = np.arange(n_pairs)
    flat, offset = np.ascontiguousarray(mi).ravel(), rows[:, None] * n_pairs
    # best MI joining each free vertex to the tree, -inf once it joins
    best = np.full((m, dvars), -1.0)
    best[:, 0] = -np.inf
    best_pair = np.zeros((m, dvars), dtype=np.int64)  # that edge's pair index
    via = np.zeros((m, dvars), dtype=np.int64)  # that edge's tree end
    depth = np.zeros((m, dvars), dtype=np.int64)
    free = np.isfinite(best)  # all but vertex 0
    v = np.zeros(m, dtype=np.int64)  # the vertex that joined last
    for _ in range(dvars - 1):
        edge = pair[v]
        gain = flat[edge + offset]
        closer = (gain > best) | ((gain == best) & (edge < best_pair))
        closer &= free
        np.copyto(best, gain, where=closer)
        np.copyto(best_pair, edge, where=closer)
        np.copyto(via, v[:, None], where=closer)
        top = best.max(axis=1, keepdims=True)
        v = np.where(best == top, best_pair, n_pairs).argmin(axis=1)
        free[rows, v] = False
        best[rows, v] = -np.inf
        depth[rows, v] = depth[rows, via[rows, v]] + 1
    parents = via
    parents[:, 0] = -1
    # breadth first, one level at a time: a level's vertices sort by
    # their parents' positions, then by index
    col = np.arange(dvars)
    pos = np.zeros((m, dvars), dtype=np.int64)
    placed = np.ones(m, dtype=np.int64)
    for level in range(1, depth.max(initial=0) + 1):
        at = depth == level
        key = np.where(at, pos[rows[:, None], parents] * dvars + col, dvars * dvars)
        ranked = np.argsort(key, axis=1)  # the level's vertices first
        n_at = at.sum(axis=1)
        k, j = np.nonzero(col < n_at[:, None])
        pos[k, ranked[k, j]] = placed[k] + j
        placed += n_at
    order = np.empty_like(pos)
    order[rows[:, None], pos] = col
    return parents, order


def _stacked(grams: list) -> tuple:
    """(total (m,), n1 (m, d), n11 (m, d, d)) of m datasets over the same
    number of variables, from their gram_counts()."""
    return (
        np.array([g[0] for g in grams]),
        np.stack([g[1] for g in grams]),
        np.stack([g[2] for g in grams]),
    )


def _structures(stack: tuple) -> tuple:
    """(parents, order), each (m, d), of the Chow-Liu tree of each
    dataset of a stack of Gram counts (see _stacked)."""
    return _rooted_trees(_mi_pairs(*stack), stack[1].shape[1])


def _family_tables(total: np.ndarray, n1: np.ndarray, n11: np.ndarray, parents) -> np.ndarray:
    """(m, d, 2, 2) family counts of m trees, read off the Gram counts of
    their datasets (see _stacked) with (m, d) parents: table[k, v, u, x]
    is the weight of rows with x_v = x and x_parent = u.  Counts are
    exact (see WeightedDataset), so each entry is that weight to the
    last bit.  A root reads as a child of a parent that is always 0, so
    its row 1 is all zero."""
    m, dvars = n1.shape
    k, v = np.arange(m)[:, None], np.arange(dvars)
    root = parents < 0
    n1p = np.where(root, 0.0, n1[k, parents])
    n11vp = np.where(root, 0.0, n11[k, v, parents])
    table = np.empty((m, dvars, 2, 2))
    table[:, :, 1, 1] = n11vp
    table[:, :, 1, 0] = n1p - n11vp
    table[:, :, 0, 1] = n1 - n11vp
    table[:, :, 0, 0] = total[:, None] - n1 - n1p + n11vp
    return table


def _smoothed(counts: np.ndarray, beta: float) -> np.ndarray:
    """The distribution (n_x + beta) / (n + 2 beta) of each (..., 2) row
    of counts n_x with sum n, or uniform where that denominator is 0:
    the maximum-likelihood fit with additive smoothing `beta`."""
    denom = counts[..., :1] + counts[..., 1:] + 2.0 * beta
    theta = (counts + beta) / np.where(denom > 0, denom, 1.0)
    theta[np.broadcast_to(denom <= 0, theta.shape)] = 0.5
    return theta


def _fit_cpts(d: WeightedDataset, parents: np.ndarray, beta: float) -> np.ndarray:
    """The (d, 2, 2) CPT smoothed by `beta` (see _smoothed) for a fixed
    tree structure over exactly the dataset's variables.  A root's row 1
    has no counts, so it comes out (0.5, 0.5)."""
    return _smoothed(_family_tables(*_stacked([d.gram_counts()]), parents[None])[0], beta)


def learn_clt(d: WeightedDataset, beta: float) -> ChowLiuTree:
    """Chow-Liu structure plus beta-smoothed CPTs.

    Mutual information uses the raw weighted counts (no smoothing); only
    the CPTs are smoothed.  Ties in the spanning tree and the rooting are
    broken deterministically (lowest indices win), so identical data
    always yields an identical tree.  This is the learner a cut evaluation
    runs on a stack of children, with a stack of one.
    """
    if d.n_vars < 1:
        raise DatasetError("learn_clt needs at least one variable")
    parents, order = (a[0] for a in _structures(_stacked([d.gram_counts()])))
    return ChowLiuTree(d.variable_ids.copy(), parents, order, _fit_cpts(d, parents, beta))


def clt_log_density_rows(t: ChowLiuTree, x: np.ndarray, columns=None) -> np.ndarray:
    """Per-row log density of the assignments in `x`, an integer matrix.

    `columns[v]` gives the column of x holding tree-local variable v;
    by default the columns are the tree scope in order.  Terms are added
    in tree order, one variable at a time.
    """
    if columns is None:
        columns = np.arange(t.n_vars)
    with np.errstate(divide="ignore"):
        logcpt = np.log(t.cpt)
    ll = np.zeros(x.shape[0])
    for v, p in zip(t.order.tolist(), t.parents[t.order].tolist()):
        u = 0 if p < 0 else x[:, columns[p]]
        ll += logcpt[v, u, x[:, columns[v]]]
    return ll


def clt_log_likelihood(t: ChowLiuTree, d: WeightedDataset) -> float:
    """Weighted data log-likelihood; -inf only when a required CPT entry
    is exactly zero (possible with beta = 0)."""
    _check_scope(t.variable_ids, d, "tree")
    if d.n_rows == 0:
        return 0.0
    return weighted_sum(d.weights, clt_log_density_rows(t, d.samples))


def _each_distinct(fn, a: np.ndarray) -> np.ndarray:
    """fn of every element of the float array `a`, calling fn once per
    distinct value: counts repeat, so most calls would repeat too."""
    distinct, inverse = np.unique(a, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=float)[inverse].reshape(a.shape)


def clt_bd_score(t: ChowLiuTree, d: WeightedDataset, alpha: float) -> float:
    """Closed-form log marginal likelihood of the tree structure.

    Parameters are integrated out against per-row Dirichlet(alpha/2,
    alpha/2) priors; the CPT values stored on the tree are ignored.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _check_scope(t.variable_ids, d, "tree")
    tables = _family_tables(*_stacked([d.gram_counts()]), t.parents[None])
    return float(_bd_scores(tables, alpha)[0])


def _bd_scores(tables: np.ndarray, alpha: float) -> np.ndarray:
    """clt_bd_score of each of m trees over the same number of variables,
    from their (m, d, 2, 2) family counts, one term per CPT row by
    variable.  A root's row 1 has no counts, so its term is exactly 0."""
    rows = tables.reshape(len(tables), -1, 2)
    half = alpha / 2
    total = alpha + (rows[:, :, 0] + rows[:, :, 1])
    terms = math.lgamma(alpha) - _each_distinct(math.lgamma, total)
    terms += _each_distinct(math.lgamma, half + rows[:, :, 0]) - math.lgamma(half)
    terms += _each_distinct(math.lgamma, half + rows[:, :, 1]) - math.lgamma(half)
    # a sequential sum in this term order: whether a cut with a delta
    # near 0 is accepted can hinge on the last bit
    return np.cumsum(terms, axis=1)[:, -1]


def _ll_scores(tables: np.ndarray, beta: float) -> np.ndarray:
    """Weighted log-likelihood of each of m trees at the CPTs that _fit_cpts
    would give with smoothing `beta`, from their (m, d, 2, 2) family
    counts: the sum of n log theta over the CPT cells, in _bd_scores'
    order, cell x = 0 before x = 1.  An empty cell adds 0."""
    rows = tables.reshape(len(tables), -1, 2)
    live = rows > 0
    terms = np.zeros(rows.shape)
    terms[live] = rows[live] * _each_distinct(math.log, _smoothed(rows, beta)[live])
    return np.cumsum(terms.reshape(len(rows), -1), axis=1)[:, -1]


def clt_sample(t: ChowLiuTree, n: int, rng: np.random.Generator) -> np.ndarray:
    """n ancestral samples, one row each in scope (variable_ids) order;
    each variable is drawn for all rows at once, in tree order."""
    values = np.zeros((n, t.n_vars), dtype=np.uint8)
    for v, p in zip(t.order.tolist(), t.parents[t.order].tolist()):
        u = 0 if p < 0 else values[:, p]
        values[:, v] = rng.random(n) < t.cpt[v, u, 1]
    return values


def clt_mpe(t: ChowLiuTree, evidence: np.ndarray) -> tuple:
    """Most probable completion of each evidence row.

    `evidence` is an (n, n_vars) matrix in scope order whose cells are
    0, 1, or -1 for a free variable.  Exact max-product over the tree, for
    all rows at once; an observed value is kept even when it has
    probability 0, and ties go to value 0.  Returns (the (n, n_vars)
    completions, their log densities).  This is the stacked kernel that
    answers a network's MPE (see _mpe_pairs), on one tree.
    """
    ev = _check_cells(evidence, t.n_vars, cells=(-1, 0, 1))
    n = ev.shape[0]
    leaf, rows = np.zeros(n, dtype=np.intp), np.arange(n)
    values, scores = _mpe_pairs([t], [np.arange(t.n_vars)], leaf, rows, ev)
    return values.reshape(n, t.n_vars), scores


# at most this many (pair, variable) cells, padding included, are in one
# stack of the MPE kernel, which bounds its temporaries however many
# leaves a query reaches
_MPE_CELLS = 1 << 18


def _mpe_pairs(trees: list, columns: list, leaf: np.ndarray, rows: np.ndarray, x) -> tuple:
    """Most probable completion of every (row, leaf) pair p: tree
    trees[leaf[p]] completes the evidence x[rows[p], columns[leaf[p]]],
    whose cells are 0, 1 or -1 for free, as clt_mpe does.

    Pairs are stacked widest first, at most _MPE_CELLS padded cells to a
    stack (see _mpe_stack).  Returns (values, scores): the completions
    one after another in pair order, each in its tree's local order, and
    their log densities."""
    width = np.array([t.n_vars for t in trees], dtype=np.intp)[leaf]
    start = np.cumsum(width) - width
    values = np.empty(int(width.sum()), dtype=np.uint8)
    scores = np.empty(len(leaf))
    by_width = np.argsort(-width, kind="stable")
    lo = 0
    while lo < len(by_width):
        dvars = int(width[by_width[lo]])
        stack = by_width[lo : lo + max(1, _MPE_CELLS // dvars)]
        lo += len(stack)
        used, local = np.unique(leaf[stack], return_inverse=True)
        got, scores[stack] = _mpe_stack(
            [trees[i] for i in used], [columns[i] for i in used], local, rows[stack], x, dvars
        )
        real = np.arange(dvars) < width[stack, None]
        values[(start[stack, None] + np.arange(dvars))[real]] = got[real]
    return values, scores


def _mpe_stack(trees: list, columns: list, leaf, rows, x, dvars: int) -> tuple:
    """_mpe_pairs on one stack of trees of at most `dvars` variables:
    ((m, dvars) completions, (m,) log densities) of its m pairs.

    The trees are lowered to (L, dvars) arrays in local index order.  A
    tree narrower than dvars is padded with variables that have no
    parent, no child and log CPT 0.  Slot dvars is a dummy parent of
    every root and padding variable, valued 0.

    Messages run over each tree's vertices by the position of their
    parent in the tree's order, latest first, siblings in ascending
    index.  So every child reaches its parent before the parent is
    maxed out, and each vertex's table s[u, x] is its log CPT plus its
    children's messages added in ascending index, as clt_mpe defined it.
    Values then run the other way, parents first, and each score is
    summed from 0 in the tree's order, so it is its completion's
    density to the last bit."""
    n_trees, dummy = len(trees), dvars
    real = np.arange(dvars) < np.array([t.n_vars for t in trees])[:, None]
    parents = np.full((n_trees, dvars), dummy)
    parents[real] = np.concatenate([t.parents for t in trees])
    parents[parents < 0] = dummy
    order = np.tile(np.arange(dvars), (n_trees, 1))
    order[real] = np.concatenate([t.order for t in trees])
    cols = np.zeros((n_trees, dvars), dtype=np.intp)
    cols[real] = np.concatenate(columns)
    cpt = np.ones((n_trees, dvars + 1, 2, 2))
    cpt[:, :dvars][real] = np.concatenate([t.cpt for t in trees])
    with np.errstate(divide="ignore"):
        logcpt = np.log(cpt)
    pos = np.full((n_trees, dvars + 1), -1)
    np.put_along_axis(pos, order, np.arange(dvars)[None], axis=1)
    upward = np.argsort(-np.take_along_axis(pos, parents, axis=1), axis=1, kind="stable")

    # step-major flat cells: at[k, p] holds pair p's vertex at step k,
    # up[k, p] that vertex's parent
    n_pairs, width = len(leaf), dvars + 1
    vertex = upward[leaf]
    base = np.arange(n_pairs)[:, None] * width
    at = (base + vertex).T.copy()
    up = (base + np.take_along_axis(parents[leaf], vertex, axis=1)).T.copy()
    ev = np.take_along_axis(x[rows[:, None], cols[leaf]], vertex, axis=1).T[..., None]
    free, one = ev < 0, ev == 1
    # s[cell, u, x], then each child's message added as it is found
    s = logcpt[leaf].reshape(-1, 2, 2)
    pick = np.zeros((n_pairs * width, 2), dtype=bool)
    for k in range(dvars):
        sv = s[at[k]]
        best = np.where(free[k], sv[..., 1] > sv[..., 0], one[k])
        pick[at[k]] = best
        s[up[k]] += np.where(best, sv[..., 1], sv[..., 0])[:, None, :]

    values = np.zeros(n_pairs * width, dtype=np.uint8)
    for k in range(dvars - 1, -1, -1):
        values[at[k]] = pick[at[k], values[up[k]]]
    values = values.reshape(n_pairs, width)
    tree_order = order[leaf]
    u = np.take_along_axis(values, np.take_along_axis(parents[leaf], tree_order, axis=1), axis=1)
    xv = np.take_along_axis(values, tree_order, axis=1)
    # a sequential sum from the first term, in the tree's order
    scores = np.cumsum(logcpt[leaf[:, None], tree_order, u, xv], axis=1)[:, -1]
    return values[:, :dvars], scores


def clt_param_count(t: ChowLiuTree) -> int:
    """Independent parameters: 1 for the root row plus 2 per other family."""
    return 2 * t.n_vars - 1
