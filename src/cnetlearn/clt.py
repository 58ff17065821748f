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
    rows = clt_log_density_rows(t, d.samples)
    live = d.weights > 0  # 0 * -inf would poison the sum
    return math.fsum((d.weights[live] * rows[live]).tolist())  # exactly rounded


_lgamma = np.vectorize(math.lgamma, otypes=[float])
_log = np.vectorize(math.log, otypes=[float])


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
    terms = math.lgamma(alpha) - _lgamma(alpha + (rows[:, :, 0] + rows[:, :, 1]))
    terms += _lgamma(half + rows[:, :, 0]) - math.lgamma(half)
    terms += _lgamma(half + rows[:, :, 1]) - math.lgamma(half)
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
    terms[live] = rows[live] * _log(_smoothed(rows, beta)[live])
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
    completions, their log densities).
    """
    ev = _check_cells(evidence, t.n_vars, cells=(-1, 0, 1))
    kids = t.children()
    with np.errstate(divide="ignore"):
        logcpt = np.log(t.cpt)
    # msg[v][r, u]: best log score of v's subtree in row r given parent
    # value u; pick[v][r, u]: the value of v that attains it
    msg, pick = {}, {}
    for v in t.order[::-1].tolist():
        s = logcpt[v][None]  # s[r, u, x], summed in the order of the kids
        for c in kids[v]:
            s = s + msg[c][:, None, :]
        s = np.broadcast_to(s, (ev.shape[0], 2, 2))
        obs = ev[:, v, None]
        pick[v] = np.where(obs < 0, s[..., 1] > s[..., 0], obs == 1)
        msg[v] = np.where(pick[v], s[..., 1], s[..., 0])

    values = np.zeros(ev.shape, dtype=np.uint8)
    rows = np.arange(ev.shape[0])
    for v in t.order.tolist():
        p = t.parents[v]
        values[:, v] = pick[v][rows, 0 if p < 0 else values[:, p]]
    # re-evaluate so each score is exactly its completion's density
    return values, clt_log_density_rows(t, values)


def clt_param_count(t: ChowLiuTree) -> int:
    """Independent parameters: 1 for the root row plus 2 per other family."""
    return 2 * t.n_vars - 1
