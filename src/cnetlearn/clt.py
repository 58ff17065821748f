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

from .data import DatasetError, WeightedDataset, _check_cells

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
    cpt          -- cpt[v][u, x] = P(X_v = x | parent = u); the root table
                    has a single row
    """

    variable_ids: np.ndarray
    parents: np.ndarray
    order: np.ndarray
    cpt: list

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

    def _check_structure(self) -> None:
        """Raise DatasetError unless the order lists every variable once,
        one root first and parents before children, and the CPT tables are
        1x2 at the root and 2x2 elsewhere."""
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
        shapes = [t.shape for t in self.cpt]
        if shapes != [(1, 2) if p < 0 else (2, 2) for p in parents]:
            raise DatasetError("CPT tables must be 1x2 at the tree root, 2x2 elsewhere")

    def validate(self) -> None:
        """Raise DatasetError if any structural invariant is broken or a
        CPT row is not a distribution."""
        self._check_structure()
        _check_distributions(np.concatenate(self.cpt))


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
    from raw weighted counts, clamped at 0: the entry of the matrix the
    tree learner uses."""
    if i == j:
        raise DatasetError("mutual information needs two distinct variables")
    if d.total_weight <= 0:
        raise DatasetError("mutual information of a zero-weight dataset")
    total, n1, n11 = d.gram_counts()
    mi = _mi_matrix(np.array([total]), n1[None], n11[None])[0]
    return float(mi[d.column(i), d.column(j)])


def _mi_matrix(total: np.ndarray, n1: np.ndarray, n11: np.ndarray) -> np.ndarray:
    """(m, d, d) mutual information of every pair of variables in each of
    m datasets, from their Gram counts: total (m,), n1 (m, d) and n11
    (m, d, d).  Zero for a zero-weight dataset.  The (a, b) cells of the
    pair tables are formed and used one at a time, in place where that
    keeps the bits, so the temporaries are a few stacks' size."""
    live = total > 0
    total = np.where(live, total, 1.0)[:, None, None]
    pi1 = n1 / total[:, 0]
    pi = (1.0 - pi1, pi1)  # pi[a][k, v]
    n1i, n1j = n1[:, :, None], n1[:, None, :]
    cells = {
        (1, 1): lambda: n11,
        (1, 0): lambda: n1i - n11,
        (0, 1): lambda: n1j - n11,
        (0, 0): lambda: total - n1i - n1j + n11,
    }
    mi = np.zeros(n11.shape)
    for a in range(2):
        for b in range(2):
            pab = np.clip(cells[a, b](), 0.0, None)  # guard tiny negative rounding
            pab /= total
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.log(pab)
                term -= np.log(pi[a][:, :, None] * pi[b][:, None, :])
                term *= pab
            term[pab == 0] = 0.0
            mi += term
    mi[~live] = 0.0
    diag = np.arange(n11.shape[1])
    mi[:, diag, diag] = 0.0
    return np.clip(mi, 0.0, None)


def _max_spanning_trees(mi: np.ndarray) -> list:
    """Maximum spanning tree of each matrix of an (m, d, d) stack, as its
    edges (i, j), i < j, in the order Kruskal takes them: by MI
    descending, ties to the lexicographically smaller pair.

    That order ranks every edge apart, so each tree is unique, and Prim's
    algorithm on the ranks builds it for the whole stack at once."""
    m, dvars = mi.shape[:2]
    iu, ju = np.triu_indices(dvars, 1)
    # triu_indices lists the pairs in (i, j) order, so a stable sort
    # breaks ties as Kruskal's lexsort((j, i, -mi)) did
    by_weight = np.argsort(-mi[:, iu, ju], axis=1, kind="stable")
    n_edges = len(iu)
    rank = np.full((m, dvars, dvars), n_edges)
    rank[np.arange(m)[:, None], iu[by_weight], ju[by_weight]] = np.arange(n_edges)
    rank = np.minimum(rank, rank.transpose(0, 2, 1))

    rows = np.arange(m)
    best = rank[:, 0].copy()  # the best rank joining each vertex to the tree
    via = np.zeros((m, dvars), dtype=np.int64)  # that edge's tree end
    free = np.ones((m, dvars), dtype=bool)
    free[:, 0] = False
    best[:, 0] = n_edges
    edges = np.empty((m, max(dvars - 1, 0), 3), dtype=np.int64)  # rank, i, j
    for k in range(dvars - 1):
        v = best.argmin(axis=1)
        u = via[rows, v]
        edges[:, k] = np.stack([best[rows, v], np.minimum(u, v), np.maximum(u, v)], axis=1)
        free[rows, v] = False
        best[rows, v] = n_edges
        closer = free & (rank[rows, v] < best)
        best = np.where(closer, rank[rows, v], best)
        via = np.where(closer, v[:, None], via)
    edges = np.take_along_axis(edges, np.argsort(edges[:, :, :1], axis=1), axis=1)
    return [[(i, j) for _, i, j in tree] for tree in edges.tolist()]


def _max_spanning_tree(mi: np.ndarray) -> list:
    """Kruskal's maximum spanning tree of one (d, d) MI matrix; see
    _max_spanning_trees."""
    return _max_spanning_trees(mi[None])[0]


def _orient(dvars: int, edges: list):
    """Root at local index 0 and direct all edges away from it."""
    adj = [[] for _ in range(dvars)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [-1] * dvars
    seen = [True] + [False] * (dvars - 1)
    order = [0]
    for u in order:  # breadth first: the loop reads what it appends
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                parents[v] = u
                order.append(v)
    return np.array(parents, dtype=np.int64), np.array(order, dtype=np.int64)


def _structures(grams: list) -> list:
    """(parents, order) of the Chow-Liu tree of each of a stack of datasets
    over the same number of variables, from their gram_counts()."""
    total = np.array([g[0] for g in grams])
    mi = _mi_matrix(total, np.stack([g[1] for g in grams]), np.stack([g[2] for g in grams]))
    return [_orient(mi.shape[1], edges) for edges in _max_spanning_trees(mi)]


def _fit_cpts(d: WeightedDataset, parents: np.ndarray, beta: float) -> list:
    """Maximum-likelihood CPTs with additive smoothing `beta`, for a fixed
    tree structure over exactly the dataset's variables: each row is
    (n_x + beta) / (n + 2 beta), or uniform when that denominator is 0."""
    table = d.family_counts(parents)
    denom = table[:, :, 0] + table[:, :, 1] + 2.0 * beta
    rows = (table + beta) / np.where(denom > 0, denom, 1.0)[:, :, None]
    rows[denom <= 0] = 0.5
    return [rows[v, :1] if p < 0 else rows[v] for v, p in enumerate(parents.tolist())]


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
    ((parents, order),) = _structures([d.gram_counts()])
    return _fitted_tree(d, parents, order, beta)


def _fitted_tree(d: WeightedDataset, parents, order, beta: float) -> ChowLiuTree:
    """The tree of this structure over d's scope, its CPTs fit on d."""
    return ChowLiuTree(d.variable_ids.copy(), parents, order, _fit_cpts(d, parents, beta))


def _check_scope(t: ChowLiuTree, d: WeightedDataset) -> None:
    if t.n_vars != d.n_vars or np.any(t.variable_ids != d.variable_ids):
        raise DatasetError("dataset variables do not match the tree scope")


def clt_log_density_rows(t: ChowLiuTree, x: np.ndarray, columns=None) -> np.ndarray:
    """Per-row log density of the assignments in `x`.

    `columns[v]` gives the column of x holding tree-local variable v;
    by default the columns are the tree scope in order.
    """
    if columns is None:
        columns = np.arange(t.n_vars)
    n = x.shape[0]
    ll = np.zeros(n)
    for v in t.order:
        with np.errstate(divide="ignore"):
            logrows = np.log(t.cpt[v])
        xv = x[:, columns[v]].astype(np.int64)
        p = t.parents[v]
        if p < 0:
            ll += logrows[0, xv]
        else:
            xu = x[:, columns[p]].astype(np.int64)
            ll += logrows[xu, xv]
    return ll


def clt_log_likelihood(t: ChowLiuTree, d: WeightedDataset) -> float:
    """Weighted data log-likelihood; -inf only when a required CPT entry
    is exactly zero (possible with beta = 0)."""
    _check_scope(t, d)
    if d.n_rows == 0:
        return 0.0
    rows = clt_log_density_rows(t, d.samples)
    live = d.weights > 0  # 0 * -inf would poison the sum
    return float(d.weights[live] @ rows[live])


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def clt_bd_score(t: ChowLiuTree, d: WeightedDataset, alpha: float) -> float:
    """Closed-form log marginal likelihood of the tree structure.

    Parameters are integrated out against per-row Dirichlet(alpha/2,
    alpha/2) priors; the CPT values stored on the tree are ignored.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _check_scope(t, d)
    return float(_bd_scores(d.family_counts(t.parents)[None], t.parents[None], alpha)[0])


def _bd_scores(tables: np.ndarray, parents: np.ndarray, alpha: float) -> np.ndarray:
    """clt_bd_score of each of m trees over the same number of variables,
    from their (m, d, 2, 2) family counts and (m, d) parents."""
    has_row = np.ones(tables.shape[:3], dtype=bool)
    has_row[:, :, 1] = parents >= 0
    # one CPT row per family, by variable; every tree has 2d - 1
    rows = tables[has_row].reshape(len(tables), -1, 2)
    half = alpha / 2
    terms = math.lgamma(alpha) - _lgamma(alpha + (rows[:, :, 0] + rows[:, :, 1]))
    terms += _lgamma(half + rows[:, :, 0]) - math.lgamma(half)
    terms += _lgamma(half + rows[:, :, 1]) - math.lgamma(half)
    # a sequential sum in this term order: whether a cut with a delta
    # near 0 is accepted can hinge on the last bit
    return np.cumsum(terms, axis=1)[:, -1]


def clt_sample(t: ChowLiuTree, n: int, rng: np.random.Generator) -> np.ndarray:
    """n ancestral samples, one row each in scope (variable_ids) order;
    each variable is drawn for all rows at once, in tree order."""
    values = np.zeros((n, t.n_vars), dtype=np.uint8)
    for v in t.order:
        p = t.parents[v]
        p1 = t.cpt[v][0, 1] if p < 0 else t.cpt[v][values[:, p], 1]
        values[:, v] = rng.random(n) < p1
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
        logcpt = [np.log(c) for c in t.cpt]
    # msg[v][r, u]: best log score of v's subtree in row r given parent
    # value u; pick[v][r, u]: the value of v that attains it
    msg, pick = {}, {}
    for v in t.order[::-1].tolist():
        s = logcpt[v][None]  # s[r, u, x], summed in the order of the kids
        for c in kids[v]:
            s = s + msg[c][:, None, :]
        s = np.broadcast_to(s, (ev.shape[0],) + logcpt[v].shape)
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
