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
    return float(_mi_matrix(*d.gram_counts())[d.column(i), d.column(j)])


def _mi_matrix(total: float, n1: np.ndarray, n11: np.ndarray) -> np.ndarray:
    dvars = len(n1)
    counts = np.empty((2, 2, dvars, dvars))
    counts[1, 1] = n11
    counts[1, 0] = n1[:, None] - n11
    counts[0, 1] = n1[None, :] - n11
    counts[0, 0] = total - n1[:, None] - n1[None, :] + n11
    counts = np.clip(counts, 0.0, None)  # guard tiny negative rounding
    p = counts / total
    pi = np.stack([1.0 - n1 / total, n1 / total])  # pi[a, v]
    mi = np.zeros((dvars, dvars))
    for a in range(2):
        for b in range(2):
            pab = p[a, b]
            denom = pi[a][:, None] * pi[b][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                term = pab * (np.log(pab) - np.log(denom))
            mi += np.where(pab > 0, term, 0.0)
    np.fill_diagonal(mi, 0.0)
    return np.clip(mi, 0.0, None)


def _max_spanning_tree(mi: np.ndarray) -> list:
    """Kruskal on the complete graph; ties prefer the lexicographically
    smaller (i, j) pair, so results are reproducible."""
    dvars = mi.shape[0]
    iu, ju = np.triu_indices(dvars, 1)
    order = np.lexsort((ju, iu, -mi[iu, ju]))
    parent = list(range(dvars))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen = []
    for i, j in zip(iu[order].tolist(), ju[order].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
            if len(chosen) == dvars - 1:
                break
    return chosen


def _orient(dvars: int, edges: list):
    """Root at local index 0 and direct all edges away from it."""
    adj = [[] for _ in range(dvars)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = np.full(dvars, -1, dtype=np.int64)
    order = np.empty(dvars, dtype=np.int64)
    order[0] = 0
    seen = np.zeros(dvars, dtype=bool)
    seen[0] = True
    head = 0
    filled = 1
    while head < filled:
        u = order[head]
        head += 1
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                parents[v] = u
                order[filled] = v
                filled += 1
    return parents, order


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
    always yields an identical tree.
    """
    if d.n_vars < 1:
        raise DatasetError("learn_clt needs at least one variable")
    dvars = d.n_vars
    if dvars == 1:
        parents = np.array([-1], dtype=np.int64)
        order = np.array([0], dtype=np.int64)
    else:
        if d.total_weight > 0:
            mi = _mi_matrix(*d.gram_counts())
        else:
            mi = np.zeros((dvars, dvars))
        edges = _max_spanning_tree(mi)
        parents, order = _orient(dvars, edges)
    cpts = _fit_cpts(d, parents, beta)
    return ChowLiuTree(d.variable_ids.copy(), parents, order, cpts)


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
    has_row = np.ones((t.n_vars, 2), dtype=bool)
    has_row[t.parents < 0, 1] = False
    rows = d.family_counts(t.parents)[has_row]  # one CPT row per family, by variable
    half = alpha / 2
    terms = math.lgamma(alpha) - _lgamma(alpha + (rows[:, 0] + rows[:, 1]))
    terms += _lgamma(half + rows[:, 0]) - math.lgamma(half)
    terms += _lgamma(half + rows[:, 1]) - math.lgamma(half)
    # a sequential sum in this term order: whether a cut with a delta
    # near 0 is accepted can hinge on the last bit
    score = 0.0
    for term in terms.tolist():
        score += term
    return score


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
