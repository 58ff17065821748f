"""Shared test utilities: independent oracles and random model builders.

Everything here is deliberately written from first principles (exact
rational arithmetic, brute-force enumeration) so the tests do not reuse
the library's own numerics as their reference.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from cnetlearn import (
    ChowLiuTree,
    CutsetNetwork,
    DatasetError,
    DecisionNode,
    Leaf,
    SumNodeCounts,
    WeightedDataset,
    Mixture,
    bd_sum_node,
    circuit_log_values,
    clt_log_density_rows,
    cnet_log_density_rows,
    compile_cnet,
    log_sum_exp_rows,
    mixture_log_density_rows,
    restrict,
    select_best_candidates,
    structure_param_count,
)
from cnetlearn.scores import CutCandidate
from cnetlearn.cnet import walk


def ref_read_cells(path, free=None) -> np.ndarray:
    """CSV cells parsed token by token, as load_csv did before one
    vectorized reader served data and evidence files alike."""
    allowed = {"0": 0, "1": 1}
    if free is not None:
        allowed[free] = -1
    *first, last = allowed
    rows = []
    arity = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if arity is None:
                arity = len(tokens)
            elif len(tokens) != arity:
                raise DatasetError(
                    f"{path}: ragged row at line {lineno}: "
                    f"expected {arity} values, got {len(tokens)}"
                )
            row = []
            for tok in tokens:
                tok = tok.strip()
                if tok not in allowed:
                    raise DatasetError(
                        f"{path}: invalid token {tok!r} at line {lineno} "
                        f"(expected {', '.join(first)} or {last})"
                    )
                row.append(allowed[tok])
            rows.append(row)
    if not rows:
        raise DatasetError(f"{path}: empty file")
    return np.array(rows, dtype=np.int8)


def unit_dataset(rows, ids=None) -> WeightedDataset:
    x = np.atleast_2d(np.array(rows, dtype=np.uint8))
    vids = None if ids is None else np.array(ids, dtype=np.int64)
    return WeightedDataset(x, np.ones(x.shape[0]), vids)


def random_dataset(rng, n_rows: int, n_vars: int, ids=None) -> WeightedDataset:
    x = rng.integers(0, 2, size=(n_rows, n_vars)).astype(np.uint8)
    return unit_dataset(x, ids)


def enumerate_bits(n_vars: int) -> np.ndarray:
    combos = itertools.product((0, 1), repeat=n_vars)
    return np.array(list(combos), dtype=np.uint8).reshape(-1, n_vars)


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) of one vector, computed with a max shift.

    Returns -inf iff every input is -inf.  Raises on an empty vector.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector")
    m = v.max()
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.exp(v - m).sum()))


def induced_path(net, x) -> list:
    """Decision path of one full assignment through a cutset network:
    the list of (decision node, branch taken), root first."""
    x = np.asarray(x)
    if x.shape != (net.n_vars,):
        raise DatasetError("assignment does not match the network scope")
    path = []
    node = net.root
    while node.kind == "decision":
        k = int(x[net.column_of(node.var)])
        if k not in (0, 1):
            raise DatasetError("assignments must be 0/1")
        path.append((node, k))
        node = node.children[k]
    return path


# ---------------------------------------------------------------------------
# spanning-tree enumeration (Pruefer sequences)

def prufer_edges(seq, n: int) -> list:
    """Undirected edge list of the labeled tree with Pruefer sequence
    `seq` over nodes 0..n-1."""
    if n == 1:
        return []
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def all_spanning_trees(n: int):
    """Yield the edge list of every labeled tree on n nodes."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_edges(seq, n)


def tree_weight(mi: np.ndarray, edges) -> float:
    return math.fsum(mi[i][j] for i, j in sorted(edges))


def orient_at_zero(n: int, edges):
    """(parents, order) arrays for the tree rooted at local index 0."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = np.full(n, -1, dtype=np.int64)
    order = [0]
    seen = {0}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                parents[v] = u
                order.append(v)
    return parents, np.array(order, dtype=np.int64)


# ---------------------------------------------------------------------------
# random models with known-valid structure

def random_tree(rng, ids) -> ChowLiuTree:
    """Random labeled tree over `ids` with random interior CPTs."""
    ids = np.array(sorted(int(v) for v in ids), dtype=np.int64)
    n = len(ids)
    if n == 1:
        parents = np.array([-1], dtype=np.int64)
        order = np.array([0], dtype=np.int64)
    else:
        seq = [int(rng.integers(0, n)) for _ in range(max(0, n - 2))]
        parents, order = orient_at_zero(n, prufer_edges(seq, n))
    tables = []
    for v in range(n):
        n_rows = 1 if parents[v] < 0 else 2
        p1 = rng.uniform(0.05, 0.95, size=n_rows)
        tables.append(np.stack([1.0 - p1, p1], axis=1))
    return ChowLiuTree(ids, parents, order, cpt_of(tables))


def cpt_of(tables) -> np.ndarray:
    """The (d, 2, 2) CPT of per-variable tables written as in a model
    file, 1x2 at the root and 2x2 elsewhere; the root's row 1 reads
    (0.5, 0.5), as a fit leaves it."""
    cpt = np.full((len(tables), 2, 2), 0.5)
    for v, table in enumerate(tables):
        cpt[v, : len(table)] = table
    return cpt


def random_net(rng, ids, n_decisions: int) -> CutsetNetwork:
    """Random cutset network over `ids` with at most `n_decisions`
    decision nodes and random-tree leaves."""
    ids = sorted(int(v) for v in ids)
    budget = [n_decisions]

    def build(scope):
        if len(scope) >= 2 and budget[0] > 0 and rng.random() < 0.8:
            budget[0] -= 1
            var = int(scope[int(rng.integers(0, len(scope)))])
            rest = [v for v in scope if v != var]
            p1 = float(rng.uniform(0.1, 0.9))
            kids = (build(rest), build(rest))
            return DecisionNode(var, np.array([1.0 - p1, p1]), kids)
        return Leaf(random_tree(rng, scope))

    return CutsetNetwork(build(ids), np.array(ids, dtype=np.int64))


def count_decisions(net) -> int:
    total = 0
    stack = [net.root]
    while stack:
        node = stack.pop()
        if node.kind == "decision":
            total += 1
            stack.extend(node.children)
    return total


def leaf_scopes(net) -> list:
    out = []
    stack = [net.root]
    while stack:
        node = stack.pop()
        if node.kind == "leaf":
            out.append(node.tree.variable_ids)
        else:
            stack.extend(node.children)
    return out


# ---------------------------------------------------------------------------
# exact prequential oracle for the BD score

def prequential_cnet_log(net, samples: np.ndarray, alpha) -> float:
    """Log of the sequential posterior-predictive product, in exact
    rational arithmetic.

    Each row is routed through the decision nodes and its leaf's tree
    families; every event contributes (alpha/2 + n_value) / (alpha + n)
    with counts from the previously processed rows only.  For Dirichlet
    models this product equals the marginal likelihood, which makes it
    an independent reference for the closed-form score.
    """
    alpha = Fraction(alpha).limit_denominator(10**6)
    half = alpha / 2
    dec_counts: dict = {}
    fam_counts: dict = {}
    product = Fraction(1)
    col = {int(g): i for i, g in enumerate(net.variable_ids)}

    for row in np.asarray(samples, dtype=np.int64):
        node = net.root
        while node.kind == "decision":
            c = dec_counts.setdefault(id(node), [0, 0])
            k = int(row[col[int(node.var)]])
            product *= (half + c[k]) / (alpha + c[0] + c[1])
            c[k] += 1
            node = node.children[k]
        tree = node.tree
        for v in tree.order:
            p = int(tree.parents[v])
            u = 0 if p < 0 else int(row[col[int(tree.variable_ids[p])]])
            key = (id(node), int(v), u)
            c = fam_counts.setdefault(key, [0, 0])
            x = int(row[col[int(tree.variable_ids[v])]])
            product *= (half + c[x]) / (alpha + c[0] + c[1])
            c[x] += 1
    return math.log(product.numerator) - math.log(product.denominator)


def prequential_counts_log(counts, alpha) -> float:
    """Same chain for a single Dirichlet(alpha/2, alpha/2) family given
    final branch counts (order does not matter)."""
    alpha = Fraction(alpha).limit_denominator(10**6)
    half = alpha / 2
    product = Fraction(1)
    seen = [0, 0]
    for k, n_k in enumerate(counts):
        for _ in range(int(n_k)):
            product *= (half + seen[k]) / (alpha + seen[0] + seen[1])
            seen[k] += 1
    return math.log(product.numerator) - math.log(product.denominator)


# ---------------------------------------------------------------------------
# two-regime synthetic generator with a known entropy rate

def regime_samples(rng, n: int, d: int, flip: float = 0.1) -> np.ndarray:
    """Variable 0 picks a regime; each pair (2i+1, 2i+2) is equal in
    regime 0 and opposite in regime 1, with `flip` noise; any leftover
    variable is uniform."""
    x = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    for i in range((d - 1) // 2):
        a, b = 1 + 2 * i, 2 + 2 * i
        expected = x[:, a] ^ x[:, 0]
        noise = rng.random(n) < flip
        x[:, b] = np.where(noise, 1 - expected, expected).astype(np.uint8)
    return x


def regime_log_prob_rows(x: np.ndarray, flip: float = 0.1) -> np.ndarray:
    """Exact generator log probability of each row."""
    x = np.asarray(x, dtype=np.int64)
    d = x.shape[1]
    n_pairs = (d - 1) // 2
    free = d - n_pairs  # regime bit, pair anchors, leftovers
    lp = np.full(x.shape[0], free * math.log(0.5))
    for i in range(n_pairs):
        a, b = 1 + 2 * i, 2 + 2 * i
        expected = x[:, a] ^ x[:, 0]
        lp += np.where(x[:, b] == expected, math.log1p(-flip), math.log(flip))
    return lp


def regime_entropy_nats(d: int, flip: float = 0.1) -> float:
    n_pairs = (d - 1) // 2
    h_flip = -(flip * math.log(flip) + (1 - flip) * math.log1p(-flip))
    return (d - n_pairs) * math.log(2) + n_pairs * h_flip


def switch_dataset_16() -> WeightedDataset:
    """Tiny 3-variable regime switch: x2 copies x1 when x0 = 0 and
    negates it when x0 = 1, all (x0, x1) combinations balanced.  Pairwise
    counts alone look independent, so conditioning is the only way to a
    better score."""
    rows = []
    for x0 in (0, 1):
        for x1 in (0, 1):
            x2 = x1 if x0 == 0 else 1 - x1
            rows.extend([[x0, x1, x2]] * 4)
    return unit_dataset(rows)


# ---------------------------------------------------------------------------
# routing reference

def routed_decision_counts(net, d: WeightedDataset) -> dict:
    """id(decision node) -> [weight routed to 0, weight routed to 1],
    computed by walking every row independently of the library."""
    counts: dict = {}
    col = {int(g): i for i, g in enumerate(net.variable_ids)}
    for row, w in zip(d.samples, d.weights):
        node = net.root
        while node.kind == "decision":
            k = int(row[col[int(node.var)]])
            counts.setdefault(id(node), [0.0, 0.0])[k] += float(w)
            node = node.children[k]
    return counts


def pair_counts(d: WeightedDataset, i: int, j: int) -> np.ndarray:
    """2x2 weighted contingency table by np.add.at: table[a, b] = weight
    of rows with x_i = a and x_j = b."""
    xi = d.samples[:, d.column(i)].astype(np.int64)
    xj = d.samples[:, d.column(j)].astype(np.int64)
    table = np.zeros((2, 2))
    np.add.at(table, (xi, xj), d.weights)
    return table


# ---------------------------------------------------------------------------
# slow references for the counting fast paths: one family, one variable
# or one edge at a time, as the library computed them before it counted
# each dataset once

def ref_fit_cpts(d: WeightedDataset, parents, beta: float) -> np.ndarray:
    """Per-family CPT fit by np.add.at, one smoothed row at a time."""

    def smoothed_row(counts):
        denom = counts.sum() + 2.0 * beta
        if denom <= 0:
            return np.array([0.5, 0.5])
        return (counts + beta) / denom

    cpt = np.full((d.n_vars, 2, 2), 0.5)
    w = d.weights
    for v in range(d.n_vars):
        xv = d.samples[:, v].astype(np.int64)
        if parents[v] < 0:
            counts = np.zeros(2)
            np.add.at(counts, xv, w)
            cpt[v, 0] = smoothed_row(counts)
        else:
            xu = d.samples[:, parents[v]].astype(np.int64)
            table = np.zeros((2, 2))
            np.add.at(table, (xu, xv), w)
            cpt[v] = [smoothed_row(table[u]) for u in (0, 1)]
    return cpt


def ref_bd_family(counts, alpha: float) -> float:
    """Log marginal likelihood of one Dirichlet(alpha/2, alpha/2) row."""
    n = counts.sum()
    score = math.lgamma(alpha) - math.lgamma(alpha + n)
    for k in (0, 1):
        score += math.lgamma(alpha / 2 + counts[k]) - math.lgamma(alpha / 2)
    return score


def ref_gram_family_table(d: WeightedDataset, v: int, p: int) -> np.ndarray:
    """2x2 family table of local variable v under parent p (-1 at a root),
    read off d.gram_counts() one cell at a time: table[u, x] is the weight
    of rows with x_v = x and x_p = u.  A root's row 1 is zero; a cell
    that rounds below 0 reads 0."""
    total, n1, n11 = d.gram_counts()
    n1v = float(n1[v])
    n1p = 0.0 if p < 0 else float(n1[p])
    n11vp = 0.0 if p < 0 else float(n11[v, p])
    cells = [[total - n1v - n1p + n11vp, n1v - n11vp], [n1p - n11vp, n11vp]]
    return np.array([[max(c, 0.0) for c in row] for row in cells])


def _ref_cpt_rows(parents) -> list:
    """(v, u) of every CPT row of a tree, by variable: the order in which
    the library sums a tree's score terms (it also adds a root's empty
    row 1, whose term is exactly 0)."""
    return [(v, u) for v, p in enumerate(parents) for u in ((0,) if p < 0 else (0, 1))]


def ref_clt_bd_score(t: ChowLiuTree, d: WeightedDataset, alpha: float) -> float:
    """Tree BD score summed family by family, in variable order."""
    score = 0.0
    for v, u in _ref_cpt_rows(t.parents):
        score += ref_bd_family(ref_gram_family_table(d, v, int(t.parents[v]))[u], alpha)
    return score


def _ref_mean_entropy(samples: np.ndarray, weights: np.ndarray) -> float:
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    c1 = weights @ samples
    c0 = total - c1
    xlogx = lambda c: np.where(c > 0, c * np.log(np.where(c > 0, c, 1.0)), 0.0)
    h = math.log(total) - (xlogx(c0) + xlogx(c1)) / total
    return float(h.mean())


def ref_information_gain(d: WeightedDataset, var: int) -> float:
    """Gain of one split, from the entropies of the two masked row sets."""
    total = d.total_weight
    gain = _ref_mean_entropy(d.samples, d.weights)
    vals = d.samples[:, d.column(var)]
    for k in (0, 1):
        mask = vals == k
        wk = d.weights[mask]
        part = float(wk.sum())
        if part > 0:
            gain -= (part / total) * _ref_mean_entropy(d.samples[mask], wk)
    return gain


def ref_max_spanning_tree(mi: np.ndarray) -> list:
    """Kruskal over an edge list sorted in Python by (-mi, i, j)."""
    dvars = mi.shape[0]
    edges = sorted(
        ((i, j) for i in range(dvars) for j in range(i + 1, dvars)),
        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]),
    )
    parent = list(range(dvars))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    chosen = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
    return chosen


# ---------------------------------------------------------------------------
# per-kind references for the score: BD and BIC each summed on their own
# path, as the library computed them before one routed recursion and one
# cut expression served both kinds

def _ref_weighted_branch_ll(n0: float, n1: float, beta: float) -> float:
    total = n0 + n1
    ll = 0.0
    for nk in (n0, n1):
        if nk > 0:
            ll += nk * math.log((nk + beta) / (total + 2 * beta))
    return ll


def _ref_refit_ll(tree: ChowLiuTree, d: WeightedDataset, beta: float) -> float:
    """Log-likelihood of the tree's structure at its beta-smoothed ML CPTs:
    n log theta summed one CPT cell at a time, in the library's order."""
    ll = 0.0
    for v, u in _ref_cpt_rows(tree.parents):
        row = ref_gram_family_table(d, v, int(tree.parents[v]))[u]
        denom = row[0] + row[1] + 2.0 * beta
        for n in row.tolist():
            if n > 0:
                ll += n * math.log((n + beta) / denom)
    return ll


def ref_bd_cnet(net, d: WeightedDataset, alpha: float) -> float:
    def rec(node, dsub) -> float:
        if node.kind == "leaf":
            return ref_clt_bd_score(node.tree, dsub, alpha)
        d0 = restrict(dsub, node.var, 0)
        d1 = restrict(dsub, node.var, 1)
        local = bd_sum_node(SumNodeCounts(d0.total_weight, d1.total_weight), alpha)
        return local + rec(node.children[0], d0) + rec(node.children[1], d1)

    return rec(net.root, d)


def ref_bic_cnet(net, d: WeightedDataset, cfg) -> float:
    def rec(node, dsub) -> float:
        if node.kind == "leaf":
            return _ref_refit_ll(node.tree, dsub, cfg.beta)
        d0 = restrict(dsub, node.var, 0)
        d1 = restrict(dsub, node.var, 1)
        ll = _ref_weighted_branch_ll(d0.total_weight, d1.total_weight, cfg.beta)
        return ll + rec(node.children[0], d0) + rec(node.children[1], d1)

    ll = rec(net.root, d)
    penalty = 0.5 * math.log(cfg.root_dataset_size) * structure_param_count(net)
    return ll - penalty


def ref_mi_matrix(total: float, n1: np.ndarray, n11: np.ndarray) -> np.ndarray:
    """MI matrix of one dataset from its Gram counts, through the full
    (2, 2, d, d) count and probability tables."""
    dvars = len(n1)
    counts = np.empty((2, 2, dvars, dvars))
    counts[1, 1] = n11
    counts[1, 0] = n1[:, None] - n11
    counts[0, 1] = n1[None, :] - n11
    counts[0, 0] = total - n1[:, None] - n1[None, :] + n11
    counts = np.clip(counts, 0.0, None)
    p = counts / total
    pi = np.stack([1.0 - n1 / total, n1 / total])
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


def ref_learn_clt(d: WeightedDataset, beta: float) -> ChowLiuTree:
    """One Chow-Liu tree at a time: MI by ref_mi_matrix (zero on a
    zero-weight dataset), Kruskal by ref_max_spanning_tree, CPTs by
    ref_fit_cpts."""
    if d.total_weight > 0:
        mi = ref_mi_matrix(*d.gram_counts())
    else:
        mi = np.zeros((d.n_vars, d.n_vars))
    parents, order = orient_at_zero(d.n_vars, ref_max_spanning_tree(mi))
    return ChowLiuTree(d.variable_ids.copy(), parents, order, ref_fit_cpts(d, parents, beta))


def ref_cut(leaf: ChowLiuTree, d_leaf: WeightedDataset, var: int, cfg) -> CutCandidate:
    """One cut, its children restricted and learned one at a time by
    ref_learn_clt and scored on the per-kind path."""
    d0 = restrict(d_leaf, var, 0)
    d1 = restrict(d_leaf, var, 1)
    t0 = ref_learn_clt(d0, cfg.fit_beta)
    t1 = ref_learn_clt(d1, cfg.fit_beta)
    counts = SumNodeCounts(d0.total_weight, d1.total_weight)
    if cfg.kind == "bd":
        before = ref_clt_bd_score(leaf, d_leaf, cfg.alpha)
        delta = (
            bd_sum_node(counts, cfg.alpha)
            + ref_clt_bd_score(t0, d0, cfg.alpha)
            + ref_clt_bd_score(t1, d1, cfg.alpha)
            - before
        )
    else:
        before = _ref_refit_ll(leaf, d_leaf, cfg.beta)
        ll_after = (
            _ref_weighted_branch_ll(counts.n0, counts.n1, cfg.beta)
            + _ref_refit_ll(t0, d0, cfg.beta)
            + _ref_refit_ll(t1, d1, cfg.beta)
        )
        extra_params = 2 * leaf.n_vars - 4
        penalty = 0.5 * math.log(cfg.root_dataset_size) * extra_params
        delta = ll_after - before - penalty
    structures = ((t0.parents, t0.order), (t1.parents, t1.order))
    return CutCandidate(var, float(delta), counts, structures, (d0.gram_counts(), d1.gram_counts()))


def ref_cut_delta(leaf: ChowLiuTree, d_leaf: WeightedDataset, var: int, cfg) -> float:
    return ref_cut(leaf, d_leaf, var, cfg).delta


def ref_select_best_cut(leaf: ChowLiuTree, d_leaf: WeightedDataset, candidates, cfg):
    """The learner's per-leaf choice, one candidate at a time: the first
    best cut in ascending variable order, or None unless its delta is
    positive."""
    best = None
    for var in sorted(candidates):
        cand = ref_cut(leaf, d_leaf, var, cfg)
        if best is None or cand.delta > best.delta:
            best = cand
    if best is None or best.delta <= 0:
        return None
    return best


def ref_decision_weights(n0: float, n1: float, cfg) -> np.ndarray:
    h = cfg.alpha / 2.0 if cfg.kind != "bic" else cfg.beta
    denom = n0 + n1 + 2 * h
    return np.array([(n0 + h) / denom, (n1 + h) / denom])


def ref_learn_cnet(d: WeightedDataset, cfg) -> tuple:
    """The greedy learner one step at a time, by recursion: candidates
    ranked by select_best_candidates, each leaf's cut chosen by
    ref_select_best_cut, an accepted cut's children restricted and
    learned by ref_learn_clt, its weights by ref_decision_weights, and
    the BIC penalty base pinned to the root weight.  Returns (the
    network, one trace record per cut in preorder)."""
    score = cfg.score
    if score.kind == "bic":
        score = dataclasses.replace(score, root_dataset_size=d.total_weight)
    trace = []

    def grow(dsub, depth):
        tree = ref_learn_clt(dsub, score.fit_beta)
        cut = None
        if dsub.n_vars >= 2 and dsub.total_weight > 0:
            candidates = select_best_candidates(dsub, cfg.lam)
            cut = ref_select_best_cut(tree, dsub, candidates, score)
        if cut is None:
            return Leaf(tree)
        n0, n1 = cut.counts.n0, cut.counts.n1
        trace.append(dict(var=cut.var, delta=cut.delta, n0=n0, n1=n1, depth=depth))
        kids = [grow(restrict(dsub, cut.var, b), depth + 1) for b in (0, 1)]
        return DecisionNode(cut.var, ref_decision_weights(n0, n1, score), kids)

    return CutsetNetwork(grow(d, 0), d.variable_ids.copy()), trace


# ---------------------------------------------------------------------------
# per-row density reference

def ref_clt_log_density_rows(t: ChowLiuTree, x: np.ndarray, columns=None) -> np.ndarray:
    """Each row's log density, started at 0.0 and summed one Python float
    at a time in tree order: np.log(t.cpt)[v, u, x_v], u the parent's
    value or 0 at the root.  `columns` is as in clt_log_density_rows."""
    if columns is None:
        columns = range(t.n_vars)
    with np.errstate(divide="ignore"):
        logcpt = np.log(t.cpt)
    out = []
    for row in np.asarray(x).tolist():
        ll = 0.0
        for v in t.order.tolist():
            p = int(t.parents[v])
            u = 0 if p < 0 else row[columns[p]]
            ll += float(logcpt[v, u, row[columns[v]]])
        out.append(ll)
    return np.array(out)


def ref_cnet_log_density_rows(net: CutsetNetwork, x: np.ndarray) -> np.ndarray:
    """Each row's log density as it was summed one leaf and one variable at
    a time: from 0.0, the log weight of each branch on the row's path,
    root first, then the row's ref_clt_log_density_rows under its leaf.
    A row that reaches no leaf reads NaN."""
    x = np.asarray(x)
    ids = net.variable_ids.tolist()
    out = np.full(len(x), np.nan)

    def route(node, item, k):
        rows, path = item
        w = float(node.weights[k])
        sub = rows[x[rows, ids.index(node.var)] == k]
        return sub, path + (math.log(w) if w > 0 else -math.inf)

    for node, (rows, path) in walk(net.root, (np.arange(len(x)), 0.0), route):
        if node.kind == "leaf":
            cols = [ids.index(v) for v in node.tree.variable_ids.tolist()]
            leaf = ref_clt_log_density_rows(node.tree, x[rows], cols)
            out[rows] = [path + float(v) for v in leaf]
    return out


def ref_mixture_log_density_rows(m: Mixture, x: np.ndarray) -> np.ndarray:
    """Each component's ref_cnet_log_density_rows plus its log weight, then
    a log-sum-exp over the components."""
    with np.errstate(divide="ignore"):
        logw = np.log(m.mix_weights)
    stacked = np.stack(
        [logw[k] + ref_cnet_log_density_rows(c, x) for k, c in enumerate(m.components)]
    )
    return log_sum_exp_rows(stacked)


# ---------------------------------------------------------------------------
# per-row MPE references: one {global id: value} evidence dict at a time,
# as the library answered queries before it took evidence matrices

def evidence_matrix(evidences, ids) -> np.ndarray:
    """int8 evidence matrix, one row per {global id: value} dict and one
    column per id in `ids`; -1 marks a free cell."""
    col = {int(g): i for i, g in enumerate(ids)}
    ev = np.full((len(evidences), len(col)), -1, dtype=np.int8)
    for r, evidence in enumerate(evidences):
        for g, val in evidence.items():
            ev[r, col[int(g)]] = val
    return ev


def mpe_of(mpe, model, evidence: dict) -> tuple:
    """(values, score) that `mpe` (clt_mpe or cnet_mpe) gives for one
    {global id: value} evidence dict."""
    values, scores = mpe(model, evidence_matrix([evidence], model.variable_ids))
    return values[0], float(scores[0])


def evidence_dict(row, ids) -> dict:
    """The observed cells of one evidence-matrix row, by global id."""
    return {int(g): int(v) for g, v in zip(ids, row) if v >= 0}


def ref_clt_mpe(t: ChowLiuTree, evidence: dict) -> tuple:
    """Max-product over the tree with scalar messages; ties go to 0, and
    an observed value is kept even when it has probability 0."""
    id_to_local = {int(g): v for v, g in enumerate(t.variable_ids)}
    fixed = {id_to_local[g]: int(val) for g, val in evidence.items()}

    kids = t.children()
    msg = np.zeros((t.n_vars, 2))
    choice = np.zeros((t.n_vars, 2), dtype=np.int64)
    with np.errstate(divide="ignore"):
        logcpt = np.log(t.cpt)

    for v in t.order[::-1]:
        p = t.parents[v]
        n_pvals = 1 if p < 0 else 2
        for u in range(n_pvals):
            best, best_x = -math.inf, fixed.get(v, 0)
            for x in (0, 1):
                if v in fixed and fixed[v] != x:
                    continue
                s = logcpt[v, u, x]
                for c in kids[v]:
                    s += msg[c, x]
                if s > best:
                    best, best_x = s, x
            msg[v, u] = best
            choice[v, u] = best_x

    values = np.zeros(t.n_vars, dtype=np.uint8)
    for v in t.order:
        p = t.parents[v]
        u = 0 if p < 0 else values[p]
        values[v] = choice[v, u]
    return values, float(clt_log_density_rows(t, values[None, :])[0])


def ref_cnet_mpe(net: CutsetNetwork, evidence: dict) -> tuple:
    """Bottom-up over the nodes the evidence allows, one assignment dict
    per node; ties go to branch 0."""
    ev_all = {int(v): int(val) for v, val in evidence.items()}

    def route(node, _, k):
        if ev_all.get(int(node.var), k) != k:
            return None
        w = float(node.weights[k])
        return math.log(w) if w > 0 else -math.inf

    done = {}
    for node, logw in reversed(list(walk(net.root, 0.0, route))):
        if node.kind == "leaf":
            ids = node.tree.variable_ids
            ev = {int(g): ev_all[int(g)] for g in ids if int(g) in ev_all}
            vals, s = ref_clt_mpe(node.tree, ev)
            assign = dict(zip((int(g) for g in ids), (int(v) for v in vals)))
            done[id(node)] = (assign, s, logw)
            continue
        var = int(node.var)
        branch = [done.get(id(c)) for c in node.children]
        if var in ev_all:
            k = ev_all[var]
        else:
            (_, s0, w0), (_, s1, w1) = branch
            k = 1 if w1 + s1 > w0 + s0 else 0
        assign, s, w = branch[k]
        assign[var] = k
        done[id(node)] = (assign, s + w, logw)

    assign = done[id(net.root)][0]
    values = np.array([assign[int(v)] for v in net.variable_ids], dtype=np.uint8)
    return values, float(cnet_log_density_rows(net, values[None, :])[0])


def ref_model_mpe(model, evidence: dict) -> tuple:
    """For a mixture, the first per-component MPE that the mixture scores
    best."""
    if not isinstance(model, Mixture):
        return ref_cnet_mpe(model, evidence)
    best = None
    for comp in model.components:
        values, _ = ref_cnet_mpe(comp, evidence)
        score = float(mixture_log_density_rows(model, values[None, :])[0])
        if best is None or score > best[1]:
            best = (values, score)
    return best


def ref_mixture_circuit_log_values(m: Mixture, x: np.ndarray) -> np.ndarray:
    """Mixture log density through one circuit per component: each
    component's root log value plus its log weight, then a log-sum-exp
    over the components."""
    with np.errstate(divide="ignore"):
        logw = np.log(m.mix_weights)
    stacked = np.stack(
        [
            logw[k] + circuit_log_values(compile_cnet(c), x)
            for k, c in enumerate(m.components)
        ]
    )
    return log_sum_exp_rows(stacked)


# ---------------------------------------------------------------------------
# circuit pass reference

_REF_CHUNK = 4096


def _ref_log_forward(circuit, chunk: np.ndarray):
    """The circuit pass as it was before sums with one live input
    skipped log-sum-exp: one np.where per indicator, log weights taken
    per sum and chunk, a full log-sum-exp on every sum.  Yields (node,
    its inputs' log values, its log value) in topological order."""
    col = {v: i for i, v in enumerate(sorted(circuit.scope(circuit.root)))}
    vals = {}
    for node, released in zip(circuit.nodes, circuit.released):
        if node.kind == "indicator":
            ins = []
            ok = chunk[:, col[int(node.var)]] == node.value
            v = np.where(ok, 0.0, -np.inf)
        elif node.kind == "product":
            ins = [vals[id(c)] for c in node.inputs]
            v = ins[0].copy()
            for child in ins[1:]:
                v = v + child
        else:
            ins = [vals[id(c)] for c in node.inputs]
            with np.errstate(divide="ignore"):
                logw = np.log(np.asarray(node.weights, dtype=np.float64))
            v = log_sum_exp_rows(np.stack([logw[k] + c for k, c in enumerate(ins)]))
        vals[id(node)] = v
        yield node, ins, v
        for key in released:
            del vals[key]


def ref_circuit_log_values(circuit, x) -> np.ndarray:
    """Root log value per row by the reference pass."""
    x = np.asarray(x)
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _REF_CHUNK):
        for _, _, v in _ref_log_forward(circuit, x[lo : lo + _REF_CHUNK]):
            pass
        out[lo : lo + len(v)] = v
    return out


def ref_check_deterministic(circuit, x=None) -> bool:
    """Determinism by the reference pass, recounting every sum's inputs
    above -inf; with `x` omitted, on every assignment of the root scope."""
    if x is None:
        x = enumerate_bits(len(circuit.scope(circuit.root)))
    for lo in range(0, x.shape[0], _REF_CHUNK):
        for node, ins, _ in _ref_log_forward(circuit, x[lo : lo + _REF_CHUNK]):
            if node.kind == "sum" and np.any(sum(v > -np.inf for v in ins) > 1):
                return False
    return True
