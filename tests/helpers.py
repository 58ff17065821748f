"""Shared test utilities: independent oracles and random model builders.

Everything here is deliberately written from first principles (exact
rational arithmetic, brute-force enumeration) so the tests do not reuse
the library's own numerics as their reference.
"""

from __future__ import annotations

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
    clt_bd_score,
    clt_log_density_rows,
    clt_log_likelihood,
    cnet_log_density_rows,
    compile_cnet,
    log_sum_exp_rows,
    mixture_log_density_rows,
    restrict,
    structure_param_count,
)
from cnetlearn.clt import _fit_cpts
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
    cpt = []
    for v in range(n):
        n_rows = 1 if parents[v] < 0 else 2
        p1 = rng.uniform(0.05, 0.95, size=n_rows)
        cpt.append(np.stack([1.0 - p1, p1], axis=1))
    return ChowLiuTree(ids, parents, order, cpt)


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

def ref_fit_cpts(d: WeightedDataset, parents, beta: float) -> list:
    """Per-family CPT fit by np.add.at, one smoothed row at a time."""

    def smoothed_row(counts):
        denom = counts.sum() + 2.0 * beta
        if denom <= 0:
            return np.array([0.5, 0.5])
        return (counts + beta) / denom

    cpts = []
    w = d.weights
    for v in range(d.n_vars):
        xv = d.samples[:, v].astype(np.int64)
        if parents[v] < 0:
            counts = np.zeros(2)
            np.add.at(counts, xv, w)
            cpts.append(smoothed_row(counts)[None, :])
        else:
            xu = d.samples[:, parents[v]].astype(np.int64)
            table = np.zeros((2, 2))
            np.add.at(table, (xu, xv), w)
            cpts.append(np.vstack([smoothed_row(table[u]) for u in (0, 1)]))
    return cpts


def ref_bd_family(counts, alpha: float) -> float:
    """Log marginal likelihood of one Dirichlet(alpha/2, alpha/2) row."""
    n = counts.sum()
    score = math.lgamma(alpha) - math.lgamma(alpha + n)
    for k in (0, 1):
        score += math.lgamma(alpha / 2 + counts[k]) - math.lgamma(alpha / 2)
    return score


def ref_clt_bd_score(t: ChowLiuTree, d: WeightedDataset, alpha: float) -> float:
    """Tree BD score summed family by family, in variable order."""
    w = d.weights
    score = 0.0
    for v in range(t.n_vars):
        xv = d.samples[:, v].astype(np.int64)
        if t.parents[v] < 0:
            counts = np.zeros(2)
            np.add.at(counts, xv, w)
            score += ref_bd_family(counts, alpha)
        else:
            xu = d.samples[:, t.parents[v]].astype(np.int64)
            table = np.zeros((2, 2))
            np.add.at(table, (xu, xv), w)
            for u in (0, 1):
                score += ref_bd_family(table[u], alpha)
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
    cpts = _fit_cpts(d, tree.parents, beta)
    refit = ChowLiuTree(tree.variable_ids, tree.parents, tree.order, cpts)
    return clt_log_likelihood(refit, d)


def ref_bd_cnet(net, d: WeightedDataset, alpha: float) -> float:
    def rec(node, dsub) -> float:
        if node.kind == "leaf":
            return clt_bd_score(node.tree, dsub, alpha)
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
            + clt_log_likelihood(t0, d0)
            + clt_log_likelihood(t1, d1)
        )
        extra_params = 2 * leaf.n_vars - 4
        penalty = 0.5 * math.log(cfg.root_dataset_size) * extra_params
        delta = ll_after - before - penalty
    return CutCandidate(var, float(delta), counts, (t0, t1), (d0, d1))


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
    """Max-product over the tree with scalar messages; ties go to 0."""
    id_to_local = {int(g): v for v, g in enumerate(t.variable_ids)}
    fixed = {id_to_local[g]: int(val) for g, val in evidence.items()}

    kids = t.children()
    msg = np.zeros((t.n_vars, 2))
    choice = np.zeros((t.n_vars, 2), dtype=np.int64)
    with np.errstate(divide="ignore"):
        logcpt = [np.log(c) for c in t.cpt]

    for v in t.order[::-1]:
        p = t.parents[v]
        n_pvals = 1 if p < 0 else 2
        for u in range(n_pvals):
            best, best_x = -math.inf, 0
            for x in (0, 1):
                if v in fixed and fixed[v] != x:
                    continue
                s = logcpt[v][u, x]
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
