"""Differential tests: the batched MPE queries against the per-row
references in helpers.py, which answer one evidence dict at a time, and
the densities against references that sum one Python float at a time,
one leaf after another.

Values and scores must agree exactly: the batched passes keep the
references' float operations and tie rules.  Half the models draw their
probabilities from three values only, so that tied scores, and with them
the tie rules, are common.  The MPE and density kernels stack the (row,
leaf) pairs of a query widest first; their tests also run them with
stacks of a few cells, on trees in any parents-first order, and with CPT
cells of exactly 0, whose evidence is impossible and scores -inf.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cnetlearn import clt as clt_module
from cnetlearn import (
    ChowLiuTree,
    CutsetNetwork,
    Leaf,
    Mixture,
    clt_log_density_rows,
    clt_mpe,
    cnet_log_density_rows,
    cnet_mpe,
    mixture_log_density_rows,
)
from cnetlearn.cli import _model_mpe
from cnetlearn.cnet import walk

from helpers import (
    cpt_of,
    evidence_dict,
    induced_path,
    random_net,
    random_tree,
    ref_clt_log_density_rows,
    ref_clt_mpe,
    ref_cnet_log_density_rows,
    ref_cnet_mpe,
    ref_mixture_log_density_rows,
    ref_model_mpe,
)

SETTINGS = settings(max_examples=100, deadline=None)


def _scope(rng, n_vars: int) -> np.ndarray:
    return np.sort(rng.choice(100, size=n_vars, replace=False))


def _rows(rng, n: int) -> np.ndarray:
    p1 = rng.choice([0.25, 0.5, 0.75], size=n)
    return np.stack([1.0 - p1, p1], axis=1)


def _coarsen(rng, tree_or_nets) -> None:
    """Redraw every CPT row and branch weight pair with P(1) in
    {1/4, 1/2, 3/4}."""
    if isinstance(tree_or_nets, ChowLiuTree):
        parents = tree_or_nets.parents.tolist()
        tree_or_nets.cpt = cpt_of([_rows(rng, 1 if p < 0 else 2) for p in parents])
        return
    for net in tree_or_nets:
        for node, _ in walk(net.root):
            if node.kind == "leaf":
                _coarsen(rng, node.tree)
            else:
                node.weights = _rows(rng, 1)[0]


def _cut_vars(nets) -> list:
    nodes = [node for net in nets for node, _ in walk(net.root)]
    return sorted({int(node.var) for node in nodes if node.kind == "decision"})


def _evidence(rng, ids, cut_vars, n_mixed: int = 8) -> np.ndarray:
    """Rows all free, all observed, observing every cut variable and
    nothing else, then rows that observe each cell with probability 1/2."""
    d = len(ids)
    on_cuts = np.full(d, -1)
    cols = np.searchsorted(ids, cut_vars)
    on_cuts[cols] = rng.integers(0, 2, size=len(cols))
    mixed = np.where(
        rng.random((n_mixed, d)) < 0.5, rng.integers(0, 2, size=(n_mixed, d)), -1
    )
    rows = [np.full(d, -1), rng.integers(0, 2, size=d), on_cuts, *mixed]
    return np.array(rows, dtype=np.int8)


def _assert_matches(batched, reference, ids, ev) -> None:
    values, scores = batched
    assert values.shape == ev.shape and scores.shape == (len(ev),)
    for r, row in enumerate(ev):
        want_values, want_score = reference(evidence_dict(row, ids))
        assert np.array_equal(values[r], want_values), r
        assert scores[r] == want_score, r


# the density kernel's default caps; caps that split one leaf's rows
# over several stacks; and ones that score leaves of a few rows one
# variable at a time
DENSITY_CELLS = st.sampled_from([clt_module._DENSITY_CELLS, 7, 40])
LOOP_ROWS = st.sampled_from([clt_module._LOOP_ROWS, 1, 4])


@SETTINGS
@given(st.integers(1, 9), st.integers(0, 3), LOOP_ROWS, st.integers(0, 2**32 - 1))
def test_tree_density_equals_reference(n_vars, n_zero, loop_rows, seed):
    # bit for bit, since MPE tie-breaks read these sums: the tree's
    # variables sit in permuted columns among unused ones, and n_zero
    # CPT cells are 0, so the rows that hit one score -inf
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, _scope(rng, n_vars))
    for _ in range(n_zero):
        v, u, x = int(rng.integers(0, n_vars)), int(rng.integers(0, 2)), int(rng.integers(0, 2))
        tree.cpt[v, u, x], tree.cpt[v, u, 1 - x] = 0.0, 1.0
    columns = rng.permutation(n_vars + 2)[:n_vars]
    x = rng.integers(0, 2, size=(32, n_vars + 2)).astype(np.uint8)
    want = ref_clt_log_density_rows(tree, x, columns)
    for run in (
        lambda: clt_log_density_rows(tree, x, columns=columns),
        lambda: clt_log_density_rows(tree, x[:, columns]),
    ):
        assert _kernel_runs(run, _LOOP_ROWS=loop_rows).tobytes() == want.tobytes()


@SETTINGS
@given(st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_tree_mpe_equals_reference(n_vars, coarse, seed):
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    tree = random_tree(rng, ids)
    if coarse:
        _coarsen(rng, tree)
    ev = _evidence(rng, ids, [])
    _assert_matches(clt_mpe(tree, ev), lambda e: ref_clt_mpe(tree, e), ids, ev)


@SETTINGS
@given(st.integers(1, 8), st.integers(0, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_net_mpe_equals_reference(n_vars, n_decisions, coarse, seed):
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    net = random_net(rng, ids, n_decisions)
    if coarse:
        _coarsen(rng, [net])
    ev = _evidence(rng, ids, _cut_vars([net]))
    _assert_matches(cnet_mpe(net, ev), lambda e: ref_cnet_mpe(net, e), ids, ev)


@SETTINGS
@given(st.integers(2, 7), st.integers(2, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_mixture_mpe_equals_reference(n_vars, n_components, coarse, seed):
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    comps = [random_net(rng, ids, 3) for _ in range(n_components)]
    if coarse:
        _coarsen(rng, comps)
    m = Mixture(comps, rng.dirichlet(np.ones(n_components)))
    ev = _evidence(rng, ids, _cut_vars(comps))
    _assert_matches(_model_mpe(m, ev), lambda e: ref_model_mpe(m, e), ids, ev)


def test_mixture_mpe_keeps_the_first_best_completion():
    # mirrored components: their completions 0 and 1 tie under the mixture
    def net(p1):
        zero = np.array([0])
        tree = ChowLiuTree(zero, np.array([-1]), zero, cpt_of([[[1 - p1, p1]]]))
        return CutsetNetwork(Leaf(tree), np.array([0]))

    m = Mixture([net(0.25), net(0.75)], [0.5, 0.5])
    values, scores = _model_mpe(m, np.array([[-1]]))
    assert values.tolist() == [[0]] and scores[0] == ref_model_mpe(m, {})[1]


def _any_parents_first_order(rng, tree: ChowLiuTree) -> None:
    """Reorder the tree: each next variable is drawn among those whose
    parent is already placed, so the order is rarely breadth first."""
    parents = tree.parents.tolist()
    order, ready = [], [parents.index(-1)]
    while ready:
        v = ready.pop(int(rng.integers(0, len(ready))))
        order.append(v)
        ready += [c for c, p in enumerate(parents) if p == v]
    tree.order = np.array(order, dtype=np.int64)


def _zero_cells(rng, tree: ChowLiuTree, n_zero: int) -> None:
    """Set n_zero random CPT cells, root rows included, to exactly 0."""
    for _ in range(n_zero):
        v = int(rng.integers(0, tree.n_vars))
        u = 0 if tree.parents[v] < 0 else int(rng.integers(0, 2))
        x = int(rng.integers(0, 2))
        tree.cpt[v, u, x], tree.cpt[v, u, 1 - x] = 0.0, 1.0


def _leaf_trees(nets) -> list:
    return [node.tree for net in nets for node, _ in walk(net.root) if node.kind == "leaf"]


def _kernel_runs(run, **caps):
    """run() with the clt kernels' caps named in `caps`, such as
    _MPE_CELLS, set to the values given."""
    kept = {name: getattr(clt_module, name) for name in caps}
    for name, value in caps.items():
        setattr(clt_module, name, value)
    try:
        return run()
    finally:
        for name, value in kept.items():
            setattr(clt_module, name, value)


# the default cap, and one that splits the pairs of one leaf
STACK_CELLS = st.sampled_from([clt_module._MPE_CELLS, 7])


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 4), STACK_CELLS, st.integers(0, 2**32 - 1))
def test_tree_mpe_in_any_order_with_zero_cells_equals_reference(n_vars, n_zero, cells, seed):
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    tree = random_tree(rng, ids)
    _coarsen(rng, tree)
    _any_parents_first_order(rng, tree)
    _zero_cells(rng, tree, n_zero)
    ev = _evidence(rng, ids, [])
    got = _kernel_runs(lambda: clt_mpe(tree, ev), _MPE_CELLS=cells)
    _assert_matches(got, lambda e: ref_clt_mpe(tree, e), ids, ev)


@SETTINGS
@given(
    st.integers(10, 16),
    st.integers(1, 3),
    st.integers(0, 3),
    STACK_CELLS,
    st.integers(0, 2**32 - 1),
)
def test_wide_nets_and_mixtures_mpe_equals_reference(n_vars, n_components, n_zero, cells, seed):
    # up to 15 cuts each, so the leaves reached by one query span many
    # widths, down to one variable, and share a stack
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    comps = [random_net(rng, ids, 15) for _ in range(n_components)]
    _coarsen(rng, comps)
    for tree in _leaf_trees(comps):
        _any_parents_first_order(rng, tree)
        _zero_cells(rng, tree, n_zero)
    ev = _evidence(rng, ids, _cut_vars(comps))
    if n_components == 1:
        net = comps[0]
        got = _kernel_runs(lambda: cnet_mpe(net, ev), _MPE_CELLS=cells)
        _assert_matches(got, lambda e: ref_cnet_mpe(net, e), ids, ev)
        return
    m = Mixture(comps, rng.dirichlet(np.ones(n_components)))
    got = _kernel_runs(lambda: _model_mpe(m, ev), _MPE_CELLS=cells)
    _assert_matches(got, lambda e: ref_model_mpe(m, e), ids, ev)


@SETTINGS
@given(
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 40),
    DENSITY_CELLS,
    LOOP_ROWS,
    st.integers(0, 2**32 - 1),
)
def test_net_and_mixture_densities_equal_reference(
    n_vars, n_components, n_zero, n_rows, cells, loop_rows, seed
):
    # bit for bit: up to 15 cuts, so many leaves, down to one variable,
    # and with few rows some leaves that no row reaches; trees in any
    # parents-first order; CPT cells and a branch weight of exactly 0, so
    # some rows score -inf
    rng = np.random.default_rng(seed)
    ids = _scope(rng, n_vars)
    comps = [random_net(rng, ids, 15) for _ in range(n_components)]
    for tree in _leaf_trees(comps):
        _any_parents_first_order(rng, tree)
        _zero_cells(rng, tree, n_zero)
    decisions = [node for net in comps for node, _ in walk(net.root) if node.kind != "leaf"]
    if decisions and n_zero:
        decisions[int(rng.integers(0, len(decisions)))].weights = np.array([0.0, 1.0])
    x = rng.integers(0, 2, size=(n_rows, n_vars)).astype(np.uint8)
    caps = dict(_DENSITY_CELLS=cells, _LOOP_ROWS=loop_rows)
    if n_components == 1:
        got = _kernel_runs(lambda: cnet_log_density_rows(comps[0], x), **caps)
        want = ref_cnet_log_density_rows(comps[0], x)
    else:
        m = Mixture(comps, rng.dirichlet(np.ones(n_components)))
        got = _kernel_runs(lambda: mixture_log_density_rows(m, x), **caps)
        want = ref_mixture_log_density_rows(m, x)
    assert got.tobytes() == want.tobytes()


def _leaf_of(net, row):
    path = induced_path(net, row)
    return path[-1][0].children[path[-1][1]] if path else net.root


def test_densities_over_many_stacks_equal_reference():
    # at the default caps: 4,000 rows over a network of 32 leaves fill
    # several stacks, and its larger leaves go one variable at a time
    rng = np.random.default_rng(38)
    ids = _scope(rng, 30)
    net = random_net(rng, ids, 31)
    x = rng.integers(0, 2, size=(4000, 30)).astype(np.uint8)
    reached = Counter(id(_leaf_of(net, row)) for row in x)
    cells = [
        reached[id(node)] * node.tree.n_vars
        for node, _ in walk(net.root)
        if node.kind == "leaf" and reached[id(node)] < clt_module._LOOP_ROWS
    ]
    assert sum(cells) > 2 * clt_module._DENSITY_CELLS
    assert max(reached.values()) >= clt_module._LOOP_ROWS
    assert cnet_log_density_rows(net, x).tobytes() == ref_cnet_log_density_rows(net, x).tobytes()
