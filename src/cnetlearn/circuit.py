"""Explicit arithmetic-circuit form of the learned models.

A compiled cutset network becomes a rooted DAG of sum, product, and
indicator nodes.  Decision nodes turn into weighted sums whose branches
are gated by complementary indicators; each Chow-Liu leaf contributes,
per (variable, parent-value) pair, one shared sum node encoding that
CPT row.  Sharing those messages keeps the circuit's free-parameter
count identical to the structure's parameter count.  Indicators are
never shared: every use is a fresh node, and no merging of structurally
identical sub-circuits is attempted.

The checks below certify the three properties the models promise by
construction: smoothness (sum inputs cover the same scope),
decomposability (product inputs have disjoint scopes), and determinism
(at most one input of any sum is positive on any complete assignment).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cnet import walk
from .data import DatasetError, _check_cells
from .numerics import log_sum_exp_rows

__all__ = [
    "SumNode",
    "ProductNode",
    "IndicatorLeaf",
    "Circuit",
    "CircuitSize",
    "make_circuit",
    "compile_cnet",
    "circuit_values",
    "circuit_log_values",
    "check_smooth",
    "check_decomposable",
    "check_deterministic",
    "circuit_size",
    "induced_path",
    "dump_circuit",
]


@dataclass(eq=False)
class SumNode:
    inputs: list
    weights: np.ndarray
    kind = "sum"


@dataclass(eq=False)
class ProductNode:
    inputs: list
    kind = "product"


@dataclass(eq=False)
class IndicatorLeaf:
    var: int
    value: int
    kind = "indicator"


@dataclass(eq=False)
class Circuit:
    """Rooted circuit DAG with nodes in topological order (inputs before
    users) and a scope per node."""

    root: object
    nodes: list
    scopes: dict  # id(node) -> frozenset of variable ids

    def scope(self, node) -> frozenset:
        return self.scopes[id(node)]


def make_circuit(root) -> Circuit:
    """Topologically order the DAG under `root` and validate local node
    well-formedness (arities, weight normalization, acyclicity)."""
    nodes = []
    state = {}  # id -> 1 while on the DFS path, 2 when finished
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            state[id(node)] = 2
            nodes.append(node)
            continue
        st = state.get(id(node))
        if st == 2:
            continue
        if st == 1:
            raise ValueError("circuit graph has a cycle")
        state[id(node)] = 1
        stack.append((node, True))
        for child in getattr(node, "inputs", ()):
            cst = state.get(id(child))
            if cst == 1:
                raise ValueError("circuit graph has a cycle")
            if cst != 2:
                stack.append((child, False))

    scopes = {}
    for node in nodes:
        if node.kind == "indicator":
            if node.value not in (0, 1):
                raise ValueError("indicator value must be 0 or 1")
            scopes[id(node)] = frozenset([int(node.var)])
            continue
        if not node.inputs:
            raise ValueError("interior circuit nodes need at least one input")
        if node.kind == "sum":
            w = np.asarray(node.weights, dtype=np.float64)
            if w.shape != (len(node.inputs),):
                raise ValueError("sum node weight/input arity mismatch")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ValueError("sum weights must be finite and nonnegative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValueError("sum weights must be normalized")
        scope = frozenset()
        for child in node.inputs:
            scope = scope | scopes[id(child)]
        scopes[id(node)] = scope
    return Circuit(root, nodes, scopes)


def compile_cnet(net) -> Circuit:
    """Translate a cutset network into an equivalent circuit.

    Every decision node becomes a two-way gated sum.  Inside a Chow-Liu
    leaf the sub-circuit for (variable v, parent value u) is built once
    and shared by every product that needs it, so each CPT row appears
    as exactly one sum node.
    """

    def tree_circuit(tree):
        kids = tree.children()
        msg = {}  # (local var, parent value) -> shared SumNode
        for v in tree.order[::-1]:  # children before parents
            gid = int(tree.variable_ids[v])
            pvals = (0,) if tree.parents[v] < 0 else (0, 1)
            for u in pvals:
                prods = []
                for x in (0, 1):
                    parts = [IndicatorLeaf(gid, x)]
                    parts.extend(msg[(c, x)] for c in kids[v])
                    prods.append(ProductNode(parts))
                msg[(v, u)] = SumNode(
                    prods, np.array(tree.cpt[v][u], dtype=np.float64)
                )
        return msg[(int(tree.root), 0)]

    done = {}  # id(net node) -> compiled circuit node, children first
    for node, _ in reversed(list(walk(net.root))):
        if node.kind == "leaf":
            done[id(node)] = tree_circuit(node.tree)
            continue
        branches = []
        for k in (0, 1):
            gate = IndicatorLeaf(int(node.var), k)
            branches.append(ProductNode([gate, done[id(node.children[k])]]))
        done[id(node)] = SumNode(
            branches, np.asarray(node.weights, dtype=np.float64).copy()
        )

    return make_circuit(done[id(net.root)])


def _column_map(circuit: Circuit, variable_ids) -> dict:
    if variable_ids is None:
        variable_ids = sorted(circuit.scope(circuit.root))
    col = {int(v): i for i, v in enumerate(variable_ids)}
    missing = circuit.scope(circuit.root) - col.keys()
    if missing:
        raise DatasetError(f"assignment is missing variables {sorted(missing)}")
    return col


_CHUNK = 4096


def _log_forward(circuit: Circuit, chunk: np.ndarray, col: dict) -> dict:
    """Log-domain value vector for every node, on one row chunk."""
    vals = {}
    for node in circuit.nodes:
        if node.kind == "indicator":
            ok = chunk[:, col[int(node.var)]] == node.value
            v = np.where(ok, 0.0, -np.inf)
        elif node.kind == "product":
            v = vals[id(node.inputs[0])].copy()
            for child in node.inputs[1:]:
                v = v + vals[id(child)]
        else:
            with np.errstate(divide="ignore"):
                logw = np.log(np.asarray(node.weights, dtype=np.float64))
            stacked = np.stack(
                [logw[k] + vals[id(c)] for k, c in enumerate(node.inputs)]
            )
            v = log_sum_exp_rows(stacked)
        vals[id(node)] = v
    return vals


def circuit_log_values(circuit: Circuit, x, variable_ids=None) -> np.ndarray:
    """Root log value per row; computed entirely in the log domain.
    Columns follow `variable_ids`, default ascending root scope."""
    col = _column_map(circuit, variable_ids)
    x = _check_cells(x, len(col))
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _CHUNK):
        chunk = x[lo : lo + _CHUNK]
        vals = _log_forward(circuit, chunk, col)
        out[lo : lo + len(chunk)] = vals[id(circuit.root)]
    return out


def circuit_values(circuit: Circuit, x, variable_ids=None) -> np.ndarray:
    """Root value (linear domain) per row: exp of circuit_log_values."""
    return np.exp(circuit_log_values(circuit, x, variable_ids))


def check_smooth(circuit: Circuit) -> bool:
    """True iff every sum's inputs all share the sum's scope."""
    for node in circuit.nodes:
        if node.kind == "sum":
            scope = circuit.scope(node)
            for child in node.inputs:
                if circuit.scope(child) != scope:
                    return False
    return True


def check_decomposable(circuit: Circuit) -> bool:
    """True iff every product's inputs have pairwise disjoint scopes."""
    for node in circuit.nodes:
        if node.kind == "product":
            sizes = sum(len(circuit.scope(c)) for c in node.inputs)
            if sizes != len(circuit.scope(node)):
                return False
    return True


def _enumerate_assignments(n_vars: int) -> np.ndarray:
    combos = itertools.product((0, 1), repeat=n_vars)
    return np.array(list(combos), dtype=np.int64).reshape(-1, n_vars)


def check_deterministic(
    circuit: Circuit, x=None, variable_ids=None, max_exhaustive_vars: int = 20
) -> bool:
    """True iff on every checked complete assignment, at most one input
    of each sum node evaluates to a positive value (a log value above
    -inf, so tiny values that underflow a linear pass still count).

    With `x` omitted, all assignments over the root scope are enumerated
    (refused above `max_exhaustive_vars` variables; pass samples then).
    """
    scope_vars = sorted(circuit.scope(circuit.root))
    if x is None:
        if len(scope_vars) > max_exhaustive_vars:
            raise ValueError(
                "scope too large for exhaustive check; pass sample assignments"
            )
        x = _enumerate_assignments(len(scope_vars))
        variable_ids = scope_vars
    col = _column_map(circuit, variable_ids)
    x = _check_cells(x, len(col))
    sums = [n for n in circuit.nodes if n.kind == "sum"]
    for lo in range(0, x.shape[0], _CHUNK):
        vals = _log_forward(circuit, x[lo : lo + _CHUNK], col)
        for node in sums:
            positive = np.zeros(len(vals[id(node)]), dtype=np.int64)
            for child in node.inputs:
                positive += vals[id(child)] > -np.inf
            if np.any(positive > 1):
                return False
    return True


@dataclass
class CircuitSize:
    n_nodes: int
    n_edges: int
    n_params: int


def circuit_size(circuit: Circuit) -> CircuitSize:
    """Node, edge, and free-parameter totals.  A sum with k inputs holds
    k - 1 free parameters, everything else none."""
    nodes = len(circuit.nodes)
    edges = 0
    params = 0
    for node in circuit.nodes:
        edges += len(getattr(node, "inputs", ()))
        if node.kind == "sum":
            params += len(node.inputs) - 1
    return CircuitSize(nodes, edges, params)


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


def dump_circuit(circuit: Circuit) -> str:
    """Stable text form, one node per line in topological order."""
    index = {id(node): i for i, node in enumerate(circuit.nodes)}
    lines = []
    for i, node in enumerate(circuit.nodes):
        if node.kind == "indicator":
            lines.append(f"{i} IND {int(node.var)}={int(node.value)}")
        else:
            scope = ",".join(str(v) for v in sorted(circuit.scope(node)))
            ins = ",".join(str(index[id(c)]) for c in node.inputs)
            if node.kind == "product":
                lines.append(f"{i} PROD scope={scope} in={ins}")
            else:
                w = ",".join(repr(float(v)) for v in node.weights)
                lines.append(f"{i} SUM scope={scope} w={w} in={ins}")
    return "\n".join(lines) + "\n"
