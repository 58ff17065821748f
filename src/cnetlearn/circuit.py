"""Explicit arithmetic-circuit form of the learned models.

A compiled cutset network becomes a rooted DAG of sum, product, and
indicator nodes.  Decision nodes turn into weighted sums whose branches
are gated by complementary indicators; each Chow-Liu leaf contributes,
per (variable, parent-value) pair, one shared sum node encoding that
CPT row.  Sharing those messages keeps the circuit's free-parameter
count identical to the structure's parameter count.  Indicators are
never shared: every use is a fresh node, and no merging of structurally
identical sub-circuits is attempted.  A mixture compiles to one sum
over its components' circuits; that root sum is in general not
deterministic, while every other node keeps its component's properties.

The checks below certify the three properties the models promise by
construction: smoothness (sum inputs cover the same scope),
decomposability (product inputs have disjoint scopes), and determinism
(at most one input of any sum is positive on any complete assignment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnet import walk
from .data import _check_cells
from .mixture import Mixture
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
    users), a scope per node, per position the nodes whose last user
    sits there, and each sum's log weights as they were when it was made."""

    root: object
    nodes: list
    scopes: dict  # id(node) -> scope as a bitmask: bit b stands for variables[b]
    variables: list  # variable ids in order of first use
    released: list  # released[i]: ids of the nodes last used by nodes[i]
    log_weights: list  # log_weights[i]: log of nodes[i].weights for a sum, else None

    def scope(self, node) -> frozenset:
        bits = bin(self.scopes[id(node)])[:1:-1]  # least significant first
        return frozenset(self.variables[b] for b, c in enumerate(bits) if c == "1")


def make_circuit(root) -> Circuit:
    """Topologically order the DAG under `root` and validate local node
    well-formedness (arities, weight normalization, acyclicity)."""
    nodes = []
    scopes = {}  # id -> scope of each finished node
    bits = {}  # variable id -> its bit in the scopes
    last_user = {}  # id(node) -> position of its last user
    sums = {}  # arity -> positions of the sums with that many inputs
    on_path = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        key = id(node)
        if not done:
            if key in scopes:
                continue
            if key in on_path:
                raise ValueError("circuit graph has a cycle")
            on_path.add(key)
            stack.append((node, True))
            for child in getattr(node, "inputs", ()):
                if id(child) not in scopes:
                    stack.append((child, False))
            continue
        on_path.remove(key)
        i = len(nodes)
        nodes.append(node)
        if node.kind == "indicator":
            if node.value not in (0, 1):
                raise ValueError("indicator value must be 0 or 1")
            scopes[key] = 1 << bits.setdefault(int(node.var), len(bits))
            continue
        if not node.inputs:
            raise ValueError("interior circuit nodes need at least one input")
        if node.kind == "sum":
            if np.shape(node.weights) != (len(node.inputs),):
                raise ValueError("sum node weight/input arity mismatch")
            sums.setdefault(len(node.inputs), []).append(i)
        scope = 0
        for child in node.inputs:
            scope |= scopes[id(child)]
            last_user[id(child)] = i
        scopes[key] = scope
    log_weights = [None] * len(nodes)
    for at in sums.values():
        w = np.array([nodes[i].weights for i in at], dtype=np.float64)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("sum weights must be finite and nonnegative")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("sum weights must be normalized")
        with np.errstate(divide="ignore"):
            for i, row in zip(at, np.log(w)):
                log_weights[i] = row
    released = [[] for _ in nodes]
    for key, i in last_user.items():
        released[i].append(key)
    return Circuit(root, nodes, scopes, list(bits), released, log_weights)


def compile_cnet(model) -> Circuit:
    """Translate a cutset network, or a mixture of them, into an
    equivalent circuit.

    Every decision node becomes a two-way gated sum.  Inside a Chow-Liu
    leaf the sub-circuit for (variable v, parent value u) is built once
    and shared by every product that needs it, so each CPT row appears
    as exactly one sum node.  A mixture becomes one sum over its
    components' circuits, weighted by the mixture weights.
    """
    if isinstance(model, Mixture):
        roots = [_cnet_root(c) for c in model.components]
        return make_circuit(SumNode(roots, model.mix_weights.copy()))
    return make_circuit(_cnet_root(model))


def _cnet_root(net):
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
                msg[(v, u)] = SumNode(prods, tree.cpt[v, u].copy())
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
    return done[id(net.root)]


def _chunk_rows(n_vars: int) -> int:
    """At most 4,096, and few enough rows that a chunk's indicator table
    (two float64 rows per variable) stays within 4 MiB."""
    return max(1, min(4096, (4 << 20) // (16 * n_vars)))


def _log_forward(circuit: Circuit, chunk: np.ndarray):
    """One pass over `circuit` on a row chunk whose columns follow the
    ascending root scope.  Yields, in topological order, (node, its log
    value, whether it is a sum with two or more inputs above -inf on
    some row); a value is dropped as soon as its last user has been
    yielded, so only live values are held.

    Indicators are row views of one table[value, column].  Where a sum
    has at most one live input, log-sum-exp adds log(1.0) = 0.0 to the
    maximum, so the maximum alone is its value.  A sum with two live
    inputs on some row, such as a mixture's root, runs log_sum_exp_rows
    on all its rows."""
    col = {v: i for i, v in enumerate(sorted(circuit.scope(circuit.root)))}
    cells = np.ascontiguousarray(chunk.T)
    table = np.where(cells == np.arange(2)[:, None, None], 0.0, -np.inf)
    vals = {}
    for node, logw, released in zip(
        circuit.nodes, circuit.log_weights, circuit.released
    ):
        multi = False
        if node.kind == "indicator":
            v = table[int(node.value), col[node.var]]
        elif node.kind == "product":
            ins = [vals[id(c)] for c in node.inputs]
            v = ins[0] if len(ins) == 1 else ins[0] + ins[1]
            for x in ins[2:]:
                v += x
        else:
            ins = [vals[id(c)] for c in node.inputs]
            terms = [w + x for w, x in zip(logw, ins)]
            live = (ins[0] > -np.inf).astype(np.intp)
            for x in ins[1:]:
                live += x > -np.inf
            multi = live.max() > 1
            if multi:
                v = log_sum_exp_rows(np.stack(terms))
            else:
                v = terms[0]
                for t in terms[1:]:
                    np.maximum(v, t, out=v)
        vals[id(node)] = v
        yield node, v, multi
        for key in released:
            del vals[key]


def circuit_log_values(circuit: Circuit, x) -> np.ndarray:
    """Root log value per row; computed entirely in the log domain.
    Columns follow the ascending root scope."""
    n_vars = len(circuit.scope(circuit.root))
    x = _check_cells(x, n_vars)
    rows = _chunk_rows(n_vars)
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], rows):
        for _, v, _ in _log_forward(circuit, x[lo : lo + rows]):
            pass  # the root comes last
        out[lo : lo + len(v)] = v
    return out


def circuit_values(circuit: Circuit, x) -> np.ndarray:
    """Root value (linear domain) per row: exp of circuit_log_values."""
    return np.exp(circuit_log_values(circuit, x))


def check_smooth(circuit: Circuit) -> bool:
    """True iff every sum's inputs all share the sum's scope."""
    scopes = circuit.scopes
    for node in circuit.nodes:
        if node.kind == "sum":
            scope = scopes[id(node)]
            if any(scopes[id(c)] != scope for c in node.inputs):
                return False
    return True


def check_decomposable(circuit: Circuit) -> bool:
    """True iff every product's inputs have pairwise disjoint scopes."""
    scopes = circuit.scopes
    for node in circuit.nodes:
        if node.kind == "product":
            sizes = sum(scopes[id(c)].bit_count() for c in node.inputs)
            if sizes != scopes[id(node)].bit_count():
                return False
    return True


def _assignment_chunks(n_vars: int, rows: int):
    """Every assignment of `n_vars` binary variables, in itertools.product
    order (first variable most significant), as uint8 chunks of `rows`
    rows built from their row indices."""
    shifts = np.arange(n_vars - 1, -1, -1)
    total = 1 << n_vars
    for lo in range(0, total, rows):
        idx = np.arange(lo, min(lo + rows, total))
        yield ((idx[:, None] >> shifts) & 1).astype(np.uint8)


_MAX_EXHAUSTIVE_VARS = 20


def check_deterministic(circuit: Circuit, x=None) -> bool:
    """True iff on every checked complete assignment, at most one input
    of each sum node evaluates to a positive value (a log value above
    -inf, so tiny values that underflow a linear pass still count).

    Columns of `x` follow the ascending root scope.  With `x` omitted,
    all assignments over the root scope are enumerated a chunk at a time
    (refused above 20 variables; pass samples then).
    """
    n_vars = len(circuit.scope(circuit.root))
    rows = _chunk_rows(n_vars)
    if x is None:
        if n_vars > _MAX_EXHAUSTIVE_VARS:
            raise ValueError(
                "scope too large for exhaustive check; pass sample assignments"
            )
        chunks = _assignment_chunks(n_vars, rows)
    else:
        x = _check_cells(x, n_vars)
        chunks = (x[lo : lo + rows] for lo in range(0, x.shape[0], rows))
    for chunk in chunks:
        for _, _, multi in _log_forward(circuit, chunk):
            if multi:
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
