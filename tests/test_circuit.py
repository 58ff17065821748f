"""Circuit compilation, evaluation, structural property checks, and the
size accounting."""

import math
import tracemalloc

import numpy as np
import pytest

from cnetlearn import (
    BD,
    BIC,
    IndicatorLeaf,
    LearnerConfig,
    Mixture,
    ProductNode,
    ScoreConfig,
    SumNode,
    check_decomposable,
    check_deterministic,
    check_smooth,
    circuit_log_values,
    circuit_size,
    circuit_values,
    cnet_log_density_rows,
    compile_cnet,
    dump_circuit,
    induced_path,
    learn_clt,
    learn_cnet,
    learn_sem,
    make_circuit,
    structure_param_count,
)
from cnetlearn.cnet import CutsetNetwork, Leaf

from helpers import (
    count_decisions,
    enumerate_bits,
    random_dataset,
    random_net,
    ref_mixture_circuit_log_values,
    regime_samples,
    routed_decision_counts,
    unit_dataset,
)


def _walk_size(circuit):
    """Independent node/edge/parameter count by direct traversal."""
    n_edges = 0
    n_params = 0
    for node in circuit.nodes:
        kids = getattr(node, "inputs", ())
        n_edges += len(kids)
        if node.kind == "sum":
            n_params += len(kids) - 1
        elif node.kind == "bernoulli":
            n_params += 1
    return len(circuit.nodes), n_edges, n_params


# ---------------------------------------------------------------------------
# compilation correctness

def test_compiled_circuit_matches_network_density():
    rng = np.random.default_rng(500)
    for trial in range(15):
        n_vars = int(rng.integers(2, 9))
        ids = np.arange(n_vars)
        net = random_net(rng, ids, int(rng.integers(0, 4)))
        circuit = compile_cnet(net)
        x = enumerate_bits(n_vars)
        ref = cnet_log_density_rows(net, x)
        lin = circuit_values(circuit, x)
        logv = circuit_log_values(circuit, x)
        assert np.allclose(np.log(lin), ref, atol=1e-10)
        assert np.allclose(logv, ref, atol=1e-10)


def test_compiled_learned_nets_match_and_pass_checks():
    rng = np.random.default_rng(501)
    for kind in (BD, BIC):
        d = random_dataset(rng, 200, 6)
        d.samples[:, 3] = d.samples[:, 0] ^ d.samples[:, 1]
        net = learn_cnet(d, LearnerConfig(score=ScoreConfig(kind=kind)))
        circuit = compile_cnet(net)
        x = enumerate_bits(6)
        assert np.allclose(
            circuit_log_values(circuit, x), cnet_log_density_rows(net, x),
            atol=1e-10,
        )
        assert check_smooth(circuit)
        assert check_decomposable(circuit)
        assert check_deterministic(circuit)


def _mixtures():
    """Learned mixtures, random ones, and one with a zero-weight
    component, each with its number of variables."""
    rng = np.random.default_rng(511)
    out = []
    for kind in (BD, BIC):
        d = unit_dataset(regime_samples(rng, 300, 6))
        cfg = LearnerConfig(score=ScoreConfig(kind=kind))
        out.append((learn_sem(d, 3, cfg, rng, max_iters=3), 6))
    for _ in range(6):
        n_vars = int(rng.integers(2, 8))
        n_comp = int(rng.integers(1, 5))
        comps = [
            random_net(rng, np.arange(n_vars), int(rng.integers(0, 4)))
            for _ in range(n_comp)
        ]
        out.append((Mixture(comps, rng.dirichlet(np.ones(n_comp))), n_vars))
    comps = [random_net(rng, np.arange(5), 2) for _ in range(3)]
    out.append((Mixture(comps, np.array([0.0, 0.25, 0.75])), 5))
    return out


def test_mixture_circuit_equals_per_component_circuits():
    for m, n_vars in _mixtures():
        x = enumerate_bits(n_vars)
        got = circuit_log_values(compile_cnet(m), x)
        assert np.array_equal(got, ref_mixture_circuit_log_values(m, x))


def test_mixture_circuit_passes_checks_and_counts_params():
    for m, _ in _mixtures():
        circuit = compile_cnet(m)
        assert circuit.root.kind == "sum"
        assert len(circuit.root.inputs) == m.n_components
        assert check_smooth(circuit)
        assert check_decomposable(circuit)
        params = sum(structure_param_count(c) for c in m.components)
        assert circuit_size(circuit).n_params == params + m.n_components - 1


def test_forward_pass_holds_only_live_values():
    circuit = compile_cnet(random_net(np.random.default_rng(3), np.arange(30), 2))
    x = np.random.default_rng(4).integers(0, 2, size=(4096, 30))
    tracemalloc.start()
    try:
        circuit_log_values(circuit, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # holding every node's values at once would take nodes x rows x 8 B
    assert peak < len(circuit.nodes) * len(x) * 8 / 4


def test_compiled_circuit_normalizes():
    rng = np.random.default_rng(502)
    net = random_net(rng, np.arange(7), 3)
    circuit = compile_cnet(net)
    total = circuit_values(circuit, enumerate_bits(7)).sum()
    assert abs(total - 1.0) <= 1e-10


def test_compiler_shares_tree_messages():
    # Markov-chain data learns the chain tree 0 -> 1 -> 2; the message
    # for variable 2 is then shared by both parent values of variable 1,
    # which is what keeps the parameter count at 2d-1
    from cnetlearn import WeightedDataset

    x = enumerate_bits(3)
    q = lambda s, t: 0.9 if s == t else 0.1
    w = np.array([0.5 * q(a, b) * q(b, c) for a, b, c in x])
    tree = learn_clt(WeightedDataset(x.astype(np.uint8), w), 0.1)
    assert list(tree.parents) == [-1, 0, 1]
    net = CutsetNetwork(Leaf(tree), np.arange(3))
    circuit = compile_cnet(net)
    refs = {}
    for node in circuit.nodes:
        for child in getattr(node, "inputs", ()):
            refs[id(child)] = refs.get(id(child), 0) + 1
    assert max(refs.values()) >= 2
    assert circuit_size(circuit).n_params == 5


# ---------------------------------------------------------------------------
# property checks on hand-built circuits

def test_sum_over_same_variable_not_deterministic():
    root = SumNode(
        [IndicatorLeaf(0, 1), IndicatorLeaf(0, 1)],
        np.array([0.5, 0.5]),
    )
    circuit = make_circuit(root)
    assert check_smooth(circuit)
    assert not check_deterministic(circuit)


def test_deterministic_check_sees_underflowing_inputs():
    # on x = (1, 1) the left product is 1e-400, which a linear-domain
    # pass rounds to 0; in the log domain it is finite, so both inputs
    # of the root are positive there
    def t(v):
        return SumNode(
            [IndicatorLeaf(v, 1), IndicatorLeaf(v, 0)], np.array([1e-200, 1.0])
        )

    root = SumNode(
        [
            ProductNode([t(0), t(1)]),
            ProductNode([IndicatorLeaf(0, 1), IndicatorLeaf(1, 1)]),
        ],
        np.array([0.5, 0.5]),
    )
    circuit = make_circuit(root)
    assert check_smooth(circuit) and check_decomposable(circuit)
    assert not check_deterministic(circuit)


def test_product_with_overlapping_scopes_not_decomposable():
    root = ProductNode([IndicatorLeaf(0, 0), IndicatorLeaf(0, 1)])
    circuit = make_circuit(root)
    assert not check_decomposable(circuit)


def test_sum_with_mismatched_scopes_not_smooth():
    root = SumNode(
        [IndicatorLeaf(0, 1), IndicatorLeaf(1, 1)], np.array([0.5, 0.5])
    )
    circuit = make_circuit(root)
    assert not check_smooth(circuit)


def test_deterministic_check_refuses_huge_exhaustive_scope():
    rng = np.random.default_rng(503)
    net = random_net(rng, np.arange(25), 0)
    circuit = compile_cnet(net)
    with pytest.raises(ValueError):
        check_deterministic(circuit)
    # sampled assignments still work
    x = rng.integers(0, 2, size=(64, 25))
    assert check_deterministic(circuit, x=x)


# ---------------------------------------------------------------------------
# make_circuit validation

def test_make_circuit_rejects_cycle():
    s = SumNode([], np.array([1.0]))
    s.inputs.append(s)
    with pytest.raises(ValueError):
        make_circuit(s)


def test_make_circuit_rejects_unnormalized_sum():
    root = SumNode(
        [IndicatorLeaf(0, 0), IndicatorLeaf(0, 1)], np.array([0.7, 0.6])
    )
    with pytest.raises(ValueError):
        make_circuit(root)


def test_make_circuit_rejects_arity_mismatch():
    root = SumNode(
        [IndicatorLeaf(0, 0), IndicatorLeaf(0, 1)], np.array([1.0])
    )
    with pytest.raises(ValueError):
        make_circuit(root)


def test_make_circuit_rejects_bad_leaves():
    with pytest.raises(ValueError):
        make_circuit(IndicatorLeaf(0, 2))


def test_make_circuit_topological_order():
    circuit = compile_cnet(random_net(np.random.default_rng(504), np.arange(6), 2))
    seen = set()
    for node in circuit.nodes:
        for child in getattr(node, "inputs", ()):
            assert id(child) in seen
        seen.add(id(node))
    assert circuit.nodes[-1] is circuit.root


# ---------------------------------------------------------------------------
# size accounting

def test_circuit_params_equal_structure_params():
    rng = np.random.default_rng(505)
    for trial in range(20):
        n_vars = int(rng.integers(2, 10))
        net = random_net(rng, np.arange(n_vars), int(rng.integers(0, 5)))
        circuit = compile_cnet(net)
        size = circuit_size(circuit)
        assert size.n_params == structure_param_count(net)
        assert (len(circuit.nodes), size.n_edges, size.n_params) == _walk_size(
            circuit
        )
        if count_decisions(net) > 0:
            assert size.n_params > count_decisions(net)


def test_circuit_params_small_example():
    # one decision over 9 variables with two 4-variable leaves:
    # 1 + (2*4 - 1) + (2*4 - 1) = 15
    rng = np.random.default_rng(506)
    x = rng.integers(0, 2, size=(64, 9)).astype(np.uint8)
    x[:32, 0] = 0
    x[32:, 0] = 1
    d = unit_dataset(x)
    from cnetlearn.cnet import DecisionNode
    from cnetlearn import restrict

    left = Leaf(learn_clt(restrict(d, 0, 0), 0.1))
    right = Leaf(learn_clt(restrict(d, 0, 1), 0.1))
    # leaves over vars 1..8; cut two ways again by hand to get 4-var leaves
    # simpler: a direct 1-cut net over 9 vars has 4-var leaves only if the
    # leaf scope is 4, so use 5 variables total
    x5 = x[:, :5]
    d5 = unit_dataset(x5)
    left5 = Leaf(learn_clt(restrict(d5, 0, 0), 0.1))
    right5 = Leaf(learn_clt(restrict(d5, 0, 1), 0.1))
    net = CutsetNetwork(
        DecisionNode(0, np.array([0.5, 0.5]), [left5, right5]), np.arange(5)
    )
    net.validate()
    assert structure_param_count(net) == 15
    assert circuit_size(compile_cnet(net)).n_params == 15


# ---------------------------------------------------------------------------
# induced decision paths

def test_induced_path_single_leaf_empty():
    net = CutsetNetwork(
        Leaf(learn_clt(unit_dataset([[0, 1], [1, 0]]), 0.1)), np.arange(2)
    )
    assert induced_path(net, np.array([0, 1])) == []


def test_induced_path_follows_branches():
    rng = np.random.default_rng(507)
    net = random_net(rng, np.arange(6), 3)
    if count_decisions(net) == 0:
        pytest.skip("sampled structure had no decisions")
    for row in enumerate_bits(6)[::7]:
        path = induced_path(net, row)
        node = net.root
        for dec, k in path:
            assert dec is node
            assert k == int(row[net.column_of(dec.var)])
            node = dec.children[k]
        assert node.kind == "leaf"


def test_induced_path_aggregates_to_routed_counts():
    rng = np.random.default_rng(508)
    net = random_net(rng, np.arange(5), 2)
    d = random_dataset(rng, 32, 5)
    expected = routed_decision_counts(net, d)
    got = {}
    for row, w in zip(d.samples, d.weights):
        for dec, k in induced_path(net, row):
            got.setdefault(id(dec), [0.0, 0.0])[k] += float(w)
    assert got.keys() == expected.keys()
    for key in got:
        assert got[key] == pytest.approx(expected[key], abs=0)


def test_induced_path_validates_input():
    net = random_net(np.random.default_rng(509), np.arange(4), 2)
    from cnetlearn import DatasetError

    with pytest.raises(DatasetError):
        induced_path(net, np.array([0, 1]))


# ---------------------------------------------------------------------------
# dump format

def test_dump_is_stable_and_well_formed():
    rng = np.random.default_rng(510)
    net = random_net(rng, np.arange(6), 2)
    circuit = compile_cnet(net)
    text = dump_circuit(circuit)
    assert text == dump_circuit(circuit)
    lines = text.strip().split("\n")
    assert len(lines) == len(circuit.nodes)
    for i, line in enumerate(lines):
        fields = line.split()
        assert int(fields[0]) == i
        for field in fields:
            if field.startswith("in="):
                refs = [int(t) for t in field[3:].split(",")]
                assert all(r < i for r in refs)

