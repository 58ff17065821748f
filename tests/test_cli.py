"""End-to-end command-line checks, mostly in-process through main()."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cnetlearn import clt_sample, cnet_log_density_rows, load_csv, load_model, save_csv
from cnetlearn.cli import main

from helpers import random_tree, regime_samples, unit_dataset


def _write_csv(path, rows):
    save_csv(unit_dataset(rows), str(path))


def _parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        for field in line.split():
            if "=" in field:
                k, v = field.split("=", 1)
                out[k] = v
    return out


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(700)
    path = tmp_path / "train.csv"
    _write_csv(path, regime_samples(rng, 200, 6))
    return path


# ---------------------------------------------------------------------------
# learn

def test_learn_writes_stable_model(tmp_path, train_csv, capsys):
    out = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(out)]) == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["rows"] == "200" and kv["vars"] == "6"
    assert float(kv["train_ll_per_sample"]) < 0
    first = out.read_bytes()
    # save -> load -> save is byte-identical
    from cnetlearn import save_model

    model, score, provenance = load_model(str(out))
    save_model(str(out), model, score, provenance)
    assert out.read_bytes() == first


def test_learn_deterministic_model_bytes(tmp_path, train_csv):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["learn", str(train_csv), "--out", str(a)]) == 0
    assert main(["learn", str(train_csv), "--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["net"] == db["net"]
    assert da["score"] == db["score"]


def test_learn_bic_flag(tmp_path, train_csv, capsys):
    out = tmp_path / "model.json"
    code = main(
        ["learn", str(train_csv), "--score", "bic", "--beta", "0.05", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["score"]["kind"] == "bic"
    assert doc["score"]["beta"] == 0.05


# ---------------------------------------------------------------------------
# learn-mixture

def test_learn_mixture_single_k(tmp_path, train_csv, capsys):
    out = tmp_path / "mix.json"
    code = main(
        ["learn-mixture", str(train_csv), "--components", "2", "--out", str(out)]
    )
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["selected_K"] == "2"
    doc = json.loads(out.read_text())
    assert doc["kind"] == "mixture"
    assert len(doc["components"]) == 2
    assert len(doc["mix_weights"]) == 2


def test_learn_mixture_selects_by_validation(tmp_path, capsys):
    rng = np.random.default_rng(701)
    train = tmp_path / "train.csv"
    valid = tmp_path / "valid.csv"
    _write_csv(train, regime_samples(rng, 300, 6))
    _write_csv(valid, regime_samples(rng, 150, 6))
    out = tmp_path / "mix.json"
    code = main(
        [
            "learn-mixture",
            str(train),
            "--components",
            "1,2",
            "--valid",
            str(valid),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["selected_K"] in {"1", "2"}
    assert "valid_ll" in kv


def test_learn_mixture_multi_k_requires_valid(tmp_path, train_csv, capsys):
    out = tmp_path / "mix.json"
    code = main(
        ["learn-mixture", str(train_csv), "--components", "1,2", "--out", str(out)]
    )
    assert code == 2
    assert "valid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def test_eval_matches_component_density(tmp_path, train_csv, capsys):
    model = tmp_path / "model.json"
    mix = tmp_path / "mix.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    assert (
        main(
            ["learn-mixture", str(train_csv), "--components", "1", "--out", str(mix)]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["eval", str(model), str(train_csv)]) == 0
    plain = _parse_kv(capsys.readouterr().out)
    assert main(["eval", str(mix), str(train_csv)]) == 0
    mixed = _parse_kv(capsys.readouterr().out)
    # a one-component mixture is exactly its component
    assert plain["mean_ll"] == mixed["mean_ll"]
    assert plain["n"] == mixed["n"] == "200"


def test_eval_total_is_exactly_rounded(tmp_path, train_csv, capsys):
    # so the printed total does not depend on the BLAS thread count
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", str(model), str(train_csv)]) == 0
    kv = _parse_kv(capsys.readouterr().out)
    rows = cnet_log_density_rows(load_model(str(model))[0], load_csv(str(train_csv)).samples)
    assert kv["total_ll"] == repr(math.fsum(rows.tolist()))


def test_eval_via_circuit_agrees(tmp_path, train_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", str(model), str(train_csv)]) == 0
    direct = _parse_kv(capsys.readouterr().out)
    assert main(["eval", str(model), str(train_csv), "--via-circuit"]) == 0
    circ_out = capsys.readouterr().out
    circ = _parse_kv(circ_out)
    assert "via=circuit" in circ_out
    assert abs(float(direct["mean_ll"]) - float(circ["mean_ll"])) <= 1e-10


def test_eval_via_circuit_agrees_on_mixture(tmp_path, train_csv, capsys):
    mix = tmp_path / "mix.json"
    argv = ["learn-mixture", str(train_csv), "--components", "3", "--out", str(mix)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["eval", str(mix), str(train_csv)]) == 0
    direct = _parse_kv(capsys.readouterr().out)
    assert main(["eval", str(mix), str(train_csv), "--via-circuit"]) == 0
    circ = _parse_kv(capsys.readouterr().out)
    assert circ["via"] == "circuit"
    assert abs(float(direct["mean_ll"]) - float(circ["mean_ll"])) <= 1e-10


# ---------------------------------------------------------------------------
# sample

def test_sample_roundtrip_and_seeding(tmp_path, train_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    s3 = tmp_path / "s3.csv"
    assert main(["sample", str(model), "--n", "50", "--seed", "4", "--out", str(s1)]) == 0
    assert main(["sample", str(model), "--n", "50", "--seed", "4", "--out", str(s2)]) == 0
    assert main(["sample", str(model), "--n", "50", "--seed", "5", "--out", str(s3)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_bytes() != s3.read_bytes()
    drawn = load_csv(str(s1))
    assert drawn.n_rows == 50 and drawn.n_vars == 6


def test_sample_from_mixture(tmp_path, train_csv):
    mix = tmp_path / "mix.json"
    assert (
        main(["learn-mixture", str(train_csv), "--components", "2", "--out", str(mix)])
        == 0
    )
    out = tmp_path / "s.csv"
    again = tmp_path / "again.csv"
    other = tmp_path / "other.csv"
    assert main(["sample", str(mix), "--n", "25", "--out", str(out)]) == 0
    assert main(["sample", str(mix), "--n", "25", "--out", str(again)]) == 0
    argv = ["sample", str(mix), "--n", "25", "--seed", "1", "--out", str(other)]
    assert main(argv) == 0
    assert out.read_bytes() == again.read_bytes()
    assert out.read_bytes() != other.read_bytes()
    drawn = load_csv(str(out))
    assert drawn.n_rows == 25


# ---------------------------------------------------------------------------
# mpe

def test_mpe_full_evidence_echoes_rows(tmp_path, train_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    ev = tmp_path / "ev.csv"
    ev.write_text("1,0,1,0,1,0\n0,0,0,0,0,0\n")
    out = tmp_path / "mpe.csv"
    capsys.readouterr()
    assert main(["mpe", str(model), str(ev), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    cells = lines[0].split(",")
    assert cells[:6] == ["1", "0", "1", "0", "1", "0"]
    # the reported score is this row's log-density under the model
    capsys.readouterr()
    full = tmp_path / "full.csv"
    full.write_text("1,0,1,0,1,0\n")
    assert main(["eval", str(model), str(full)]) == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert float(cells[6]) == float(kv["mean_ll"])


def test_mpe_respects_partial_evidence(tmp_path, train_csv):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    ev = tmp_path / "ev.csv"
    ev.write_text("?,1,?,0,?,?\n?,?,?,?,?,?\n")
    out = tmp_path / "mpe.csv"
    assert main(["mpe", str(model), str(ev), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    first = lines[0].split(",")
    assert first[1] == "1" and first[3] == "0"
    assert set(first[:6]) <= {"0", "1"}
    # score of the unconstrained completion is at least the constrained one
    assert float(lines[1].split(",")[6]) >= float(first[6])


def test_mpe_keeps_impossible_evidence(tmp_path):
    # x0 is never 1 in the data, so with beta 0 the evidence x0 = 1 has
    # probability 0: the completion keeps it and scores -inf
    rows = np.random.default_rng(701).integers(0, 2, size=(200, 4))
    rows[:, 0] = 0
    train = tmp_path / "train.csv"
    _write_csv(train, rows)
    model = tmp_path / "model.json"
    argv = ["learn", str(train), "--score", "bic", "--beta", "0", "--out", str(model)]
    assert main(argv) == 0
    ev = tmp_path / "ev.csv"
    ev.write_text("1,?,?,?\n")
    out = tmp_path / "mpe.csv"
    assert main(["mpe", str(model), str(ev), "--out", str(out)]) == 0
    cells = out.read_text().strip().split(",")
    assert cells[0] == "1" and cells[4] == "-inf"


# sha256 of the `mpe` output file of a BD network learned on sparse rows,
# on fixed evidence: completions and scores must keep their bytes
PINNED_MPE = "059e813c7afff8d6423643c4227e9c7c09dba58a2be4cb1941c7d21d39f978ec"


def _sparse_rows(rng, n: int, n_vars: int, k: int) -> np.ndarray:
    """n rows from a uniform mixture of k random trees in which an item
    is rare (P = 0.01-0.05) unless its parent item is present (0.2-0.5).
    The first few items spell out the tree's index in binary, so cuts on
    them separate the trees."""
    trees = []
    for c in range(k):
        tree = random_tree(rng, range(n_vars))
        p1 = np.stack([rng.uniform(0.01, 0.05, n_vars), rng.uniform(0.2, 0.5, n_vars)], 1)
        for v in range((k - 1).bit_length()):
            p1[v] = 0.9 if (c >> v) & 1 else 0.01
        tree.cpt = np.stack([1.0 - p1, p1], axis=2)
        trees.append(tree)
    z = rng.integers(0, k, n)
    x = np.zeros((n, n_vars), dtype=np.uint8)
    for c, tree in enumerate(trees):
        x[z == c] = clt_sample(tree, int(np.sum(z == c)), rng)
    return x


def test_mpe_output_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(2026)
    rows = _sparse_rows(rng, 4000, 24, 32)
    train = tmp_path / "train.csv"
    _write_csv(train, rows[:3960])
    model = tmp_path / "model.json"
    assert main(["learn", str(train), "--out", str(model)]) == 0
    # one free row, then held-out rows with each cell observed with
    # probability 1/2
    held = rows[3960:].astype(str)
    held[rng.random(held.shape) < 0.5] = "?"
    held[0] = "?"
    ev = tmp_path / "ev.csv"
    ev.write_text("".join(",".join(row) + "\n" for row in held))
    out = tmp_path / "mpe.csv"
    assert main(["mpe", str(model), str(ev), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_MPE


def test_mpe_bad_evidence_cell(tmp_path, train_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    ev = tmp_path / "ev.csv"
    ev.write_text("?,1,2,?,?,?\n")
    assert main(["mpe", str(model), str(ev), "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench

def test_bench_runs_each_method_per_dataset(tmp_path, capsys):
    rng = np.random.default_rng(702)
    data = tmp_path / "suite"
    data.mkdir()
    for name in ("beta", "alpha"):
        _write_csv(data / f"{name}.ts.data", regime_samples(rng, 120, 6))
        _write_csv(data / f"{name}.test.data", regime_samples(rng, 60, 6))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(data), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dataset,method,train_time_s,test_ll_per_sample,params"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("alpha", "bd"),
        ("alpha", "bic"),
        ("beta", "bd"),
        ("beta", "bic"),
    ]
    for r in rows:
        assert float(r[3]) < 0
        assert int(r[4]) >= 1


def test_bench_deterministic_apart_from_timing(tmp_path):
    rng = np.random.default_rng(703)
    data = tmp_path / "suite"
    data.mkdir()
    _write_csv(data / "one.ts.data", regime_samples(rng, 120, 6))
    _write_csv(data / "one.test.data", regime_samples(rng, 60, 6))
    o1 = tmp_path / "b1.csv"
    o2 = tmp_path / "b2.csv"
    assert main(["bench", str(data), "--out", str(o1)]) == 0
    assert main(["bench", str(data), "--out", str(o2)]) == 0

    def mask_time(path):
        rows = [line.split(",") for line in path.read_text().strip().splitlines()]
        for r in rows[1:]:
            r[2] = "-"
        return rows

    assert mask_time(o1) == mask_time(o2)


def test_bench_missing_test_file(tmp_path, capsys):
    rng = np.random.default_rng(704)
    data = tmp_path / "suite"
    data.mkdir()
    _write_csv(data / "lonely.ts.data", regime_samples(rng, 50, 6))
    assert main(["bench", str(data), "--out", str(tmp_path / "o.csv")]) == 2
    assert "lonely" in capsys.readouterr().err


def test_bench_empty_dir_header_only(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    out = tmp_path / "o.csv"
    assert main(["bench", str(data), "--out", str(out)]) == 0
    assert out.read_text() == "dataset,method,train_time_s,test_ll_per_sample,params\n"


# ---------------------------------------------------------------------------
# exit codes and the installed entry point

def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code = main(["learn", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n0,2\n")
    code = main(["learn", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def _first_leaf(node: dict) -> dict:
    while node["kind"] == "decision":
        node = node["children"][0]
    return node


def _first_tree(model: dict) -> dict:
    return _first_leaf(model["net"]["root"])["tree"]


def _first_cpt(model: dict) -> list:
    return _first_tree(model)["cpt"][0]


def _tree_table(model: dict, k: int) -> list:
    """The CPT table of the first tree's k-th variable in tree order."""
    tree = _first_tree(model)
    return tree["cpt"][tree["order"][k]]


def _claim_root_var(model: dict) -> None:
    _first_tree(model)["variable_ids"][0] = model["net"]["root"]["var"]


def _repeat_root_in_order(model: dict) -> None:
    order = _first_tree(model)["order"]
    order[-1] = order[0]


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda m: m["net"].pop("root"), "not a valid model file"),
        (lambda m: m.pop("score"), "not a valid model file"),
        (lambda m: m["net"].__setitem__("root", 7), "not a valid model file"),
        (lambda m: m["net"]["root"].__setitem__("var", None), "not a valid model file"),
        (lambda m: m["net"]["root"].__setitem__("children", []), "two children"),
        (lambda m: m["net"]["root"].__setitem__("weights", [0.9, 0.9]), "sum to 1"),
        (lambda m: _first_cpt(m).__setitem__(0, [0.9, 0.9]), "sum to 1"),
        (lambda m: _first_cpt(m)[0].append(0.0), "1x2"),
        (lambda m: _tree_table(m, 0).append([0.5, 0.5]), "1x2"),
        (lambda m: _tree_table(m, 1).pop(), "1x2"),
        (lambda m: _first_tree(m)["cpt"].pop(), "1x2"),
        (_claim_root_var, "the scope its path leaves"),
        (_repeat_root_in_order, "list every variable once"),
    ],
    ids=[
        "no-root",
        "no-score",
        "root-not-object",
        "var-not-int",
        "no-children",
        "weights-not-distribution",
        "cpt-row-not-distribution",
        "cpt-wrong-shape",
        "cpt-root-two-rows",
        "cpt-child-one-row",
        "cpt-table-missing",
        "leaf-scope",
        "order-repeats-root",
    ],
)
def test_malformed_model_file_is_usage_error(
    tmp_path, train_csv, capsys, damage, problem
):
    model = tmp_path / "model.json"
    assert main(["learn", str(train_csv), "--out", str(model)]) == 0
    obj = json.loads(model.read_text())
    assert obj["net"]["root"]["kind"] == "decision"
    damage(obj)
    model.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["eval", str(model), str(train_csv)]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and problem in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["eval", "mpe", "sample"])
def test_nan_mixture_weight_is_usage_error(tmp_path, train_csv, capsys, command):
    mix = tmp_path / "mix.json"
    argv = ["learn-mixture", str(train_csv), "--components", "2", "--out", str(mix)]
    assert main(argv) == 0
    obj = json.loads(mix.read_text())
    obj["mix_weights"][0] = float("nan")
    mix.write_text(json.dumps(obj))  # the json module writes and reads NaN
    evidence = tmp_path / "evidence.csv"
    evidence.write_text("?,?,?,?,?,?\n")
    out = str(tmp_path / "out.csv")
    argv = {
        "eval": ["eval", str(mix), str(train_csv)],
        "mpe": ["mpe", str(mix), str(evidence), "--out", out],
        "sample": ["sample", str(mix), "--n", "5", "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(mix) in err and "sum to 1" in err
    assert "internal error" not in err


def test_over_deep_model_file_is_usage_error(tmp_path, train_csv, capsys):
    # 3,000 nested decisions are deeper than the JSON parser nests
    leaf = '{"kind":"leaf","tree":{"variable_ids":[],"parents":[],"order":[],"cpt":[]}}'
    depth = 3000
    head = "".join(
        f'{{"kind":"decision","var":{i},"weights":[0.5,0.5],"children":[{leaf},'
        for i in range(depth)
    )
    root = head + leaf + "]}" * depth
    model = tmp_path / "deep.json"
    model.write_text(
        '{"format_version":1,"kind":"cnet","score":{"kind":"bd","alpha":0.1,'
        '"beta":0.01,"root_dataset_size":1.0},"provenance":{},'
        '"net":{"variable_ids":[],"root":' + root + "}}"
    )
    assert main(["eval", str(model), str(train_csv)]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "nests too deeply" in err
    assert "internal error" not in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_subprocess(tmp_path, train_csv):
    out = tmp_path / "model.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "cnetlearn.cli",
            "learn",
            str(train_csv),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "model=" in proc.stdout
    assert json.loads(out.read_text())["kind"] == "cnet"
