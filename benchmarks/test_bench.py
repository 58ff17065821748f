"""Tests of the benchmark's own parts: the generator, the span arithmetic
and the output checks.  Run with `python -m pytest benchmarks`."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checks import (  # noqa: E402
    check_eval_agreement,
    check_mpe,
    check_same_bytes,
    check_sample,
    model_digest,
)
from gen import LEARN_BD, WORKLOADS, Workload, write_inputs  # noqa: E402
from spans import Span, Tracer, layer_stats, self_times  # noqa: E402

from cnetlearn import cli  # noqa: E402
from cnetlearn.cnet import cnet_log_density_rows  # noqa: E402
from cnetlearn.serialize import load_model  # noqa: E402

SMALL = Workload("small", 8, 600, 50, "dense", 4, LEARN_BD)


def _files(inputs) -> list:
    return [p.read_bytes() for p in (inputs.train, inputs.test, inputs.evidence)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_same_seed_same_bytes(tmp_path, name):
    w = WORKLOADS[name]
    first = _files(write_inputs(w, 7, tmp_path / "a"))
    assert first == _files(write_inputs(w, 7, tmp_path / "b"))
    other = _files(write_inputs(w, 8, tmp_path / "c"))
    assert first[0] == other[0] and first[2] == other[2]  # the workload's own
    assert first[1] != other[1]


def test_generator_shape_and_evidence(tmp_path):
    inputs = write_inputs(SMALL, 3, tmp_path)
    train = inputs.train.read_text().splitlines()
    assert len(train) == SMALL.n_train
    assert all(len(r.split(",")) == SMALL.n_vars for r in train)
    ev = [r.split(",") for r in inputs.evidence.read_text().splitlines()]
    for cells, src, seen in zip(ev, inputs.evidence_source, inputs.evidence_mask):
        assert [c != "?" for c in cells] == list(seen)
        assert all(int(c) == v for c, v, s in zip(cells, src, seen) if s)


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "r", 0)


def test_self_time_of_nested_spans():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("d", 5.2, 5.5, 3),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.7, 0.3])
    stats = layer_stats(spans)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["self_s"] == pytest.approx(2.7)
    assert stats["a"]["total_s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),  # overlaps x by 2
        _span("z", 9.0, 12.0, 0),  # runs past its parent by 2
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_wraps_every_binding_and_restores():
    import cnetlearn.clt
    import cnetlearn.cnet
    import cnetlearn.scores

    original = cnetlearn.clt.learn_clt
    tracer = Tracer("r")
    names = tracer.install()
    try:
        assert "clt.learn_clt" in names and "cli.learn" in names
        for mod in (cnetlearn.clt, cnetlearn.cnet, cnetlearn.scores):
            assert mod.learn_clt is not original
        tracer.active = True
        d = cnetlearn.data.WeightedDataset(np.eye(4, dtype=np.uint8), np.ones(4))
        cnetlearn.cnet.learn_cnet(d, cnetlearn.cnet.LearnerConfig())
    finally:
        tracer.uninstall()
    assert cnetlearn.cnet.learn_clt is original
    stats = layer_stats(tracer.spans)
    assert stats["cnet.learn_cnet"]["calls"] == 1
    assert stats["clt.learn_clt"]["calls"] >= 1
    assert stats["clt.learn_clt"]["rows"] >= 4


def test_removed_function_is_absent_not_zero():
    import run

    tracer = Tracer("r")
    installed = tracer.install()
    tracer.uninstall()
    gone = ("cnet.information_gain", "circuit.compile_cnet")
    kept = [n for n in installed if n not in gone]
    metrics, absent, _ = run._per_layer(tracer, kept, 1.0, 1.0)
    assert absent == sorted(gone)
    assert not [k for k in metrics if k.startswith(gone) or k == "circuit.nodes"]
    assert metrics["clt.learn_clt.calls"] == 0


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """A small model, its inputs, and the CLI's mpe and sample output."""
    d = tmp_path_factory.mktemp("learned")
    inputs = write_inputs(SMALL, 1, d)
    model = d / "model.json"
    assert cli.main(["learn", str(inputs.train), "--out", str(model)]) == 0
    mpe = d / "mpe.csv"
    assert cli.main(["mpe", str(model), str(inputs.evidence), "--out", str(mpe)]) == 0
    sample = d / "sample.csv"
    assert cli.main(["sample", str(model), "--n", "30", "--out", str(sample)]) == 0
    net, _, _ = load_model(model)
    return inputs, model, mpe, sample, lambda x: cnet_log_density_rows(net, x)


def _check(inputs, path, density, exact=True):
    return check_mpe(path, inputs.evidence_source, inputs.evidence_mask, density, exact)


def _rewrite(path: Path, dest: Path, edit) -> Path:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    dest.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return dest


def test_checks_pass_on_real_output(learned):
    inputs, model, mpe, sample, density = learned
    assert _check(inputs, mpe, density) == []
    assert check_sample(sample, 30, SMALL.n_vars) == []


def test_mpe_check_fires_on_contradicted_evidence(learned, tmp_path):
    inputs, _, mpe, _, density = learned
    i, v = map(int, np.argwhere(inputs.evidence_mask)[0])

    def flip(rows):
        rows[i][v] = "1" if rows[i][v] == "0" else "0"

    problems = _check(inputs, _rewrite(mpe, tmp_path / "m.csv", flip), density)
    assert any("contradicts its evidence" in p for p in problems)


def test_mpe_check_fires_on_wrong_score(learned, tmp_path):
    inputs, _, mpe, _, density = learned

    def lower(rows):
        rows[2][-1] = repr(float(rows[2][-1]) - 1e-6)

    problems = _check(inputs, _rewrite(mpe, tmp_path / "m.csv", lower), density)
    assert any("is not its log-density" in p for p in problems)


def test_mpe_check_fires_below_source_row(learned, tmp_path):
    inputs, _, mpe, _, density = learned
    # put in a completion that keeps its evidence and carries its own
    # density, but is worse than the row the evidence was cut from: only
    # the exactness check can catch it
    floor = density(inputs.evidence_source)
    worse = None
    for i, j in np.argwhere(~inputs.evidence_mask):
        x = inputs.evidence_source[i].copy()
        x[j] ^= 1
        s = float(density(x[None, :])[0])
        if s < floor[i] - 1e-6:
            worse = (int(i), [str(int(v)) for v in x] + [repr(s)])
            break
    assert worse is not None

    def replace(rows):
        rows[worse[0]] = worse[1]

    path = _rewrite(mpe, tmp_path / "m.csv", replace)
    problems = _check(inputs, path, density)
    assert any("below the source row" in p for p in problems)
    assert _check(inputs, path, density, exact=False) == []


def test_mpe_check_fires_on_missing_rows(learned, tmp_path):
    inputs, _, mpe, _, density = learned
    path = _rewrite(mpe, tmp_path / "m.csv", lambda rows: rows.pop())
    assert any("expected" in p for p in _check(inputs, path, density))


def test_sample_check_fires(learned, tmp_path):
    _, _, _, sample, _ = learned

    def bad_value(rows):
        rows[3][1] = "2"

    def short_row(rows):
        rows[4].pop()

    assert check_sample(sample, 31, SMALL.n_vars)
    assert check_sample(_rewrite(sample, tmp_path / "a.csv", bad_value), 30, SMALL.n_vars)
    assert check_sample(_rewrite(sample, tmp_path / "b.csv", short_row), 30, SMALL.n_vars)


def test_eval_agreement_check():
    assert check_eval_agreement(-12.5, -12.5 * (1 + 1e-12)) == []
    assert check_eval_agreement(-12.5, -12.5 * (1 + 1e-7))


def test_roundtrip_and_digest_checks(learned, tmp_path):
    _, model, _, _, _ = learned
    text = model.read_text()
    spaced = tmp_path / "spaced.json"
    spaced.write_text(text.replace(",", ", ", 1))
    assert check_same_bytes(model, model) == []
    assert check_same_bytes(model, spaced)
    # provenance (time, paths) does not move the digest; a parameter does
    moved = tmp_path / "moved.json"
    moved.write_text(text.replace('"provenance":{', '"provenance":{"x":1,', 1))
    assert model_digest(moved) == model_digest(model)
    changed = tmp_path / "changed.json"
    changed.write_text(text.replace('"cpt":[[[', '"cpt":[[[0.5,', 1))
    assert text != changed.read_text()
    assert model_digest(changed) != model_digest(model)
