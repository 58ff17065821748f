"""Dataset container, CSV round trips, and restriction."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnetlearn
from cnetlearn import (
    DatasetError,
    WeightedDataset,
    load_csv,
    restrict,
    save_csv,
)

from cnetlearn.data import _read_cells

from helpers import ref_read_cells, unit_dataset


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0\n0,1\n")
    d = load_csv(p)
    assert d.n_rows == 2 and d.n_vars == 2
    assert np.array_equal(d.samples, [[1, 0], [0, 1]])
    assert np.array_equal(d.weights, [1.0, 1.0])
    assert np.array_equal(d.variable_ids, [0, 1])


def test_load_csv_skips_blank_lines_and_spaces(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1, 0\n\n 0,1 \n")
    d = load_csv(p)
    assert d.n_rows == 2


def test_load_csv_ragged_row_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0\n0,1,1\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_csv(p)


def test_load_csv_bad_token_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,0\n0,2\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_csv(p)


@st.composite
def csv_texts(draw):
    """A matrix of 0, 1 and ? cells with whitespace around them and
    blank lines between rows; some texts get a bad cell or a ragged row,
    or two of them."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    cell = st.sampled_from(["0", "1", "?"])
    rows = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    bad = st.sampled_from(["2", "", "0 1", "01", "011", "1?", "x", "\xe9"])
    for fault in draw(st.lists(st.sampled_from(["cell", "short", "long"]), max_size=2)):
        if not rows:
            break
        r = draw(st.integers(0, n_rows - 1))
        if fault == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(bad)
        elif fault == "short" and len(rows[r]) > 1:
            rows[r] = rows[r][:-1]
        else:
            rows[r] = rows[r] + [draw(cell)]
    pad = st.sampled_from(["", "", " ", "\t", "\xa0"])
    lines = [",".join(draw(pad) + c + draw(pad) for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(pad))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.sampled_from([None, "?"]))
def test_read_cells_matches_token_parser(text, free):
    # the vectorized reader against the token-by-token parser: the same
    # matrix, or the same error for the same line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        path.write_bytes(text.encode())
        try:
            want = ref_read_cells(path, free)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as got:
                _read_cells(path, free)
            assert str(got.value) == str(exc)
        else:
            got = _read_cells(path, free)
            assert got.dtype == np.int8 and np.array_equal(got, want)


def test_save_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    d = unit_dataset(rng.integers(0, 2, size=(17, 5)))
    p = tmp_path / "out.csv"
    save_csv(d, p)
    d2 = load_csv(p)
    assert np.array_equal(d.samples, d2.samples)
    # writing the reloaded dataset reproduces the file byte for byte
    p2 = tmp_path / "again.csv"
    save_csv(d2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_validation_rejects_bad_inputs():
    with pytest.raises(DatasetError):
        WeightedDataset(np.array([[0, 2]]), np.ones(1))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros((2, 2)), np.ones(3))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros((2, 2)), np.array([1.0, -0.5]))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros((2, 2)), np.array([1.0, np.inf]))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros((2, 2)), np.ones(2), np.array([3, 1]))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros((2, 2)), np.ones(2), np.array([1, 1]))
    with pytest.raises(DatasetError):
        WeightedDataset(np.zeros(4), np.ones(4))


def test_zero_weight_rows_are_kept():
    d = WeightedDataset(np.array([[0, 1], [1, 1]]), np.array([0.0, 2.0]))
    assert d.n_rows == 2
    assert d.total_weight == 2.0


def test_column_lookup():
    d = unit_dataset([[0, 1, 0]], ids=[2, 5, 9])
    assert d.column(5) == 1
    with pytest.raises(DatasetError):
        d.column(3)


def test_with_weights():
    d = unit_dataset([[0, 1], [1, 0]])
    d2 = d.with_weights(np.array([0.5, 2.5]))
    assert d2.total_weight == 3.0
    assert np.array_equal(d2.samples, d.samples)
    assert np.array_equal(d2.variable_ids, d.variable_ids)


def test_weights_are_snapped_to_the_grid():
    w = np.array([1.0, 1 / 3, 2.5, 0.0, 1e-12, 2.0**-33 * 3])
    d = WeightedDataset(np.zeros((6, 1)), w)
    assert np.array_equal(d.weights * 2**32, np.round(w * 2**32))
    assert np.array_equal(d.weights[[0, 2, 3]], [1.0, 2.5, 0.0])
    assert d.weights[4] == 0.0 and d.weights[5] == 2.0**-31  # ties round to even
    assert np.array_equal(d.with_weights(d.weights).weights, d.weights)


def test_total_weight_must_be_below_the_exact_count_limit():
    below = np.array([2.0**20, 2.0**20 - 2.0**-32])
    assert WeightedDataset(np.zeros((2, 1)), below).total_weight == 2.0**21 - 2.0**-32
    for w in ([2.0**20, 2.0**20], [2.0**22]):
        with pytest.raises(DatasetError, match=r"2\^21"):
            WeightedDataset(np.zeros((len(w), 1)), np.array(w))


def test_load_csv_names_a_file_too_large_for_exact_counts(tmp_path, monkeypatch):
    p = tmp_path / "big.csv"
    p.write_text("0,1\n" * 4)
    monkeypatch.setattr(cnetlearn.data, "_MAX_TOTAL", 4.0)  # stands in for 2^21 rows
    with pytest.raises(DatasetError, match=r"big\.csv: total weight 4\.0 is not below"):
        load_csv(p)


_GRAM_DIGEST = """
import hashlib
import numpy as np
from cnetlearn import WeightedDataset
rng = np.random.default_rng(5)
x = (rng.random((10_000, 40)) < 0.3).astype(np.uint8)
total, n1, n11 = WeightedDataset(x, rng.random(10_000)).gram_counts()
print(hashlib.sha256(np.float64(total).tobytes() + n1.tobytes() + n11.tobytes()).hexdigest())
"""


def test_gram_counts_do_not_depend_on_the_blas_thread_count():
    # the BLAS splits a product's sums differently per thread count;
    # counts on the weight grid are exact, so the bits cannot move
    src = str(Path(cnetlearn.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _GRAM_DIGEST], env=env, capture_output=True, text=True, check=True
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_restrict_examples():
    d = unit_dataset([[1, 0], [0, 1], [1, 1]])
    r = restrict(d, 0, 1)
    assert np.array_equal(r.variable_ids, [1])
    assert np.array_equal(r.samples, [[0], [1]])
    assert r.total_weight == 2.0
    # restricting to a value nobody takes gives an empty dataset
    zeros = unit_dataset([[0, 0], [0, 1]])
    r0 = restrict(zeros, 0, 1)
    assert r0.n_rows == 0 and r0.n_vars == 1


def test_restrict_carries_weights():
    d = WeightedDataset(
        np.array([[1, 0], [1, 1], [0, 0]]), np.array([0.5, 2.0, 7.0])
    )
    r = restrict(d, 0, 1)
    assert r.total_weight == 2.5


def test_restrict_partitions_weight():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 2, size=(30, 4)).astype(np.uint8)
        w = rng.uniform(0, 2, size=30)
        d = WeightedDataset(x, w)
        var = int(rng.integers(0, 4))
        r0 = restrict(d, var, 0)
        r1 = restrict(d, var, 1)
        assert abs(r0.total_weight + r1.total_weight - d.total_weight) <= 1e-12
        assert r0.n_vars == d.n_vars - 1
        assert var not in r0.variable_ids


def test_restrict_rejects_bad_value():
    d = unit_dataset([[0, 1]])
    with pytest.raises(DatasetError):
        restrict(d, 0, 2)
