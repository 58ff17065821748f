"""Binary weighted datasets and counting primitives.

All learners in this package consume a :class:`WeightedDataset`: a dense
0/1 sample matrix with one nonnegative real weight per row.  Integer unit
weights correspond to plain datasets; fractional weights arise during
structural EM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WeightedDataset", "load_csv", "save_csv", "restrict"]

_GRID = 2.0**32  # weights are multiples of 1 / _GRID
_MAX_TOTAL = 2.0**21  # so a count times _GRID stays below 2^53


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent dataset arguments."""


@dataclass
class WeightedDataset:
    """Binary sample matrix with per-row weights.

    samples       -- (n_rows, n_vars) array of {0,1}, dtype uint8
    weights       -- (n_rows,) nonnegative reals, rounded to the nearest
                     multiple of 2^-32 and summing to less than 2^21, so
                     that every count is exact in any order of addition
    variable_ids  -- global variable index of each column, strictly increasing

    Counts are memoized per instance, so a dataset must not be changed
    in place once it has been counted.
    """

    samples: np.ndarray
    weights: np.ndarray
    variable_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    _memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.uint8)
        if self.samples.ndim != 2:
            raise DatasetError("samples must be a 2-D matrix")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.variable_ids is None:
            self.variable_ids = np.arange(self.samples.shape[1], dtype=np.int64)
        else:
            self.variable_ids = np.asarray(self.variable_ids, dtype=np.int64)
        if self.samples.max(initial=0) > 1:
            raise DatasetError("samples must contain only 0/1 values")
        if self.weights.shape != (self.samples.shape[0],):
            raise DatasetError("need exactly one weight per row")
        if np.any(self.weights < 0):
            raise DatasetError("weights must be nonnegative")
        if not np.isfinite(self.weights).all():
            raise DatasetError("weights must be finite")
        self.weights = np.round(self.weights * _GRID) / _GRID
        if self.total_weight >= _MAX_TOTAL:
            raise DatasetError(
                f"total weight {self.total_weight} is not below 2^21, the limit of exact counts"
            )
        if self.variable_ids.shape != (self.samples.shape[1],):
            raise DatasetError("need exactly one variable id per column")
        if self.samples.shape[1] > 0 and np.any(np.diff(self.variable_ids) <= 0):
            raise DatasetError("variable_ids must be distinct and ascending")

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    @property
    def n_vars(self) -> int:
        return self.samples.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def column(self, var: int) -> int:
        """Column position of global variable `var`."""
        return _column(self.variable_ids, var, "dataset")

    def gram_counts(self) -> tuple:
        """(total, n1, n11): the total weight, n1[v] the weight of rows
        with x_v = 1 and n11[u, v] the weight of rows with x_u = x_v = 1."""
        if self._memo is None:
            self._memo = _gram(self.samples, self.weights)
        return self._memo

    def _remember(self, gram: tuple) -> None:
        """Memoize Gram counts of this dataset computed elsewhere from its rows."""
        self._memo = gram

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        """Same samples, new per-row weights."""
        return WeightedDataset(self.samples, weights, self.variable_ids)


def _column(ids: np.ndarray, var: int, scope: str) -> int:
    """Position of global variable `var` in the ascending `ids` of a
    `scope` (a dataset, a network)."""
    pos = int(np.searchsorted(ids, var))
    if pos >= len(ids) or ids[pos] != var:
        raise DatasetError(f"variable {var} not in {scope} scope")
    return pos


def _check_scope(ids: np.ndarray, d: WeightedDataset, scope: str) -> None:
    """Raise DatasetError unless `d`'s variables are exactly `ids`, the
    variables of a `scope` (a tree, a network, a mixture)."""
    if len(ids) != d.n_vars or np.any(ids != d.variable_ids):
        raise DatasetError(f"dataset variables do not match the {scope} scope")


def _read_cells(path, free=None) -> np.ndarray:
    """The cells of a comma-separated file as an int8 matrix.

    Cells are 0 or 1, or the token `free`, read as -1, when one is given.
    Blank lines and whitespace around cells are skipped.  Raises
    DatasetError naming the file and the line of the first ragged row or
    bad cell, or an empty file.
    """
    # with its whitespace gone, a well-formed row reads c,c,...,c.  The
    # rows' bytes are laid out as wide as the first row; where two rows
    # meet, two cells stand side by side, which the comma check allows
    # only at the end of a layout row.  So if it passes, every row is as
    # wide as the first.
    with open(path, "r") as fh:
        rows = [row for row in ("".join(line.split()) for line in fh) if row]
    if not rows:
        raise DatasetError(f"{path}: empty file")
    width = len(rows[0])
    grid = np.frombuffer("".join(rows).encode(), dtype=np.uint8)
    if width % 2 and grid.size == width * len(rows):
        grid = grid.reshape(len(rows), width)
        code = np.full(256, 2, dtype=np.int8)  # 2 marks a bad cell
        code[ord("0")], code[ord("1")] = 0, 1
        if free is not None:
            code[ord(free)] = -1
        cells = code[grid[:, ::2]]
        if np.all(grid[:, 1::2] == ord(",")) and np.all(cells < 2):
            return cells

    # malformed: report the first bad line
    arity = rows[0].count(",") + 1
    allowed = ("0", "1") if free is None else ("0", "1", free)
    with open(path, "r") as fh:
        for no, line in enumerate(fh, start=1):
            tokens = [tok.strip() for tok in line.split(",")]
            if tokens == [""]:
                continue  # a blank line
            if len(tokens) != arity:
                raise DatasetError(
                    f"{path}: ragged row at line {no}: "
                    f"expected {arity} values, got {len(tokens)}"
                )
            for tok in tokens:
                if tok not in allowed:
                    raise DatasetError(
                        f"{path}: invalid token {tok!r} at line {no} "
                        f"(expected {', '.join(allowed[:-1])} or {allowed[-1]})"
                    )
    raise AssertionError("unreachable: a well-formed file took the slow path")


def _check_cells(x, n_cols: int, cells=(0, 1)) -> np.ndarray:
    """`x` as an integer array, after checking that it is a matrix of
    `n_cols` columns whose every cell is one of `cells`.  Cells index
    CPT rows, so a bool or float matrix comes back as int8."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != n_cols:
        raise DatasetError(f"expected a matrix with {n_cols} columns, got {x.shape}")
    if not np.logical_or.reduce([x == c for c in cells]).all():
        raise DatasetError(f"matrix cells must be one of {cells}")
    return x if x.dtype.kind in "iu" else x.astype(np.int8)


def load_csv(path) -> WeightedDataset:
    """Load a comma-separated 0/1 file into a unit-weight dataset.

    Raises DatasetError with the offending line number on malformed
    tokens, ragged rows, or an empty file, and one naming the file when
    it has too many rows for exact counts.
    """
    cells = _read_cells(path)
    try:
        return WeightedDataset(cells, np.ones(cells.shape[0]))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def save_csv(dataset: WeightedDataset, path) -> None:
    """Write the sample matrix back as comma-separated 0/1 rows.

    Weights and variable ids are not stored; this is the inverse of
    load_csv on unit-weight data.
    """
    with open(path, "w") as fh:
        rows = dataset.samples.tolist()
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def restrict(d: WeightedDataset, var: int, value: int) -> WeightedDataset:
    """Rows of `d` where `var == value`, with that column removed.

    The resulting dataset may be empty; weights are carried over.
    """
    if value not in (0, 1):
        raise DatasetError(f"value must be 0 or 1, got {value}")
    pos = d.column(var)
    mask, keep = d.samples[:, pos] == value, np.arange(d.n_vars) != pos
    return WeightedDataset(
        d.samples[mask][:, keep], d.weights[mask], d.variable_ids[keep]
    )


def _gram(samples: np.ndarray, weights: np.ndarray) -> tuple:
    """(total, n1, n11) of a sample matrix by one weighted Gram product;
    see WeightedDataset.gram_counts."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    n11 = (x * weights[:, None]).T @ x
    return float(weights.sum()), np.diag(n11).copy(), n11


def _cut_grams(d: WeightedDataset, cols: np.ndarray) -> tuple:
    """Stacked gram_counts, (total (2k,), n1 (2k, d - 1), n11 (2k, d - 1,
    d - 1)), of restrict(d, the variable at c, value) for each of the k
    columns c in `cols`, value 0 then 1.

    Only the part with fewer rows is counted, by one product over all of
    `d`'s columns; the other part's counts are `d`'s own minus those.
    Counts are exact (see WeightedDataset), so both are the bits of
    counting each part's own rows.  Then each part drops its column."""
    total, n1, n11 = d.gram_counts()
    k, cut = len(cols), np.arange(len(cols))
    ones = np.count_nonzero(d.samples[:, cols], axis=0)
    small = (2 * ones <= d.n_rows).astype(np.int64)  # the value whose part is counted
    counted = np.empty((k, d.n_vars, d.n_vars))
    for i, (col, b) in enumerate(zip(cols.tolist(), small.tolist())):
        rows = d.samples[:, col] == b
        counted[i] = _gram(d.samples[rows], d.weights[rows])[2]
    keep = np.arange(d.n_vars - 1)
    keep = keep + (keep >= cols[:, None])  # (k, d - 1) columns kept by each cut
    r, c = keep[:, :, None], keep[:, None, :]
    counted = counted[cut[:, None, None], r, c]
    parts = np.empty((k, 2, d.n_vars - 1, d.n_vars - 1))
    parts[cut, small] = counted
    parts[cut, 1 - small] = n11[r, c] - counted
    parts = parts.reshape(2 * k, d.n_vars - 1, d.n_vars - 1)
    totals = np.stack([total - n1[cols], n1[cols]], axis=1).reshape(-1)
    return totals, np.diagonal(parts, axis1=1, axis2=2), parts
