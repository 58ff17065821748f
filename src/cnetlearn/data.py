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


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent dataset arguments."""


@dataclass
class WeightedDataset:
    """Binary sample matrix with per-row weights.

    samples       -- (n_rows, n_vars) array of {0,1}, dtype uint8
    weights       -- (n_rows,) nonnegative reals
    variable_ids  -- global variable index of each column, strictly increasing

    Counts are memoized per instance, so a dataset must not be changed
    in place once it has been counted.
    """

    samples: np.ndarray
    weights: np.ndarray
    variable_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        pos = int(np.searchsorted(self.variable_ids, var))
        if pos >= self.n_vars or self.variable_ids[pos] != var:
            raise DatasetError(f"variable {var} not in dataset")
        return pos

    def gram_counts(self) -> tuple:
        """(total, n1, n11): the total weight, n1[v] the weight of rows
        with x_v = 1 and n11[u, v] the weight of rows with x_u = x_v = 1."""
        got = self._counts.get("gram")
        if got is None:
            got = self._counts["gram"] = _gram(self.samples, self.weights)
        return got

    def family_counts(self, parents: np.ndarray) -> np.ndarray:
        """Read-only (n_vars, 2, 2) table: table[v, u, x] is the weight of
        rows with x_v = x and x_parents[v] = u (u = 0 at a root).  bincount
        adds the weights in row order, so each entry is their sequential sum."""
        key = parents.tobytes()
        table = self._counts.get(key)
        if table is None:
            table = np.zeros((self.n_vars, 2, 2))  # a bincount of no rows is +0.0
            for v, p in enumerate(parents.tolist() if self.n_rows else ()):
                xv = self.samples[:, v]
                code = xv if p < 0 else 2 * self.samples[:, p] + xv
                table[v] = np.bincount(code, self.weights, minlength=4).reshape(2, 2)
            table.flags.writeable = False
            self._counts[key] = table
        return table

    def _remember(self, gram: tuple, parents: np.ndarray, table: np.ndarray) -> None:
        """Memoize counts of this dataset computed elsewhere from its rows,
        bit for bit what gram_counts() and family_counts(parents) give."""
        table.flags.writeable = False
        self._counts["gram"] = gram
        self._counts[parents.tobytes()] = table

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        """Same samples, new per-row weights."""
        return WeightedDataset(self.samples, weights, self.variable_ids)


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
    """`x` as an array, after checking that it is a matrix of `n_cols`
    columns whose every cell is one of `cells`."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != n_cols:
        raise DatasetError(f"expected a matrix with {n_cols} columns, got {x.shape}")
    if not np.logical_or.reduce([x == c for c in cells]).all():
        raise DatasetError(f"matrix cells must be one of {cells}")
    return x


def load_csv(path) -> WeightedDataset:
    """Load a comma-separated 0/1 file into a unit-weight dataset.

    Raises DatasetError with the offending line number on malformed
    tokens, ragged rows, or an empty file.
    """
    cells = _read_cells(path)
    return WeightedDataset(cells, np.ones(cells.shape[0]))


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
    mask, keep = _split(d, pos, value)
    return WeightedDataset(
        d.samples[mask][:, keep], d.weights[mask], d.variable_ids[keep]
    )


def _split(d: WeightedDataset, pos: int, value: int) -> tuple:
    """(rows, columns) masks of the part of `d` where column `pos` holds
    `value`, without that column."""
    keep = np.ones(d.n_vars, dtype=bool)
    keep[pos] = False
    return d.samples[:, pos] == value, keep


def _gram(samples: np.ndarray, weights: np.ndarray) -> tuple:
    """(total, n1, n11) of a sample matrix by one weighted Gram product;
    see WeightedDataset.gram_counts.  The product's bits depend on the
    layout of its inputs, so `x` is always in C order."""
    x = np.ascontiguousarray(samples, dtype=np.float64)
    n11 = (x * weights[:, None]).T @ x
    return float(weights.sum()), np.diag(n11).copy(), n11


def _split_gram(d: WeightedDataset, pos: int, value: int) -> tuple:
    """gram_counts of restrict(d, the variable at `pos`, value), from a
    copy of its rows that is dropped at once.  The product gets the inputs
    that dataset would give it, so the counts are the same bits."""
    mask, keep = _split(d, pos, value)
    return _gram(d.samples[mask][:, keep], d.weights[mask])


def _split_family_counts(d: WeightedDataset, pos: int, parents: np.ndarray) -> np.ndarray:
    """(2, n_vars - 1, 2, 2) family counts of both parts of a split on
    column `pos`, counted on d's own rows: out[c] equals
    restrict(d, the variable at `pos`, c).family_counts(parents[c]).

    One bincount per variable takes the key 4 x_cut + 2 x_parent + x_v,
    with the parent from the tree of the part the row goes to (value 0 at
    a root).  Each bin still adds its part's weights in row order, so it
    holds the same sequential sum as a count on the part alone."""
    n_rows, n_vars = d.samples.shape
    keep = np.delete(np.arange(n_vars), pos)
    cut = d.samples[:, pos]
    low = np.ascontiguousarray(d.samples[:, keep].T) + 4 * cut  # 4 x_cut + x_v
    twice = np.zeros((n_vars + 1, n_rows), dtype=np.uint8)  # the last row for roots
    np.multiply(d.samples.T, 2, out=twice[:-1])
    # a part's local parent index -> its row of `twice`; -1 picks the zeros
    rows = np.append(keep, n_vars)[parents].T.tolist()
    on = cut.astype(bool)
    out = np.empty((len(keep), 8))
    for v, (p0, p1) in enumerate(rows):
        high = twice[p0] if p0 == p1 else np.where(on, twice[p1], twice[p0])
        out[v] = np.bincount(low[v] + high, d.weights, minlength=8)
    return out.reshape(-1, 2, 2, 2).swapaxes(0, 1)

