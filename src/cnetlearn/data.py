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
            x = self.samples.astype(np.float64)
            n11 = (x * self.weights[:, None]).T @ x
            got = self._counts["gram"] = (self.total_weight, np.diag(n11).copy(), n11)
        return got

    def family_counts(self, parents: np.ndarray) -> np.ndarray:
        """Read-only (n_vars, 2, 2) table: table[v, u, x] is the weight of
        rows with x_v = x and x_parents[v] = u (u = 0 at a root).  bincount
        adds the weights in row order, so each entry is their sequential sum."""
        key = parents.tobytes()
        table = self._counts.get(key)
        if table is None:
            table = np.empty((self.n_vars, 2, 2))
            for v, p in enumerate(parents.tolist()):
                xv = self.samples[:, v]
                code = xv if p < 0 else 2 * self.samples[:, p] + xv
                table[v] = np.bincount(code, self.weights, minlength=4).reshape(2, 2)
            table.flags.writeable = False
            self._counts[key] = table
        return table

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        """Same samples, new per-row weights."""
        return WeightedDataset(self.samples, weights, self.variable_ids)


def load_csv(path) -> WeightedDataset:
    """Load a comma-separated 0/1 file into a unit-weight dataset.

    Raises DatasetError with the offending line number on malformed
    tokens, ragged rows, or an empty file.
    """
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
            row = np.empty(arity, dtype=np.uint8)
            for k, tok in enumerate(tokens):
                tok = tok.strip()
                if tok == "0":
                    row[k] = 0
                elif tok == "1":
                    row[k] = 1
                else:
                    raise DatasetError(
                        f"{path}: invalid token {tok!r} at line {lineno} "
                        f"(expected 0 or 1)"
                    )
            rows.append(row)
    if not rows:
        raise DatasetError(f"{path}: empty file")
    samples = np.vstack(rows)
    return WeightedDataset(samples, np.ones(len(rows)))


def save_csv(dataset: WeightedDataset, path) -> None:
    """Write the sample matrix back as comma-separated 0/1 rows.

    Weights and variable ids are not stored; this is the inverse of
    load_csv on unit-weight data.
    """
    with open(path, "w") as fh:
        for row in dataset.samples:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")


def restrict(d: WeightedDataset, var: int, value: int) -> WeightedDataset:
    """Rows of `d` where `var == value`, with that column removed.

    The resulting dataset may be empty; weights are carried over.
    """
    if value not in (0, 1):
        raise DatasetError(f"value must be 0 or 1, got {value}")
    pos = d.column(var)
    mask = d.samples[:, pos] == value
    keep = np.ones(d.n_vars, dtype=bool)
    keep[pos] = False
    return WeightedDataset(
        d.samples[mask][:, keep], d.weights[mask], d.variable_ids[keep]
    )

