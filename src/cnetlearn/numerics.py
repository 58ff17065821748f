"""Log-domain numerical primitives shared by all score computations.

Everything is in natural-log units (nats).  -inf is a legal value for
impossible events; NaN is never produced.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma", "log_beta", "log_sum_exp_rows", "weighted_sum"]


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Arguments may be non-integer reals (fractional counts appear during
    structural EM).  Relative error is at machine level over the range
    used by the scores, well inside 1e-12 on [1e-3, 1e8].
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """Natural log of the Beta function B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_sum_exp_rows(mat: np.ndarray) -> np.ndarray:
    """Column-wise log(sum(exp)) of a (k, n) matrix: one result per
    column, -inf where a whole column is -inf."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("log_sum_exp_rows needs a nonempty 2-D matrix")
    m = mat.max(axis=0)
    out = np.full(mat.shape[1], -math.inf)
    fin = m > -math.inf
    if fin.any():
        out[fin] = m[fin] + np.log(np.exp(mat[:, fin] - m[fin]).sum(axis=0))
    return out


def weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """Sum of weights * values over the rows of positive weight, so a row
    of zero weight adds nothing even where its value is -inf.  The sum
    is exactly rounded (math.fsum), so it does not depend on the order
    of the rows or on how a BLAS would split it."""
    live = weights > 0
    return math.fsum((weights[live] * values[live]).tolist())
