"""Log-domain primitives against independently derived references."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cnetlearn import log_gamma, log_beta, log_sum_exp_rows
from cnetlearn.numerics import weighted_sum

from helpers import log_sum_exp


# ---------------------------------------------------------------------------
# independent log-gamma reference: Stirling series after an exact
# rational shift into its convergence range

def _bernoulli_numbers(m: int) -> list:
    """B_0..B_m as exact fractions (B_1 = -1/2 convention)."""
    out = [Fraction(0)] * (m + 1)
    out[0] = Fraction(1)
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * out[k]
        out[n] = -acc / (n + 1)
    return out


_BERN = _bernoulli_numbers(100)


def stirling_log_gamma(x: float, terms: int = 50, min_z: float = 30.0) -> float:
    """Reference log-gamma: raise the argument by the recurrence
    log G(x) = log G(x + m) - log(x (x+1) ... (x+m-1)) with the product
    taken in exact rationals, then apply the Stirling series at z >= 30
    where 50 terms are far below double precision."""
    shift = max(0, math.ceil(min_z - x))
    z = x + shift
    series = 0.0
    zpow = 1.0 / z  # z^{-(2k-1)}, kept incremental so huge z never overflows
    inv_z2 = zpow * zpow
    for k in range(1, terms + 1):
        term = float(_BERN[2 * k]) / ((2 * k) * (2 * k - 1)) * zpow
        series += term
        if abs(term) < 1e-320:
            break
        zpow *= inv_z2
    val = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2 * math.pi) + series
    if shift:
        prod = Fraction(1)
        fx = Fraction(x)
        for i in range(shift):
            prod *= fx + i
        val -= math.log(prod.numerator) - math.log(prod.denominator)
    return val


def test_log_gamma_known_points():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-14)
    # Gamma(5) = 24
    assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-14)


def test_log_gamma_matches_stirling_reference():
    xs = [1e-3, 0.05, 0.1, 0.5, 1.5, 2.5, 10.3, 123.456, 1e4, 1e6, 1e8]
    for x in xs:
        ref = stirling_log_gamma(x)
        got = log_gamma(x)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), x


def test_log_gamma_recurrence_property():
    # relative to the magnitudes actually subtracted: a difference of two
    # ~1e7-sized values cannot be more accurate than their own precision
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = float(np.exp(rng.uniform(math.log(0.1), math.log(1e6))))
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        rhs = math.log(x)
        scale = max(1.0, abs(rhs), abs(log_gamma(x + 1.0)))
        assert abs(lhs - rhs) <= 1e-11 * scale


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_log_beta_is_gamma_combination():
    for a, b in [(0.05, 0.05), (0.5, 3.5), (2.0, 2.0), (17.0, 0.1)]:
        direct = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
        assert log_beta(a, b) == direct
    # B(1, 1) = 1
    assert abs(log_beta(1.0, 1.0)) <= 1e-15


def test_log_sum_exp_examples():
    assert math.isclose(
        log_sum_exp([math.log(0.25), math.log(0.75)]), 0.0, abs_tol=1e-14
    )
    # far below the exp underflow range, still exact via the max shift
    got = log_sum_exp([-1000.0, -1000.5])
    expected = -1000.0 + math.log(1.0 + math.exp(-0.5))
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert math.isclose(log_sum_exp([-math.inf, 2.0]), 2.0, rel_tol=1e-15)


def test_log_sum_exp_empty():
    with pytest.raises(ValueError):
        log_sum_exp([])


def test_log_sum_exp_rows_matches_scalar():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 9)) * 50
    mat[1, 3] = -math.inf
    mat[:, 5] = -math.inf
    got = log_sum_exp_rows(mat)
    for j in range(mat.shape[1]):
        assert got[j] == log_sum_exp(mat[:, j]) or math.isclose(
            got[j], log_sum_exp(mat[:, j]), rel_tol=1e-14
        )
    assert got[5] == -math.inf


def test_log_sum_exp_rows_shape_checks():
    with pytest.raises(ValueError):
        log_sum_exp_rows(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        log_sum_exp_rows(np.zeros(3))


def test_weighted_sum_is_exactly_rounded_and_skips_zero_weights():
    # a sequential sum, and a BLAS dot, lose the 1.0 against 1e16; the
    # zero-weight row's -inf adds nothing
    w = np.array([1.0, 1.0, 0.0, 1.0])
    v = np.array([1e16, 1.0, -math.inf, -1e16])
    assert weighted_sum(w, v) == 1.0
    rng = np.random.default_rng(4)
    w, v = rng.uniform(0, 2, 1000), rng.normal(size=1000) * 1e3
    perm = rng.permutation(1000)
    assert weighted_sum(w, v) == weighted_sum(w[perm], v[perm])
    assert weighted_sum(w, v) == math.fsum((w * v).tolist())
