import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from primecf.contfrac import continuants
from primecf.errors import BracketError, EnumerationGuardError, OutOfRangeError, UndefinedExponentError
from primecf.pressure import (
    B_INF_THRESHOLD,
    B_ONE_THRESHOLD,
    PROBLEM_CAP,
    S_CEIL,
    S_FLOOR,
    PressureProblem,
    _transfer_matrix,
    classify_growth,
    dimensional_number,
    f_ell,
    hwx_dimension,
    log_moment_collocate,
    log_moment_enumerate,
    partition_sum,
    word_continuants,
)


# -- independent oracles ----------------------------------------------------

def oracle_f(ell: int, s):
    f = s
    for _ in range(ell - 1):
        f = s * f / (1 - s + f)
    return f


def oracle_f_closed(ell: int, s):
    """The paper's closed form s^ell (2s - 1) / (s^ell - (1-s)^ell), s != 1/2."""
    return s ** ell * (2 * s - 1) / (s ** ell - (1 - s) ** ell)


def oracle_log_moment(M: int, n: int, s: float) -> float:
    total = 0.0
    for word in product(range(1, M + 1), repeat=n):
        total += continuants(word).q ** (-2.0 * s)
    return math.log(total)


def oracle_transfer_matrix(M: int, s: float) -> np.ndarray:
    """The collocation operator by barycentric Lagrange interpolation through
    the 61 Chebyshev-Lobatto nodes on [0, 1], a few hundred digits at a time."""
    nodes = 60
    j = np.arange(nodes + 1)
    x = (1 - np.cos(np.pi * j / nodes)) / 2
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[0] /= 2
    w[-1] /= 2
    T = np.zeros((nodes + 1, nodes + 1))
    for lo in range(1, M + 1, 256):
        a = np.arange(lo, min(lo + 256, M + 1), dtype=np.float64)
        base = a[:, None] + x[None, :]
        y = 1.0 / base
        diff = y[:, :, None] - x[None, None, :]
        exact = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            basis = w / diff
            basis /= basis.sum(axis=2, keepdims=True)
        hit = exact.any(axis=2)
        basis[hit] = exact[hit]
        T += np.einsum("ai,aij->ij", base ** (-2.0 * s), basis)
    return T


# -- exponent recursion -------------------------------------------------------

@settings(max_examples=120)
@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
       st.integers(min_value=1, max_value=6))
def test_closed_form_equals_recursion_exactly(s, ell):
    assume(s != Fraction(1, 2))
    assert f_ell(ell, s) == oracle_f_closed(ell, s) == oracle_f(ell, s)


def test_second_level_is_square():
    for i in range(1, 100):
        s = i / 100.0
        assert abs(f_ell(2, s) - s * s) < 1e-14
    assert f_ell(2, Fraction(3, 7)) == Fraction(9, 49)


def test_third_level_at_half_is_exact_sixth():
    val = f_ell(3, Fraction(1, 2))
    assert val == Fraction(1, 6)
    assert isinstance(val, Fraction)


def test_exponent_monotone_grids():
    # decreasing in ell toward the fixed point max(2s - 1, 0)
    for s in (0.3, 0.55, 0.9):
        vals = [f_ell(ell, s) for ell in range(1, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > max(2 * s - 1, 0.0) for v in vals)
    # increasing in s at fixed ell
    grid = [i / 50 for i in range(1, 50)]
    for ell in (1, 2, 3, 4):
        vals = [f_ell(ell, s) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_exponent_validation():
    with pytest.raises(ValueError):
        f_ell(0, 0.6)
    with pytest.raises(OutOfRangeError):
        f_ell(2, 0.0)
    with pytest.raises(OutOfRangeError):
        f_ell(2, 1.0)


# -- moment sums --------------------------------------------------------------

@pytest.mark.parametrize("M,n", [(2, 3), (3, 3), (4, 2), (1, 5)])
@pytest.mark.parametrize("s", [0.53, 0.7])
def test_enumerated_moment_matches_brute_force(M, n, s):
    assert log_moment_enumerate(M, n, s) == pytest.approx(oracle_log_moment(M, n, s), abs=1e-12)


@pytest.mark.parametrize("M,n", [(1, 4), (2, 5), (3, 4), (5, 3), (7, 1)])
def test_word_continuants_in_lexicographic_order(M, n):
    # the first digit is the most significant index: prefix runs are contiguous
    got = word_continuants(M, n)
    assert got.dtype == np.int64
    assert got.tolist() == [continuants(w).q for w in product(range(1, M + 1), repeat=n)]


def test_single_digit_alphabet_moment():
    # only word is (1,)*n, with continuant q = Fibonacci(n + 1)
    assert log_moment_enumerate(1, 5, 0.6) == pytest.approx(-1.2 * math.log(8), abs=1e-14)


@pytest.mark.parametrize("M,n,s", [(2, 6, 0.6), (5, 4, 0.75), (20, 3, 0.9), (20, 5, 0.53)])
def test_collocation_agrees_with_enumeration(M, n, s):
    a = log_moment_enumerate(M, n, s)
    b = log_moment_collocate(M, n, s)
    assert b == pytest.approx(a, abs=1e-10)


@pytest.mark.parametrize("M", [1, 2, 20, 1000, 1500])
@pytest.mark.parametrize("s", [S_FLOOR, 0.75, S_CEIL])
def test_transfer_matrix_matches_barycentric_oracle(M, s):
    T, x = _transfer_matrix(M, s)
    want = oracle_transfer_matrix(M, s)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.abs(T - want).max() <= 1e-13 * np.abs(want).max()


def test_transfer_matrix_spectral_radius_gives_dim_E2():
    # Hensley / Jenkinson-Pollicott: dim of the reals with all digits in {1, 2}
    # is the s where the transfer operator has spectral radius 1
    def log_radius(s):
        return math.log(np.abs(np.linalg.eigvals(_transfer_matrix(2, s)[0])).max())
    lo, hi = 0.5, 0.6
    assert log_radius(lo) > 0 > log_radius(hi)
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        if log_radius(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(0.5312805062772051416, abs=1e-13)


def _traced_peak(M: int, s: float) -> int:
    tracemalloc.start()
    try:
        _transfer_matrix(M, s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transfer_matrix_memory_is_chunked():
    # one (nodes+1, digits) array per Chebyshev degree in flight, never a
    # (digits, nodes+1, nodes+1) tensor
    assert _traced_peak(5000, 0.75) < 100 * 2**20
    # the digit sums give the same operator: one-digit words are enumerable
    assert log_moment_collocate(5000, 1, 0.75) == pytest.approx(
        log_moment_enumerate(5000, 1, 0.75), abs=1e-12)
    assert _traced_peak(PROBLEM_CAP, 0.75) < 64 * 2**20


def test_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        log_moment_enumerate(20, 8, 0.6)
    with pytest.raises(EnumerationGuardError):
        word_continuants(20, 8)
    # one word, but its q = Fibonacci(101) would wrap around in int64
    with pytest.raises(EnumerationGuardError):
        word_continuants(1, 100)
    prob = PressureProblem(ell=1, B=2.0, M=20, n=8)
    with pytest.raises(EnumerationGuardError):
        partition_sum(prob, 0.6, method="enumerate")
    # auto must route the same problem to the interpolant path
    assert math.isfinite(partition_sum(prob, 0.6, method="auto"))


def test_partition_sum_validation():
    prob = PressureProblem(ell=1, B=2.0, M=3, n=2)
    with pytest.raises(ValueError):
        partition_sum(prob, 0.6, method="thorough")
    with pytest.raises(OutOfRangeError):
        partition_sum(prob, 1.2)
    with pytest.raises(ValueError):
        PressureProblem(ell=1, B=1.0, M=3, n=2)
    with pytest.raises(ValueError):
        PressureProblem(ell=0, B=2.0, M=3, n=2)
    for B in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PressureProblem(ell=1, B=B, M=3, n=2)
    PressureProblem(ell=1, B=2.0, M=PROBLEM_CAP, n=PROBLEM_CAP)
    for M, n in ((PROBLEM_CAP + 1, 8), (5, PROBLEM_CAP + 1)):
        with pytest.raises(OutOfRangeError):
            PressureProblem(ell=1, B=2.0, M=M, n=n)


def test_partition_sum_definition():
    prob = PressureProblem(ell=2, B=3.0, M=3, n=3)
    want = -3 * f_ell(2, 0.6) * math.log(3.0) + oracle_log_moment(3, 3, 0.6)
    assert partition_sum(prob, 0.6) == pytest.approx(want, abs=1e-12)


# -- dimensional number -------------------------------------------------------

def test_dimension_near_one_scale():
    t = dimensional_number(PressureProblem(ell=1, B=1 + 1e-6, M=20, n=8))
    assert t == pytest.approx(0.988975017, abs=1e-6)
    assert t >= 0.85


def test_dimension_decreases_in_scale():
    t2 = dimensional_number(PressureProblem(ell=1, B=2.0, M=20, n=8))
    t10 = dimensional_number(PressureProblem(ell=1, B=10.0, M=20, n=8))
    assert t2 == pytest.approx(0.747015683, abs=1e-6)
    assert t10 == pytest.approx(0.504291306, abs=1e-6)
    assert 1 > t2 > t10 > 0.5


def test_dimension_floor_clamp_for_huge_scale():
    t = dimensional_number(PressureProblem(ell=1, B=1e6, M=20, n=8))
    assert t == 0.500001


def test_dimension_single_word_alphabet():
    assert dimensional_number(PressureProblem(ell=1, B=2.0, M=1, n=6)) == 0.0


def test_dimension_bracket_error():
    # at depth 1 the moment sum stays near sum d^-2 ~ 1.6 > 1, so a scale
    # this close to 1 cannot pull the partition sum below 1 anywhere in range
    with pytest.raises(BracketError):
        dimensional_number(PressureProblem(ell=1, B=1 + 1e-9, M=20, n=1))


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_dimension_bisection_stops_at_float_resolution(tol):
    problem = PressureProblem(ell=1, B=2.0, M=5, n=3)
    t = dimensional_number(problem, tol=tol)
    assert abs(t - dimensional_number(problem)) < 1e-9
    assert abs(t - dimensional_number(problem, tol=1e-15)) < 1e-15


def test_dimension_refuses_nan_tolerance():
    with pytest.raises(ValueError):
        dimensional_number(PressureProblem(ell=1, B=2.0, M=5, n=3), tol=math.nan)


def test_dimension_stable_under_depth_doubling():
    a = dimensional_number(PressureProblem(ell=1, B=2.0, M=8, n=4))
    b = dimensional_number(PressureProblem(ell=1, B=2.0, M=8, n=8))
    assert abs(a - b) < 0.02


# -- growth classification ----------------------------------------------------

def test_growth_exponential_handle():
    exps = classify_growth(lambda n: 3.0 ** n, (10, 200))
    assert exps.logB == pytest.approx(math.log(3), abs=1e-12)
    assert 0 < exps.logb < math.log(B_INF_THRESHOLD)
    assert exps.skipped == ()


def test_growth_doubly_exponential_handle():
    # log phi = 2^n exactly, so log log phi / n = log 2 for every n
    exps = classify_growth(lambda n: mp.exp(2 ** n), (10, 40))
    assert exps.logb == pytest.approx(math.log(2), abs=1e-12)


def test_growth_skips_small_values():
    exps = classify_growth(lambda n: 0.5 if n < 15 else math.e ** n, (10, 20))
    assert exps.skipped == tuple(range(10, 15))
    assert exps.logB == pytest.approx(1.0, abs=1e-12)


def test_growth_clamps_negative_ratios():
    exps = classify_growth(lambda n: 1.5, (10, 20))
    assert exps.logb == 0.0
    assert exps.logB > 0


def test_growth_undefined_and_empty():
    with pytest.raises(UndefinedExponentError):
        classify_growth(lambda n: 1.0, (5, 10))
    with pytest.raises(ValueError):
        classify_growth(lambda n: 2.0, (10, 5))
    with pytest.raises(ValueError):
        classify_growth(lambda n: 2.0, (0, 5))


# -- dimension by regime --------------------------------------------------------

def test_regime_thresholds_ordered():
    assert 1 < B_ONE_THRESHOLD < B_INF_THRESHOLD


def test_regime_subexponential_gives_full_dimension():
    rep = hwx_dimension(1, lambda n: n * math.log(n) ** 2, (100, 10_000))
    assert rep.case == "B=1"
    assert rep.value == 1.0


def test_regime_exponential_matches_dimensional_number():
    rep = hwx_dimension(1, lambda n: 3.0 ** n, (10, 200))
    assert rep.case == "1<B<inf"
    B_hat = math.exp(rep.exponents.logB)
    want = dimensional_number(PressureProblem(ell=1, B=B_hat, M=20, n=8))
    assert rep.value == pytest.approx(want, abs=1e-12)
    assert 0.5 < rep.value < 1


def test_regime_doubly_exponential_gives_reciprocal():
    rep = hwx_dimension(1, lambda n: mp.exp(2 ** n), (10, 40))
    assert rep.case == "B=inf"
    assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-12)
