import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from primecf import pressure
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


def plain_bisection(problem: PressureProblem, tol: float = 1e-9, method: str = "auto") -> float:
    """`dimensional_number` as plain bisection of [S_FLOOR, S_CEIL] that
    solves at every midpoint, with the same end conventions and message."""
    if problem.M == 1:
        return 0.0
    lo, hi = S_FLOOR, S_CEIL
    g_lo = pressure.partition_sum(problem, lo, method)
    if g_lo < 0:
        return lo
    g_hi = pressure.partition_sum(problem, hi, method)
    if g_hi > 0:
        raise BracketError(
            f"partition sum stays above 1 on [{lo}, {hi}]: "
            f"log-sum({lo}) = {g_lo:.6g}, log-sum({hi}) = {g_hi:.6g}"
        )
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if pressure.partition_sum(problem, mid, method) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def outcome(root, problem: PressureProblem, tol: float, method: str = "auto"):
    """The root, or the BracketError message in its place."""
    try:
        return root(problem, tol, method)
    except BracketError as exc:
        return str(exc)


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


@pytest.mark.parametrize("M,n,Bs", [(2, 15, (1.02, 1.1)), (3, 10, (1.05, 1.3)),
                                    (6, 6, (1.5, 3.0)), (20, 4, (2.0, 10.0))])
def test_auto_collocates_above_its_cap_with_the_enumerated_roots(M, n, Bs):
    # above the cap "auto" collocates, and up to 2*10^5 words enumeration is
    # still cheap enough to check it: the roots, all inside (S_FLOOR,
    # S_CEIL), are the same doubles
    assert pressure._AUTO_ENUMERATION_CAP < M**n <= 200_000
    for B in Bs:
        problem = PressureProblem(ell=1, B=B, M=M, n=n)
        t = dimensional_number(problem)
        assert pressure.S_FLOOR < t < pressure.S_CEIL
        assert t == dimensional_number(problem, method="enumerate"), B


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

@pytest.fixture
def solved_at(monkeypatch):
    """The s of every `pressure.partition_sum` call, in call order."""
    seen = []
    solve = pressure.partition_sum

    def counted(problem, s, method="auto"):
        seen.append(s)
        return solve(problem, s, method)

    monkeypatch.setattr(pressure, "partition_sum", counted)
    return seen


@pytest.fixture
def memoized(monkeypatch):
    """`pressure.partition_sum` remembering each (problem, s, method), so the
    oracle and the search share solves, and so do the tolerances of a problem."""
    solve = pressure.partition_sum
    cache = {}

    def remembered(problem, s, method="auto"):
        key = (problem, s, method)
        if key not in cache:
            cache[key] = solve(problem, s, method)
        return cache[key]

    monkeypatch.setattr(pressure, "partition_sum", remembered)


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


def test_dimension_floor_clamp_for_huge_scale(solved_at):
    t = dimensional_number(PressureProblem(ell=1, B=1e6, M=20, n=8))
    assert t == 0.500001
    assert solved_at == [S_FLOOR]


def test_dimension_single_word_alphabet():
    assert dimensional_number(PressureProblem(ell=1, B=2.0, M=1, n=6)) == 0.0


def test_dimension_bracket_error(solved_at):
    # at depth 1 the moment sum stays near sum d^-2 ~ 1.6 > 1, so a scale
    # this close to 1 cannot pull the partition sum below 1 anywhere in range
    problem = PressureProblem(ell=1, B=1 + 1e-9, M=20, n=1)
    message = outcome(plain_bisection, problem, 1e-9)
    assert message.startswith(f"partition sum stays above 1 on [{S_FLOOR}, {S_CEIL}]")
    solved_at.clear()
    with pytest.raises(BracketError) as exc:
        dimensional_number(problem)
    assert str(exc.value) == message
    assert solved_at == [S_FLOOR, S_CEIL]


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_dimension_bisection_stops_at_float_resolution(tol):
    problem = PressureProblem(ell=1, B=2.0, M=5, n=3)
    t = dimensional_number(problem, tol=tol)
    assert abs(t - dimensional_number(problem)) < 1e-9
    assert abs(t - dimensional_number(problem, tol=1e-15)) < 1e-15


def test_dimension_refuses_nan_tolerance():
    with pytest.raises(ValueError):
        dimensional_number(PressureProblem(ell=1, B=2.0, M=5, n=3), tol=math.nan)


@pytest.mark.parametrize("M,n,method", [(20, 8, "auto"), (6, 6, "enumerate"),
                                        (2, 30, "collocate"), (100, 30, "collocate")])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_dimension_is_plain_bisection_bit_for_bit(memoized, ell, M, n, method):
    for B in (1.5, 2.0, 2.718, 10.003, 40.0):
        problem = PressureProblem(ell=ell, B=B, M=M, n=n)
        for tol in (1e-9, 1e-15, 0.0):
            assert outcome(dimensional_number, problem, tol, method) == outcome(
                plain_bisection, problem, tol, method), (B, tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.floats(min_value=-6, max_value=4),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=5),
       st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15, 0.0, -1.0]))
def test_dimension_is_plain_bisection_on_drawn_problems(ell, log10_B_minus_1, M, n, tol):
    problem = PressureProblem(ell=ell, B=1 + 10 ** log10_B_minus_1, M=M, n=n)
    assert outcome(dimensional_number, problem, tol) == outcome(plain_bisection, problem, tol)


@pytest.mark.parametrize("problem,method,digits,solves", [
    (PressureProblem(ell=1, B=2.814168, M=1000, n=30), "auto", "0.74074662871946206355", 12),
    (PressureProblem(ell=2, B=10.005893, M=6, n=6), "enumerate", "0.53130843003922889611", 10),
    (PressureProblem(ell=1, B=2.149, M=20, n=8), "auto", "0.72999471931007697822", 10),
], ids=["collocate-M1000", "enumerate", "hwx-dim"])
def test_dimension_workload_roots_in_a_third_of_the_solves(solved_at, problem, method,
                                                           digits, solves):
    # the dimension benchmark's roots at seed 1, which plain bisection
    # printed with these digits after 31 solves each
    t = dimensional_number(problem, method=method)
    assert format(t, ".20g") == digits
    assert len(solved_at) <= solves


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_dimension_nonpositive_tolerance_ends_at_adjacent_floats(monkeypatch, tol):
    # log-sum = r - s is exact near r, so the bracket closes on the double r
    r = 0.7
    monkeypatch.setattr(pressure, "partition_sum", lambda problem, s, method="auto": r - s)
    problem = PressureProblem(ell=1, B=2.0, M=5, n=3)
    t = dimensional_number(problem, tol=tol)
    assert t in (r, math.nextafter(r, 1.0))
    assert t == plain_bisection(problem, tol)


@pytest.mark.parametrize("log_sum", [lambda s: S_CEIL - s, lambda s: 0.0],
                         ids=["linear", "flat"])
def test_dimension_exact_zero_at_ceiling_is_no_sign_bracket(monkeypatch, log_sum):
    # log-sum(S_CEIL) = 0 is not < 0: no search step, and every midpoint is solved
    seen = []

    def stub(problem, s, method="auto"):
        seen.append(s)
        return log_sum(s)

    monkeypatch.setattr(pressure, "partition_sum", stub)
    problem = PressureProblem(ell=1, B=2.0, M=5, n=3)
    want = plain_bisection(problem)
    bisected = seen[:]
    seen.clear()
    assert dimensional_number(problem) == want
    assert seen == bisected


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
