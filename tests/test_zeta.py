import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import numpy as np

from primecf import primes, zeta
from primecf.errors import DivergentSeriesError
from primecf.zeta import (
    FIX_BITS,
    asymptotic_table,
    mobius,
    pzeta_tail,
    pzeta_via_mobius,
    zeta_em,
)


# -- independent oracles ----------------------------------------------------

def oracle_omega(n: int) -> int:
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    if n > 1:
        count += 1
    return count


def oracle_tail_fraction(ell: int, mode: str, s: int, M: float, cutoff: int) -> Fraction:
    """Exact rational tail for integer s, by direct factor counting."""
    total = Fraction(0)
    for k in range(2, cutoff + 1):
        if k < M:
            continue
        w = oracle_omega(k)
        if (w == ell) if mode == "exactly" else (w <= ell):
            total += Fraction(1, k**s)
    return total


def close(a, b, tol) -> bool:
    with mp.workdps(60):
        return abs(mpf(a) - mpf(b)) < tol


def exact_value(x: mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def oracle_power_sum(ks, s: float) -> tuple[Fraction, Fraction]:
    """Bracket of sum k^-s: exact for integer s, else 600-bit powers padded
    by 2^-500, far below the 2^-FIX_BITS unit of the sums it checks."""
    if s.is_integer():
        total = sum(Fraction(1, k ** int(s)) for k in ks)
        return total, total
    with mp.workprec(600):
        total = exact_value(mp.fsum(mpf(k) ** -mpf(s) for k in ks))
    pad = Fraction(1, 2**500)
    return total - pad, total + pad


# -- truncated tails --------------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("mode", ["exactly", "at-most"])
@pytest.mark.parametrize("M", [2, 10, 100.5])
def test_tail_matches_exact_rational_sum(sieve_small, ell, mode, M):
    res = pzeta_tail(ell, mode, 2, M, 500, sieve_small)
    exact = oracle_tail_fraction(ell, mode, 2, M, 500)
    with mp.workdps(60):
        want = mpf(exact.numerator) / mpf(exact.denominator)
    assert close(res.value, want, mpf("1e-30"))
    assert res.remainder_bound > 0
    assert res.upper > want


def test_tail_term_count(sieve_small):
    # integers <= 10 with exactly two prime factors: 4, 6, 9, 10
    res = pzeta_tail(2, "exactly", 2, 4, 10, sieve_small)
    assert res.terms_used == 4
    exact = Fraction(1, 16) + Fraction(1, 36) + Fraction(1, 81) + Fraction(1, 100)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
    assert close(res.value, want, mpf("1e-30"))
    assert pzeta_tail(1, "exactly", 2, 2, 100, sieve_small).terms_used == 25


def test_tail_empty_range(sieve_small):
    # no primes between 24 and 28
    res = pzeta_tail(1, "exactly", 2, 24, 28, sieve_small)
    assert res.value == 0
    assert res.terms_used == 0
    assert res.remainder_bound > 0


def test_tail_monotone_in_threshold_and_exponent(sieve_small):
    vals = [pzeta_tail(1, "exactly", 2, M, 100_000, sieve_small).value
            for M in (2, 10, 1000)]
    assert vals[0] > vals[1] > vals[2] > 0
    hot = pzeta_tail(1, "exactly", 3, 2, 100_000, sieve_small).value
    assert hot < vals[0]


@pytest.mark.parametrize("ell,mode", [(1, "exactly"), (2, "at-most")])
def test_tail_remainder_contains_longer_run(sieve_small, ell, mode):
    # the value at a larger cutoff must land inside [value, upper]
    short = pzeta_tail(ell, mode, 2, 2, 10_000, sieve_small)
    long = pzeta_tail(ell, mode, 2, 2, 100_000, sieve_small)
    assert short.value < long.value < short.upper


def test_tail_validation(sieve_small):
    with pytest.raises(DivergentSeriesError):
        pzeta_tail(1, "exactly", 1.0, 2, 100, sieve_small)
    with pytest.raises(DivergentSeriesError):
        pzeta_tail(1, "exactly", 0.5, 2, 100, sieve_small)
    with pytest.raises(DivergentSeriesError):
        pzeta_tail(1, "exactly", math.nan, 2, 100, sieve_small)
    with pytest.raises(ValueError):
        pzeta_tail(1, "exactly", 2, math.nan, 100, sieve_small)
    with pytest.raises(ValueError):
        pzeta_tail(1, "exactly", 2, 1.5, 100, sieve_small)
    with pytest.raises(ValueError):
        pzeta_tail(1, "exactly", 2, 200, 100, sieve_small)


def test_prime_tail_above_ten_matches_independent_route(sieve_big):
    # primes below 10 are 2, 3, 5, 7; removing them from the full prime sum
    # leaves the tail from 10 up, to within the truncation bound
    res = pzeta_tail(1, "exactly", 2, 10, 10_000_000, sieve_big)
    head = Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 25) + Fraction(1, 49)
    with mp.workdps(50):
        want = pzeta_via_mobius(2) - mpf(head.numerator) / head.denominator
        assert abs(res.value - want) <= res.remainder_bound
    assert abs(float(res.value) - 0.0307281) < 2e-7


# -- fixed-point accumulation ------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 2.5, 2.25, 2.125, 2.3])
@pytest.mark.parametrize("ks", [[], [2], list(range(2, 40)) + [97, 10**6 + 3, 10**9 - 1]],
                         ids=["empty", "two", "multi-chunk"])
def test_fixed_point_sum_brackets_true_sum(monkeypatch, s, ks):
    # a chunk of 7 terms makes the longest input span six chunks
    monkeypatch.setattr(zeta, "FIX_CHUNK", 7)
    lower, upper, e = zeta._power_sum(np.array(ks, dtype=np.int64), s)
    lo, hi = oracle_power_sum(ks, s)
    unit = Fraction(1, 2 ** (FIX_BITS + e))
    assert lower * unit <= hi and lo <= upper * unit
    exact_route = zeta._exact_root(s) is not None
    assert exact_route == (s != 2.3)
    assert upper - lower == (len(ks) if exact_route else len(ks) + 2 * bool(ks))


def one_limb_max(a: int) -> int:
    """The largest k with k^a < 2^62, found in exact integers."""
    k = int(2.0 ** (62 / a))
    while k ** a >= 1 << 62:
        k -= 1
    while (k + 1) ** a < 1 << 62:
        k += 1
    return k


def around_one_limb_edge(a: int):
    """(a, ks): each k near the largest with k^a < 2^62, or up to 2^30."""
    edge = one_limb_max(a)
    near = st.integers(max(edge - 40, 2), edge + 40)
    return st.tuples(st.just(a), st.lists(near | st.integers(2, 2**30), min_size=1,
                                          max_size=30))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a_ks=st.integers(2, 8).flatmap(around_one_limb_edge), m=st.sampled_from([1, 2, 4, 5]),
       shift=st.sampled_from([-1, 0, 1]), chunk=st.integers(1, 9),
       digit=st.sampled_from([40, 48]))
# digits of 40-bit limbs estimated one too low (2147433687) and one too high
# (the other ks)
@example(a_ks=(2, [2147433687, 2147406070]), m=4, shift=1, chunk=1, digit=40)
@example(a_ks=(2, [79333]), m=2, shift=-1, chunk=2, digit=40)
@example(a_ks=(3, [8713]), m=2, shift=0, chunk=1, digit=40)
def test_limb_division_matches_per_term_floors(a_ks, m, shift, chunk, digit):
    # k^a on both sides of 2^62, so one division pass or two, and units
    # around a multiple of a digit: the numpy long division and the per-term
    # floor division of 2^unit by k^a must give the same integers
    a, ks = a_ks
    edge = one_limb_max(a)
    assert edge ** a < 2**62 <= (edge + 1) ** a
    e = zeta._unit_exponent(min(ks), a)
    unit = digit * m + shift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeta, "FIX_CHUNK", chunk)
        patch.setattr(zeta, "FIX_BITS", unit - e)
        lower, upper, got_e = zeta._power_sum(np.array(ks, dtype=np.int64), a)
    assert got_e == e
    assert lower == sum((1 << unit) // k**a for k in ks)
    assert upper == lower + len(ks)


def exact_exponent(j: int):
    """(a, j) with s = a / 2^j > 1 in lowest terms, a <= 64."""
    if j == 0:
        return st.tuples(st.integers(2, 64), st.just(0))
    return st.tuples(st.integers(1 << (j - 1), 31).map(lambda h: 2 * h + 1), st.just(j))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(aj=st.integers(0, 3).flatmap(exact_exponent),
       ks=st.lists(st.integers(2, 2**31 - 1) | st.integers(2, 5000)
                   | st.sampled_from([2, 3, 10**9 - 1, 2**31 - 1]), min_size=1, max_size=25),
       digit=st.sampled_from([32, 48]), drop=st.integers(-1, 3),
       shift=st.sampled_from([-1, 0, 1]), chunk=st.integers(1, 9), undecided=st.just(()))
# Terms the root's bound cannot decide: k = 2 far below the chunk's largest
# radicand, whose seed the steps' bounds leave out; and terms far above 2^161
# units, whose root is too coarse for their floor
@example(aj=(17, 3), ks=[2, 2**31 - 1], digit=48, drop=0, shift=0, chunk=2,
         undecided=(0,))
@example(aj=(5, 1), ks=[2, 10**9 - 1], digit=48, drop=-1, shift=1, chunk=9,
         undecided=(0,))
@example(aj=(43, 2), ks=[1542839176], digit=48, drop=-1, shift=1, chunk=1,
         undecided=(0,))
def test_exact_route_floors_match_per_term_isqrt(aj, ks, digit, drop, shift, chunk,
                                                 undecided):
    # every floor of the numpy kernel, element by element, is the per-term
    # Python expression: units around multiples of 32 and 48 bits, up to one
    # digit above the unit of the least k, chunks of 1 to 9 terms
    a, j = aj
    s = a / 2**j
    natural = FIX_BITS + zeta._unit_exponent(min(ks), s)
    unit = max(digit * (natural // digit - drop) + shift, 1)
    want = []
    for k in ks:
        term = (1 << (unit << j)) // k**a
        for _ in range(j):
            term = math.isqrt(term)
        want.append(term)
    arr = np.array(ks, dtype=np.int64)
    for lo in range(0, len(ks), chunk):
        rows, exact = zeta._floor_terms(arr[lo:lo + chunk], a, j, unit)
        for i in range(min(chunk, len(ks) - lo)):
            got = exact.get(i, 0)
            for n, row in enumerate(reversed(rows)):
                got += int(row[i]) << (48 * n)
            assert got == want[lo + i], (ks[lo + i], unit)
            assert lo + i not in undecided or i in exact
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeta, "FIX_CHUNK", chunk)
        assert zeta._unit_sum(arr, s, unit) == sum(want)


def test_fixed_point_units_and_chunking(monkeypatch):
    # 2^-2 is 2^(FIX_BITS-1) units of 2^-(FIX_BITS+1)
    two = np.array([2], dtype=np.int64)
    assert zeta._power_sum(two, 2) == (2 ** (FIX_BITS - 1), 2 ** (FIX_BITS - 1) + 1, 1)
    # on the mpf route 2^-100 comes back as mantissa 1, shifted left into units
    lower, upper, e = zeta._power_sum(two, 100)
    assert zeta._exact_root(100) is None and e == 99
    assert lower <= 2 ** (FIX_BITS - 1) <= upper <= lower + 3
    # the unit follows the smallest k, whatever its place in the array
    ks = np.arange(2, 3000, dtype=np.int64)
    assert zeta._power_sum(ks[::-1].copy(), 2.5) == zeta._power_sum(ks, 2.5)
    for s in (2, 2.5, 2.3):
        whole = zeta._power_sum(ks, s)
        monkeypatch.setattr(zeta, "FIX_CHUNK", 100)
        assert zeta._power_sum(ks, s) == whole
        monkeypatch.undo()
    # exponents past the exact route's power limit take the mpf route
    assert zeta._exact_root(65) is None and zeta._exact_root(64) == (64, 0)


@pytest.mark.parametrize("s,M,cutoff", [(10, 99_000, 100_000), (100, 3, 200),
                                        (64, 150, 400)])
def test_tiny_tails_keep_forty_digits(sieve_small, s, M, cutoff):
    # the unit scales with the first term, so tails far below 2^-160 keep
    # their digits; the [value, upper] bracket still holds the exact sum
    exact = oracle_tail_fraction(1, "at-most", s, M, cutoff)
    res = pzeta_tail(1, "at-most", s, M, cutoff, sieve_small)
    rows = asymptotic_table(1, s, [M, (M + cutoff) / 2], cutoff, sieve_small)
    for value, bound in [(res.value, res.remainder_bound),
                         (rows[0].value, rows[0].remainder_bound)]:
        assert exact_value(value) <= exact <= exact_value(value) + exact_value(bound)
        assert exact - exact_value(value) <= exact * Fraction(1, 10**38)


@pytest.mark.parametrize("ell,mode", [(1, "exactly"), (2, "at-most"), (3, "exactly")])
def test_value_and_upper_bracket_exact_sum(sieve_small, ell, mode):
    # compared as exact rationals, not within a tolerance
    res = pzeta_tail(ell, mode, 3, 10, 500, sieve_small)
    exact = oracle_tail_fraction(ell, mode, 3, 10, 500)
    assert exact_value(res.value) <= exact < exact_value(res.upper)


@pytest.mark.parametrize("s", [2, 2.5, 2.3])
def test_upper_is_rounded_up(sieve_small, s):
    results = [pzeta_tail(1, "at-most", s, 10, 100_000, sieve_small),
               pzeta_tail(2, "exactly", s, 3, 5_000, sieve_small)]
    for res in results:
        assert exact_value(res.upper) >= (exact_value(res.value)
                                          + exact_value(res.remainder_bound))


# -- moebius function -------------------------------------------------------

def test_mobius_small_table():
    want = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
    assert [mobius(k) for k in range(1, 21)] == want
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_kills_squares():
    for k in range(2, 40):
        assert mobius(k * k) == 0
        assert mobius(4 * k) == 0


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_mobius_multiplicative(m, n):
    assume(math.gcd(m, n) == 1)
    assert mobius(m * n) == mobius(m) * mobius(n)


# -- zeta and the prime sum -------------------------------------------------

@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 4.0, 7.25, 12.0])
def test_zeta_em_matches_reference(s):
    with mp.workdps(50):
        assert abs(zeta_em(s) - mp.zeta(mpf(s))) < mpf("1e-38")


def test_zeta_em_divergent():
    with pytest.raises(DivergentSeriesError):
        zeta_em(1.0)
    with pytest.raises(DivergentSeriesError):
        zeta_em(0.3)


def test_prime_sum_pinned_values():
    assert close(pzeta_via_mobius(2), mpf("0.4522474200"), mpf("5e-11"))
    assert close(pzeta_via_mobius(4), mpf("0.0769931398"), mpf("5e-11"))


def test_prime_sum_matches_primezeta():
    # the Moebius depth grows like 1/s and k s is not rounded to a double,
    # so near s = 1 the sum keeps every digit of its working precision
    for s in (1.01, 1.05, 1.1, 1.5, 2, 2.3, 4):
        got = pzeta_via_mobius(s)
        with mp.workdps(70):
            want = mp.primezeta(mpf(s))
            assert abs(got - want) < mpf("1e-40") * want
    with pytest.raises(DivergentSeriesError):
        pzeta_via_mobius(1.0)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_prime_sum_brackets_direct_enumeration(sieve_mid, s):
    res = pzeta_tail(1, "exactly", s, 2, 1_000_000, sieve_mid)
    full = pzeta_via_mobius(s)
    assert res.value < full <= res.upper


# -- asymptotic ratio table ---------------------------------------------------

def test_table_rows_match_direct_tails(sieve_small):
    grid = [10.0, 1000.0, 31.5, 100.0]  # deliberately unsorted
    rows = asymptotic_table(2, 2, grid, 10_000, sieve_small)
    assert [row.M for row in rows] == grid
    for row in rows:
        direct = pzeta_tail(2, "at-most", 2, row.M, 10_000, sieve_small)
        assert close(row.value, direct.value, mpf("1e-30"))
        assert row.remainder_bound == direct.remainder_bound


@pytest.mark.parametrize("s", [2, 2.5, 2.3])
def test_table_rows_agree_with_direct_tails(sieve_small, s):
    # rows share the unit of the largest threshold: that row equals its
    # direct tail exactly, the others agree to about 40 digits and print
    # the same 20, and each bracket holds the other's value
    grid = [1000.0, 10.0, 100.0]
    for row in asymptotic_table(2, s, grid, 5_000, sieve_small):
        direct = pzeta_tail(2, "at-most", s, row.M, 5_000, sieve_small)
        if row.M == max(grid):
            assert row.value == direct.value
            assert row.remainder_bound == direct.remainder_bound
        assert abs(exact_value(row.value) - exact_value(direct.value)) <= (
            exact_value(direct.value) * Fraction(1, 10**38))
        assert mp.nstr(row.value, 20) == mp.nstr(direct.value, 20)
        assert row.value <= direct.upper
        assert exact_value(direct.value) <= (exact_value(row.value)
                                             + exact_value(row.remainder_bound))


def whole_array_tails(ell, mode, s, thresholds, cutoff):
    """The tails summed from one array of every term: one `_power_sum` per
    band between thresholds, combined from the largest threshold down in
    the finest unit so far.  The terms come from factor counting."""
    member = (lambda w: w == ell) if mode == "exactly" else (lambda w: 1 <= w <= ell)
    ks = np.array([k for k in range(2, cutoff + 1) if member(oracle_omega(k))], dtype=np.int64)
    starts = [int(np.searchsorted(ks, math.ceil(M))) for M in thresholds]
    lower = upper = e = 0
    stop = ks.size
    tails = [None] * len(thresholds)
    for i in sorted(range(len(thresholds)), key=lambda i: thresholds[i], reverse=True):
        band_lower, band_upper, band_e = zeta._power_sum(ks[starts[i]:stop], s)
        stop = starts[i]
        unit = max(e, band_e)
        lower = (lower << (unit - e)) + (band_lower << (unit - band_e))
        upper = (upper << (unit - e)) + (band_upper << (unit - band_e))
        e = unit
        tails[i] = (*zeta._tail_values(lower, upper, e, s, cutoff), ks.size - starts[i])
    return tails


def near_edges(segment: int):
    """Integers >= 2 on and next to the multiples of segment up to 30 of them."""
    return st.integers(1, 30).flatmap(
        lambda m: st.integers(max(m * segment - 1, 2), m * segment + 1))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(segment=st.integers(1, 9), ell=st.integers(1, 3),
       mode=st.sampled_from(["exactly", "at-most"]), s=st.sampled_from([2, 3, 2.5, 2.3]),
       data=st.data())
def test_streamed_tails_match_whole_array_sums(sieve_small, segment, ell, mode, s, data):
    # segments of 1 to 9 integers, thresholds and cutoffs on and next to
    # their edges, some thresholds repeated or between integers: the tails
    # summed band by band as each segment arrives are the same integers as
    # one `_power_sum` per band of the whole array
    points = data.draw(st.lists(near_edges(segment), min_size=2, max_size=5))
    cutoff = max(points)
    thresholds = [M - data.draw(st.sampled_from([0, 0.5])) for M in points[1:]]
    assume(min(thresholds) >= 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primes, "ENUM_SEGMENT", segment)
        got = zeta._tails(ell, mode, s, thresholds, cutoff, sieve_small)
    assert got == whole_array_tails(ell, mode, s, thresholds, cutoff)


def test_table_ratio_definition(sieve_mid):
    rows = asymptotic_table(1, 2, [100.0, 10_000.0], 1_000_000, sieve_mid,
                            mode="exactly")
    with mp.workdps(40):
        for row in rows:
            mM = mpf(row.M)
            want = row.value * mM ** (mpf(2) - 1) * mp.log(mM)
            assert close(row.ratio, want, mpf("1e-30"))


def test_table_values_grow_as_threshold_falls(sieve_small):
    rows = asymptotic_table(2, 2, [10.0, 100.0, 1000.0], 10_000, sieve_small)
    assert rows[0].value > rows[1].value > rows[2].value > 0


def test_table_validation(sieve_small):
    with pytest.raises(ValueError):
        asymptotic_table(1, 2, [], 100, sieve_small)
    with pytest.raises(ValueError):
        asymptotic_table(1, 2, [2.9, 10.0], 100, sieve_small)
    with pytest.raises(ValueError):
        asymptotic_table(1, 2, [10.0, 200.0], 100, sieve_small)
    with pytest.raises(DivergentSeriesError):
        asymptotic_table(1, 1.0, [10.0], 100, sieve_small)
    rows = asymptotic_table(1, 2, [50.0], 100, sieve_small)
    assert len(rows) == 1
