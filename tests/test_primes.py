import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecf import primes
from primecf.errors import OutOfRangeError
from primecf.primes import (
    PrimeSieve,
    almost_primes,
    is_prime_trial,
    omega_table,
    primes_in,
)


# -- independent oracles ----------------------------------------------------

def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def enumerate_all(ell: int, mode: str, bound: int, sv: PrimeSieve) -> np.ndarray:
    """The segments of almost_primes, joined."""
    return np.concatenate(list(almost_primes(ell, mode, bound, sv)))


# -- sieve table ------------------------------------------------------------

def test_sieve_matches_trial_division_exhaustive(sieve_small):
    # exhaustive over the whole table for a 1e5 sieve
    expect = np.fromiter((oracle_is_prime(k) for k in range(2001)), dtype=bool)
    assert np.array_equal(sieve_small.table[:2001], expect)
    for k in range(2001, 100_001, 997):
        assert bool(sieve_small.table[k]) == oracle_is_prime(k)


def test_sieve_segment_boundaries():
    # straddle the internal segment size with a limit slightly past it
    sv = PrimeSieve((1 << 22) + 100)
    for k in range((1 << 22) - 50, (1 << 22) + 101):
        assert bool(sv.table[k]) == oracle_is_prime(k)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        PrimeSieve(1)


def test_sieve_cap_checked_before_building(monkeypatch):
    monkeypatch.setattr(primes, "SIEVE_CAP", 1000)
    assert PrimeSieve(1000).limit == 1000

    def refuse(limit):
        raise AssertionError(f"table built for limit {limit}")

    monkeypatch.setattr(primes, "_build_table", refuse)
    with pytest.raises(OutOfRangeError):
        PrimeSieve(1001)


def test_omega_table_cap_checked_before_allocating(monkeypatch, sieve_small):
    assert primes.OMEGA_CAP == 10**8
    monkeypatch.setattr(primes, "OMEGA_CAP", 1000)
    assert omega_table(0, 1001, sieve_small).size == 1001
    assert enumerate_all(2, "at-most", 1000, sieve_small).size > 0

    def refuse(*args, **kwargs):
        raise AssertionError(f"array allocated: {args}")

    monkeypatch.setattr(primes.np, "zeros", refuse)
    with pytest.raises(OutOfRangeError, match="bound 1001 exceeds OMEGA_CAP = 1000"):
        omega_table(0, 1002, sieve_small)
    with pytest.raises(OutOfRangeError, match="bound 1001 exceeds OMEGA_CAP = 1000"):
        almost_primes(2, "at-most", 1001, sieve_small)


def test_prime_count_known_values(sieve_small):
    for x, count in ((10, 4), (100, 25), (1000, 168), (10_000, 1229), (100_000, 9592)):
        assert primes_in(2, x, sieve_small).size == count


# -- interval queries -------------------------------------------------------

def test_primes_in_examples(sieve_small):
    assert list(primes_in(8, 16, sieve_small)) == [11, 13]
    assert list(primes_in(4, 4, sieve_small)) == []
    assert list(primes_in(5, 11, sieve_small)) == [5, 7, 11]  # inclusive ends
    assert list(primes_in(4.2, 11.9, sieve_small)) == [5, 7, 11]
    assert list(primes_in(12, 8, sieve_small)) == []
    with pytest.raises(OutOfRangeError):
        primes_in(2, 100_001, sieve_small)


def test_primes_in_reads_the_integer_end():
    # a window fits when floor(hi) does: [1, 3.46] holds 2 and 3 of a table to 3
    sv = PrimeSieve(3)
    assert list(primes_in(1, 3.46, sv)) == [2, 3]
    for hi in (4.0, math.inf):
        with pytest.raises(OutOfRangeError):
            primes_in(1, hi, sv)


def test_primes_in_window_count_constant(sieve_mid):
    # window [gamma^n, 2 gamma^n] holds about gamma^n/(n log gamma) primes
    gamma, n = 1.5, 30
    lo = gamma ** n
    count = primes_in(lo, 2 * lo, sieve_mid).size
    c = lo / (count * n * math.log(gamma))
    assert 0.5 < c < 2


def test_rosser_bracket_exhaustive(sieve_small):
    # x/(log x + 2) < pi(x) < x/(log x - 4) for every integer x in [55, 1e5]
    cum = np.cumsum(sieve_small.table)
    xs = np.arange(55, 100_001)
    pi = cum[xs]
    logs = np.log(xs)
    assert np.all(xs / (logs + 2) < pi)
    assert np.all(pi < xs / (logs - 4))


def test_short_interval_standin(sieve_mid):
    # the 0.999-window [0.999x, x) always holds a prime once x is large
    # enough; exhaustively the first x after which it never fails (within
    # this sieve) is 48731, far below the e^20 threshold of the true bound
    cum = np.cumsum(sieve_mid.table)
    xs = np.arange(10_000, 1_000_001, dtype=np.int64)
    los = np.ceil(0.999 * xs).astype(np.int64)
    empty = cum[xs - 1] - cum[los - 1] == 0
    failing = xs[empty]
    assert failing.size > 0 and failing.max() == 48_731


# -- trial primality beyond the table ---------------------------------------

def test_is_prime_trial_matches_oracle(sieve_small):
    # values straddling the table edge at 1e5, up to near limit^2
    for n in [0, 1, 2, 3, 4, 99_991, 100_001, 100_003, 6_700_417,
              999_999_937, 9_999_999_967]:
        assert is_prime_trial(n, sieve_small) == oracle_is_prime(n), n


def test_is_prime_trial_range_certificate(sieve_small):
    # certification stops once sqrt(n) passes the table
    with pytest.raises(OutOfRangeError):
        is_prime_trial(100_001 ** 2, sieve_small)
    sv = PrimeSieve(100)
    # trial division reads primes to the root, so the range ends below 101^2
    for n in range(100 * 100 + 1, 101 * 101):
        assert is_prime_trial(n, sv) == oracle_is_prime(n), n
    with pytest.raises(OutOfRangeError, match="primes_in upper end 101 exceeds sieve limit 100"):
        is_prime_trial(101 * 101, sv)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10_000_000))
def test_is_prime_trial_random(sieve_small, n):
    assert is_prime_trial(n, sieve_small) == oracle_is_prime(n)


# -- almost primes ----------------------------------------------------------

def test_omega_table_matches_oracle(sieve_small):
    om = omega_table(0, 5001, sieve_small)
    for k in range(2, 5001):
        assert om[k] == oracle_omega(k), k
    assert om[0] == 0 and om[1] == 0


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(0, 20_000), width=st.integers(1, 300))
def test_omega_table_of_any_segment(sieve_small, lo, width):
    # a segment reads the primes to the root of its own last integer
    om = omega_table(lo, lo + width, sieve_small)
    assert om.tolist() == [oracle_omega(k) if k >= 2 else 0 for k in range(lo, lo + width)]


def test_omega_table_needs_root_in_sieve():
    sv = PrimeSieve(10)
    with pytest.raises(OutOfRangeError):
        omega_table(0, 1001, sv)


def test_omega_table_and_almost_primes_hold_no_int64_copy(cli_peak_rss_mb):
    # to 10^7, enumerated one segment at a time, the run grows about 3 MB
    # over the small run; a whole Omega table of 5 bytes per integer (int32
    # remainders) and 2.1 million 3-almost primes in one array took 67 MB,
    # int64 remainders and a second copy 105 MB
    argv = ("pzeta-tail", "--ell", "3", "--s", "2", "--M", "100", "--cutoff")
    grown = cli_peak_rss_mb(*argv, "10000000") - cli_peak_rss_mb(*argv, "1000")
    assert grown < 8


def test_almost_primes_examples(sieve_small):
    got = enumerate_all(2, "exactly", 25, sieve_small)
    assert list(got) == [4, 6, 9, 10, 14, 15, 21, 22, 25]
    got = enumerate_all(1, "exactly", 10, sieve_small)
    assert list(got) == [2, 3, 5, 7]
    got = enumerate_all(2, "at-most", 10, sieve_small)
    assert list(got) == [2, 3, 4, 5, 6, 7, 9, 10]  # 8 = 2^3 out, 1 out


@pytest.mark.parametrize("ell,mode", [(1, "exactly"), (1, "at-most"),
                                      (2, "exactly"), (2, "at-most"),
                                      (3, "exactly"), (3, "at-most")])
def test_almost_primes_against_factorization(monkeypatch, sieve_small, ell, mode):
    # one ascending int64 array per segment [lo, lo + segment) of [0, 3000]
    for segment in (7, 1000, primes.ENUM_SEGMENT):
        monkeypatch.setattr(primes, "ENUM_SEGMENT", segment)
        segments = list(almost_primes(ell, mode, 3000, sieve_small))
        assert len(segments) == -(-3001 // segment)
        for lo, ks in zip(range(0, 3001, segment), segments):
            assert ks.dtype == np.int64
            assert np.all(np.diff(ks) > 0) and np.all((lo <= ks) & (ks < lo + segment))
        got = set(int(k) for k in np.concatenate(segments))
        for k in range(1, 3001):
            om = oracle_omega(k)
            member = om == ell if mode == "exactly" else 1 <= om <= ell
            assert (k in got) == member, (segment, k)


def test_almost_primes_modes_coincide_for_primes(sieve_small):
    a = enumerate_all(1, "exactly", 500, sieve_small)
    b = enumerate_all(1, "at-most", 500, sieve_small)
    assert np.array_equal(a, b)


def test_almost_primes_certified_range():
    sv = PrimeSieve(100)
    # the Omega table reads primes to the root, so the range ends below 101^2
    with pytest.raises(OutOfRangeError):
        almost_primes(2, "at-most", 101 * 101, sv)
    got = [int(k) for k in enumerate_all(2, "at-most", 101 * 101 - 1, sv) if k > 100 * 100]
    assert got == [k for k in range(100 * 100 + 1, 101 * 101) if 1 <= oracle_omega(k) <= 2]
    with pytest.raises(OutOfRangeError):
        almost_primes(1, "at-most", 101, sv)


def test_enumeration_request_validation(sieve_small):
    with pytest.raises(ValueError, match="ell must be >= 1"):
        almost_primes(0, "exactly", 10, sieve_small)
    with pytest.raises(ValueError, match="mode must be"):
        almost_primes(1, "sometimes", 10, sieve_small)
    with pytest.raises(ValueError, match="mode must be"):
        almost_primes(2, "sometimes", 10, sieve_small)
