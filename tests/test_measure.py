import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primecf import cli, measure
from primecf.contfrac import fundamental_interval
from primecf.errors import OutOfRangeError
from primecf.measure import (
    MCExperiment,
    ZeroOneReport,
    _draws,
    _sample_digits,
    _words,
    borel_bernstein_table,
    level_set_measure,
    run_zero_one_experiment,
)
from primecf.primes import PrimeSieve, is_prime_trial, primes_in


# -- independent oracles ----------------------------------------------------

def oracle_level_one(threshold: float, cutoff: int, sv) -> tuple[Fraction, int]:
    total, count = Fraction(0), 0
    for p in primes_in(2, cutoff, sv):
        p = int(p)
        if p >= threshold:
            total += Fraction(1, p * (p + 1))
            count += 1
    return total, count


def oracle_level_two(threshold: float, cutoff: int, sv) -> tuple[Fraction, int]:
    # ordered prime digit pairs (x, y); |I(x, y)| = 1/((xy+1)(xy+1+x))
    ps = [int(p) for p in primes_in(2, cutoff, sv)]
    total, count = Fraction(0), 0
    for x in ps:
        for y in ps:
            if x * y >= threshold:
                q = x * y + 1
                total += Fraction(1, q * (q + x))
                count += 1
    return total, count


# -- exact level sets ---------------------------------------------------------

@pytest.mark.parametrize("threshold,cutoff", [(3, 50), (10, 200), (97.5, 1000)])
def test_single_digit_bracket_contains_exact_sum(sieve_small, threshold, cutoff):
    res = level_set_measure(1, threshold, cutoff, sieve_small)
    exact, count = oracle_level_one(threshold, cutoff, sieve_small)
    assert res.terms == count
    assert Fraction(res.exact_lower) <= exact <= Fraction(res.exact_upper)
    assert res.width < 2.0 / cutoff


@pytest.mark.parametrize("threshold,cutoff", [(4, 40), (6, 100), (50, 200)])
def test_double_digit_bracket_contains_exact_sum(sieve_small, threshold, cutoff):
    res = level_set_measure(2, threshold, cutoff, sieve_small)
    exact, count = oracle_level_two(threshold, cutoff, sieve_small)
    assert res.terms == count
    assert Fraction(res.exact_lower) <= exact <= Fraction(res.exact_upper)


# A threshold past every product below the cutoff leaves no terms, so the
# bracket is [0, tail]: 1/1001 rounded up twice for ell = 1, the pair tail
# 2 (psq cutoff + 1) / cutoff^2 for ell = 2.
@pytest.mark.parametrize("ell, threshold, upper", [(1, 1e6, 0.0009990009990009994),
                                                   (2, 1e7, 0.0009062408604986095)])
def test_empty_bracket_is_the_tail(sieve_small, ell, threshold, upper):
    res = level_set_measure(ell, threshold, 1000, sieve_small)
    assert (res.exact_lower, res.exact_upper, res.terms) == (0.0, upper, 0)


def test_double_digit_attained_threshold_boundary(sieve_small):
    # 9 = 3 * 3 sits exactly on the cut; nudging past it must drop the pair
    at = level_set_measure(2, 9, 60, sieve_small)
    past = level_set_measure(2, 9.0000001, 60, sieve_small)
    _, count_at = oracle_level_two(9, 60, sieve_small)
    _, count_past = oracle_level_two(9.0000001, 60, sieve_small)
    assert at.terms == count_at
    assert past.terms == count_past == count_at - 1
    assert at.exact_lower > past.exact_lower


def test_double_digit_boundary_with_large_factors(sieve_small):
    # threshold equal to a product of two five-digit primes; the float
    # quotient inside the factor scan sits within rounding of the cut
    t = 9973 * 9967
    res = level_set_measure(2, t, 10_000, sieve_small)
    ps = [int(p) for p in primes_in(2, 10_000, sieve_small)]
    count = sum(1 for x in ps for y in ps if x * y >= t)
    assert res.terms == count


def test_bracket_nesting_and_width(sieve_small):
    ref = level_set_measure(1, 3, 100_000, sieve_small)
    for cutoff in (50, 300, 2000):
        res = level_set_measure(1, 3, cutoff, sieve_small)
        assert res.exact_lower <= ref.exact_lower
        assert res.exact_upper >= ref.exact_upper
        assert res.width > ref.width
    ref2 = level_set_measure(2, 6, 10_000, sieve_small)
    for cutoff in (50, 500):
        res = level_set_measure(2, 6, cutoff, sieve_small)
        assert res.exact_lower <= ref2.exact_lower + 1e-15
        assert res.exact_upper >= ref2.exact_upper - 1e-15


# (threshold, cutoff, lower, upper, terms) pinned when each pair was summed
# one by one, then (lower, upper) as float.hex from the series.  The two
# routes round differently, so the series bracket must meet the per-pair
# one and be at most 1e-12 of the value wider.  At threshold 10^6 and
# cutoff 3000, 67 primes have no partner.
LEVEL_TWO_PINS = [
    (3, 2000, "0x1.ebc03fdefac69p-4", "0x1.ed9aedad78664p-4", 91809,
     "0x1.ebc03fdefafc9p-4", "0x1.ed9aedad78305p-4"),
    (1000, 2000, "0x1.c76f4cdf90976p-12", "0x1.d10e8dae622ebp-11", 91222,
     "0x1.c76f4cdf90c81p-12", "0x1.d10e8dae62165p-11"),
    (10**6, 3000, "0x1.aaedfd6c6d94ep-26", "0x1.3c6084c09d92ep-12", 103006,
     "0x1.aaedfd6c6dbaep-26", "0x1.3c6084c09d92dp-12"),
    (50, 100_000, "0x1.5c8575f11ed99p-7", "0x1.5cd1563738c0ap-7", 92006434,
     "0x1.5c8575f11eff8p-7", "0x1.5cd15637389acp-7"),
]


@pytest.mark.parametrize("threshold, cutoff, pair_lower, pair_upper, terms, lower, upper",
                         LEVEL_TWO_PINS, ids=["-".join(map(str, pin[:5])) for pin in LEVEL_TWO_PINS])
def test_double_digit_bracket_bits_pinned(sieve_small, threshold, cutoff, pair_lower,
                                          pair_upper, terms, lower, upper):
    res = level_set_measure(2, threshold, cutoff, sieve_small)
    assert (res.exact_lower.hex(), res.exact_upper.hex(), res.terms) == (lower, upper, terms)
    pair_lower, pair_upper = float.fromhex(pair_lower), float.fromhex(pair_upper)
    assert max(res.exact_lower, pair_lower) <= min(res.exact_upper, pair_upper)
    assert res.width <= (pair_upper - pair_lower) + 1e-12 * res.exact_lower


def series_partial(a: int, b: int, terms: int) -> Fraction:
    """The first `terms` terms of sum_k (-1)^k b^-(k+2) g_k(a), with g_k from
    the recurrence `_pair_series` evaluates: g_0 = 1/(a(a+1)) and
    g_k = a^-k g_0 + g_{k-1}/(a+1)."""
    g0 = Fraction(1, a * (a + 1))
    total, g = Fraction(0), g0
    for k in range(terms):
        if k:
            g = g0 / a**k + g / (a + 1)
        assert g == Fraction(1, a ** (k + 1)) - Fraction(1, (a + 1) ** (k + 1))
        total += (-1) ** k * g / b ** (k + 2)
    return total


def test_pair_length_series_brackets_every_pair(sieve_small):
    # for even K the partial sums with K and K + 1 terms bracket the length
    # of each pair, and their gap is within the 2 (K + 1) (ab)^-K f(a, b)
    # that `_pair_series` picks K by
    ps = [int(p) for p in primes_in(2, 101, sieve_small)]
    for a in ps:
        for b in ps:
            f = Fraction(1, (a * b + 1) * (a * b + b + 1))
            for K in range(0, 9, 2):
                lo, hi = series_partial(a, b, K), series_partial(a, b, K + 1)
                assert lo <= f <= hi, (a, b, K)
                assert hi - lo <= 2 * (K + 1) * f / Fraction(a * b) ** K


_PRIMES = primes_in(2, 1000, PrimeSieve(1000)).tolist()
_PRODUCTS = sorted({p * q for p in _PRIMES for q in _PRIMES if p * q <= 2000})
_NEAR_PRODUCTS = st.sampled_from(_PRODUCTS).flatmap(
    lambda m: st.sampled_from((float(m), math.nextafter(m, 0), math.nextafter(m, math.inf))))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(threshold=st.floats(2, 2000) | _NEAR_PRODUCTS, cutoff=st.integers(2, 300))
def test_double_digit_bracket_contains_exact_sum_anywhere(sieve_small, threshold, cutoff):
    res = level_set_measure(2, threshold, cutoff, sieve_small)
    exact, count = oracle_level_two(threshold, cutoff, sieve_small)
    assert res.terms == count
    assert Fraction(res.exact_lower) <= exact <= Fraction(res.exact_upper)
    # the series alone, against the exact sum of the pairs it covers, with
    # no tail to hide an upper end that is too low
    t = max(math.ceil(threshold), measure.SERIES_FLOOR)
    lows, highs = measure._pair_series(primes_in(2, cutoff, sieve_small), t)
    series, _ = oracle_level_two(t, cutoff, sieve_small)
    assert sum(map(Fraction, lows)) <= series <= sum(map(Fraction, highs))
    assert sum(highs) - sum(lows) <= 1e-12 * series


def test_level_set_validation(sieve_small):
    with pytest.raises(ValueError):
        level_set_measure(3, 10, 100, sieve_small)
    with pytest.raises(OutOfRangeError):
        level_set_measure(1, 1.9, 100, sieve_small)
    for threshold in (math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            level_set_measure(2, threshold, 100, sieve_small)
    with pytest.raises(OutOfRangeError):
        level_set_measure(1, 10, 1_000_000, sieve_small)
    with pytest.raises(OutOfRangeError):
        level_set_measure(1, 10, 1, sieve_small)


def test_reciprocals_bracket_inexact_denominators():
    # x = p(p + 1) for the primes in [2e8, 2e8 + 2e5] lies past 2^53, where
    # float(x) may round before 1/float(x) does, as do the x next to 2^53,
    # 2^54 and 2^62; the primes are those no prime up to 15,000 divides
    lo, hi = 200_000_000, 200_200_000
    composite = np.zeros(hi - lo + 1, dtype=bool)
    for p in primes_in(2, 15_000, PrimeSieve(15_000)).tolist():
        composite[-lo % p::p] = True
    ps = np.flatnonzero(~composite) + lo
    x = np.concatenate([ps * (ps + 1),
                        np.array([2**53 - 1, 2**53 + 1, 2**54 - 2, 2**54 + 2, 2**62 - 1])])
    assert ps.size == 10_581 and x.max() == 2**62 - 1
    below = list(measure._reciprocals(x, -np.inf))
    above = list(measure._reciprocals(x, np.inf))
    for k, b, a in zip(x.tolist(), below, above):
        assert Fraction(b) <= Fraction(1, k) <= Fraction(a), k


def test_single_digit_terms_are_streamed_to_fsum(cli_peak_rss_mb):
    # 664,578 primes from 3 to 10^7: as two whole lists of Python floats the
    # terms took about 75 MB over the small run, and streamed in chunks from
    # one array of every prime 24 MB; read one segment of primes at a time,
    # the run grows by about the 10 MB sieve table alone
    argv = ("interval-measure", "--ell", "1", "--threshold", "3", "--cutoff")
    grown = cli_peak_rss_mb(*argv, "10000000") - cli_peak_rss_mb(*argv, "1000")
    assert grown < 15


# -- sampling experiments -------------------------------------------------------

def stream(seed: int, i: int, depth: int):
    """Sample i's draw function, as the experiment hands it to `_sample_digits`
    (through the module, so a patched word function is used)."""
    return _draws(seed, i, measure._words(seed, i, np.arange(depth), 0))


def test_sampled_digit_pairs_follow_the_gauss_law():
    # a uniform x starts with (a, b) with probability |I(a, b)|; 5 sigma
    # at 40,000 samples, for every pair in {1..4}^2, sample i drawn from
    # its own counters (20260815, i)
    n = 40_000
    pairs = Counter(tuple(_sample_digits(stream(20260815, i, 3), 3)[0][:2])
                    for i in range(n))
    for a in range(1, 5):
        for b in range(1, 5):
            p = float(fundamental_interval((a, b)).length)
            assert abs(pairs[a, b] / n - p) < 5 * math.sqrt(p * (1 - p) / n), (a, b)


UNDECIDED = 0x5555555555555555  # U / 2^64 < 1/3 < (U + 1) / 2^64


@pytest.mark.parametrize("second, digit", [(0, 3), (2**64 - 1, 2)])
def test_undecided_draw_takes_more_bits(second, digit):
    # a first word of UNDECIDED leaves the first digit, 1/u, on both sides
    # of 3, and the second word picks the side of 1/3
    asked = []

    def draw(n, w):
        asked.append((n, w))
        return (UNDECIDED, second)[w]

    assert _sample_digits(draw, 1) == ([digit], 128)
    assert asked == [(0, 0), (0, 1)]


def test_experiment_reproducible(sieve_small):
    cfg = MCExperiment(sample_count=60, window=(1, 4),
                       phi=lambda n: 10.0, ell=1, seed=7)
    a = run_zero_one_experiment(cfg, sieve_small)
    b = run_zero_one_experiment(cfg, sieve_small)
    assert a == b
    other = MCExperiment(sample_count=60, window=(1, 4),
                         phi=lambda n: 10.0, ell=1, seed=8)
    assert run_zero_one_experiment(other, sieve_small) != a


def test_experiment_frequency_matches_first_digit_law(sieve_small):
    # window (1,1): the hit event is exactly "first digit a prime >= 3",
    # whose probability is the level-set measure; 5 sigma at 2000 samples
    cfg = MCExperiment(sample_count=2000, window=(1, 1),
                       phi=lambda n: 3.0, ell=1, seed=20260815)
    rep = run_zero_one_experiment(cfg, sieve_small)
    meas = level_set_measure(1, 3, 100_000, sieve_small)
    p = (meas.exact_lower + meas.exact_upper) / 2
    assert abs(rep.hit_fraction - p) < 5 * math.sqrt(p * (1 - p) / 2000)
    assert rep.per_n == ((1, rep.hit_count),)
    assert rep.sample_count == 2000


def test_experiment_frequency_matches_pair_law(sieve_small):
    cfg = MCExperiment(sample_count=2000, window=(1, 1),
                       phi=lambda n: 6.0, ell=2, seed=20260815)
    rep = run_zero_one_experiment(cfg, sieve_small)
    meas = level_set_measure(2, 6, 10_000, sieve_small)
    p = (meas.exact_lower + meas.exact_upper) / 2
    assert abs(rep.hit_fraction - p) < 5 * math.sqrt(p * (1 - p) / 2000)


def test_experiment_counting_consistency(sieve_small):
    cfg = MCExperiment(sample_count=150, window=(2, 12),
                       phi=lambda n: float(n), ell=1, seed=3)
    rep = run_zero_one_experiment(cfg, sieve_small)
    assert 0 <= rep.hit_count <= rep.sample_count
    assert rep.hit_fraction == rep.hit_count / rep.sample_count
    assert [n for n, _ in rep.per_n] == list(range(2, 13))
    assert sum(c for _, c in rep.per_n) >= rep.hit_count
    assert all(0 <= c <= rep.sample_count for _, c in rep.per_n)
    assert rep.max_bits_used >= 64
    assert rep.refinements >= 0


def test_experiment_trivial_threshold_hits_everything(sieve_small):
    # a prime somewhere in the first 61 digits: misses have probability
    # around (3/4)^60, far below one in a million samples
    cfg = MCExperiment(sample_count=100, window=(1, 60),
                       phi=lambda n: 2.0, ell=1, seed=11)
    rep = run_zero_one_experiment(cfg, sieve_small)
    assert rep.hit_count == 100


def test_experiment_tests_products_before_primality():
    # primality is only certified up to (limit+1)^2 - 1 = 120 here: a digit above
    # that is never looked up while its block's product stays below phi(n)
    sv = PrimeSieve(10)

    def run(threshold):
        cfg = MCExperiment(sample_count=20, window=(1, 200),
                           phi=lambda n: threshold, ell=1, seed=5)
        return run_zero_one_experiment(cfg, sv)

    assert run(1e300).hit_count == 0
    with pytest.raises(OutOfRangeError):
        run(2.0)


@pytest.mark.parametrize("seed", range(1, 6))
def test_experiment_refuses_the_scalar_loops_first_digit(seed):
    # several samples of one block reach a digit past (limit+1)^2 - 1 = 120,
    # at different rows (at seed 1, sample 1 at digit 38 before sample 0 at
    # digit 106): the refusal names the digit the scalar loop over (sample, n)
    # reaches first
    sv = PrimeSieve(10)
    cfg = MCExperiment(sample_count=20, window=(1, 200), phi=lambda n: 2.0, ell=1, seed=seed)
    with pytest.raises(OutOfRangeError) as want:
        oracle_report(cfg, sv)
    with pytest.raises(OutOfRangeError) as got:
        run_zero_one_experiment(cfg, sv)
    assert str(got.value) == str(want.value)


# -- the block sampler against the scalar one ----------------------------------

def oracle_report(cfg: MCExperiment, sv) -> ZeroOneReport:
    """run_zero_one_experiment as one scalar loop over `_sample_digits`."""
    n1, n2 = cfg.window
    thresholds = [float(cfg.phi(n)) for n in range(n1, n2 + 1)]
    hits = [0] * len(thresholds)
    hit_count, widths = 0, []
    for i in range(cfg.sample_count):
        digits, width = _sample_digits(stream(cfg.seed, i, n2 + cfg.ell), n2 + cfg.ell)
        widths.append(width)
        hit_any = False
        for j, threshold in enumerate(thresholds):
            block = digits[n1 - 1 + j:n1 - 1 + j + cfg.ell]
            if math.prod(block) >= threshold and all(is_prime_trial(d, sv) for d in block):
                hits[j] += 1
                hit_any = True
        hit_count += hit_any
    return ZeroOneReport(
        hit_fraction=hit_count / cfg.sample_count, hit_count=hit_count,
        sample_count=cfg.sample_count, per_n=tuple(zip(range(n1, n2 + 1), hits)),
        refinements=sum(w > 64 for w in widths), max_bits_used=max(widths))


def float_rows(seed: int, indices: range, depth: int,
               group: int = measure.ROW_GROUP) -> tuple[np.ndarray, np.ndarray]:
    """The (samples, rows walked) digits `_float_digits` takes for the
    samples `indices`, and how many leading digits of each it certifies."""
    walk = list(measure._float_digits(seed, indices, depth, group))
    return np.concatenate([rows for _, rows, _ in walk]).T, walk[-1][2]


def block_rows(seed: int, count: int, depth: int,
               group: int = measure.ROW_GROUP) -> list[tuple[list[int], int]]:
    """(digits, widest draw) of samples 0..count-1 as the experiment reads
    them: the digits the float pass certifies, the rest and the widest
    draw of a sample with an uncertified digit from `_sample_digits`, and
    one word for each certified digit."""
    digits, certified = float_rows(seed, range(count), depth, group)
    rows = []
    for k, c in enumerate(certified.tolist()):
        row, width = [int(d) for d in digits[k, :c]], 64
        if c < depth:
            exact, width = _sample_digits(stream(seed, k, depth), depth)
            row += exact[c:]
        rows.append((row, width))
    return rows


def scalar_rows(seed: int, count: int, depth: int) -> list[tuple[list[int], int]]:
    return [_sample_digits(stream(seed, i, depth), depth) for i in range(count)]


def resampled(seed: int, count: int, depth: int) -> int:
    """How many of samples 0..count-1 the experiment hands to `_sample_digits`."""
    return int((float_rows(seed, range(count), depth)[1] < depth).sum())


@pytest.mark.parametrize("n2", [16, 32, 48, 64, 96, 256])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_block_sampler_equals_sample_digits(n2, ell, monkeypatch):
    # every digit and every widest draw, sample by sample, to the depth a
    # window ending at n2 draws, at the real margin and at wider ones: a
    # wider margin certifies shorter prefixes, and at 1.0 none, so every
    # sample resumes in _sample_digits from its first digit
    depth, count = n2 + ell, 20
    for seed in (1, 7, 20261019):
        want = scalar_rows(seed, count, depth)
        for margin in (measure.MARGIN, 2.0**-20, 2.0**-14, 1.0):
            monkeypatch.setattr(measure, "MARGIN", margin)
            for group in (1, 5, measure.ROW_GROUP):
                assert block_rows(seed, count, depth, group) == want, (margin, group)
        assert resampled(seed, count, depth) == count


def test_block_sampler_deep_window(monkeypatch):
    # 2001 digits; a margin widened to 2^-20 stops every sample's certified
    # prefix partway, and the exact sampler finishes each from there
    monkeypatch.setattr(measure, "MARGIN", 2.0**-20)
    count, depth = 16, 2001
    certified = float_rows(1, range(count), depth)[1]
    assert ((0 < certified) & (certified < depth)).all()
    assert block_rows(1, count, depth) == scalar_rows(1, count, depth)


def test_block_sampler_certifies_wide_draws():
    # at the real margin no digit of these samples needs the scalar sampler
    digits, certified = float_rows(3, range(200), 201)
    assert (certified == 201).all()
    assert digits.shape == (200, 201)


def test_block_sampler_margin_near_digit_boundaries(monkeypatch):
    # a first digit a, then a draw U within a few units of a boundary of the
    # second digit: U + 1 = (1 + 1/a) 2^64 / (k + 1/a) puts x at k exactly.
    # With no margin the float pass takes a wrong digit in many of these;
    # with it, each is certified right or resampled
    scripts = []
    for a in (1, 2, 3):
        first = int(2**64 / (a + 0.5))
        for k in range(40, 60):
            edge = -(-(a + 1) * 2**64 // (a * k + 1)) - 1
            scripts += [[first, edge + off] for off in range(-3, 4)]
    heads = np.array(scripts, dtype=np.uint64)

    def scripted(i, n, w):
        # word 0 of digit n is scripted; every later word is 2^63
        i, n, w = (np.asarray(x).astype(np.int64) for x in (i, n, w))
        return np.where(w == 0, heads[i, n], np.uint64(2**63))

    # the sample's key is its index, which the scripted words read
    monkeypatch.setattr(measure, "_sample_key", lambda seed, i: np.asarray(i))
    monkeypatch.setattr(measure, "_digit_words", scripted)
    want = [_sample_digits(stream(0, i, 2), 2)[0] for i in range(len(scripts))]
    assert [row for row, _ in block_rows(0, len(scripts), 2)] == want
    monkeypatch.setattr(measure, "MARGIN", 0.0)
    assert [row for row, _ in block_rows(0, len(scripts), 2)] != want


GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z: int) -> int:
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def word(seed: int, i: int, n: int, w: int) -> int:
    """W(seed, i, n, w) in plain Python ints."""
    z = seed
    for x in (1, i, n, w):
        z = splitmix64_finalizer((z + x * GAMMA) % 2**64)
    return z


def test_word_function_known_answers():
    # the first stage is SplitMix64's first output: seeded with 0 its
    # outputs are e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f
    assert [splitmix64_finalizer(k * GAMMA % 2**64) for k in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    cap = measure.DRAW_CAP
    cases = [(0, 0, 0, 0), (0, 1, 2, 3), (2**63, 5, 7, 1), (2**64 - 1, 0, 0, 0),
             (2**64 - 1, cap - 1, cap, 3), (2**63, cap, cap - 1, 16), (20261019, 2**40, 1, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning, no float promotion
        for seed, i, n, w in cases:
            scalar = _words(seed, i, n, w)
            array = _words(seed, np.array([i, i]), np.array([[n], [n]]), np.array([w]))
            assert array.dtype == np.uint64 and array.shape == (2, 2)
            assert {int(scalar), *array.ravel().tolist()} == {word(seed, i, n, w)}
    # the definition itself, pinned
    assert [word(*case) for case in cases[:5]] == [
        0x1957A7604E215178, 0xB9241DAE6834A7C4, 0xA7420DE6F7128628,
        0x92A152CB66AF0C17, 0x36C798379CB8DD74]


@pytest.mark.parametrize("seed", [16, 32, 48, 64, 96, 256])
def test_draws_are_read_as_the_stream_gives_them(seed):
    # draw(n, w) of sample i is word w of digit n's bit string, W(seed, i, n, w)
    for i in range(3, 6):
        draw = stream(seed, i, 7)
        for n in range(7):
            assert [draw(n, w) for w in range(12)] == [word(seed, i, n, w) for w in range(12)]


def test_experiment_refines_an_undecided_word(monkeypatch, capsys):
    # word 0 of sample 3's first digit scripted to UNDECIDED: that digit
    # takes a second word, in the experiment and in the CLI summary alike
    sv = PrimeSieve(1000)
    cfg = MCExperiment(sample_count=8, window=(1, 5), phi=lambda n: 2.0, ell=1, seed=4)
    argv = ["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,5", "--samples", "8",
            "--seed", "4", "--sieve", "1000"]
    plain = run_zero_one_experiment(cfg, sv)
    assert (plain.refinements, plain.max_bits_used) == (0, 64)
    key, digit_words = measure._sample_key, measure._digit_words

    def scripted(i, n, w):
        undecided = (np.asarray(i) == 3) & (np.asarray(n) == 0) & (np.asarray(w) == 0)
        return np.where(undecided, np.uint64(UNDECIDED), digit_words(key(4, i), n, w))

    # the sample's key is its index, which the scripted words read
    monkeypatch.setattr(measure, "_sample_key", lambda seed, i: np.asarray(i))
    monkeypatch.setattr(measure, "_digit_words", scripted)
    rep = run_zero_one_experiment(cfg, sv)
    assert rep == oracle_report(cfg, sv)
    assert (rep.refinements, rep.max_bits_used) == (1, 128)
    assert cli.main(argv) == 0
    summary = capsys.readouterr().out.splitlines()[1]
    assert summary.endswith(" refinements=1 max_bits_used=128")


def sample_products(seed: int, ell: int, count: int) -> list[int]:
    """The exact products of sample 0's first `count` blocks of ell digits."""
    depth = count + ell - 1
    digits = _sample_digits(stream(seed, 0, depth), depth)[0]
    return [math.prod(digits[k:k + ell]) for k in range(count)]


ORACLE_CASES = [
    # (samples, window, ell, seed, phi, sieve limit)
    (150, (1, 30), 2, 1, lambda n: 6.0, 10**6),  # 2 * 3 attains it
    (150, (1, 30), 2, 1, lambda n: 6.0 * (1 + 2.0**-40), 10**6),  # within the float band
    (100, (2, 40), 1, 2, lambda n: float(n), 10**6),
    (100, (2, 40), 3, 2, lambda n: float(n), 10**6),
    (80, (1, 25), 4, 3, lambda n: float(n * n), 10**6),
    (60, (1, 20), 1, 4, lambda n: math.inf, 10**6),
    (60, (1, 20), 2, 4, lambda n: math.nan, 10**6),
    (60, (1, 20), 2, 4, lambda n: -1.0, 10**6),
    (60, (1, 40), 1, 5, lambda n: 2.0, 1000),  # digits past 1000 by trial division
    (200, (10, 60), 2, 6, lambda n: n * math.log(n) ** 2, 10**6),
    (30, (1, 30), 1, 7, lambda n: 3.0, 10**6),
    # sample 0's own products, of 79 bits and more, rounded: its float
    # products fall on the wrong side of 11 of these thresholds
    (60, (1, 30), 64, 2, lambda n: float(sample_products(2, 64, 30)[n - 1]), 10**6),
]


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_experiment_equals_scalar_loop(case, monkeypatch):
    samples, window, ell, seed, phi, limit = ORACLE_CASES[case]
    sv = PrimeSieve(limit)
    cfg = MCExperiment(sample_count=samples, window=window,
                       phi=phi, ell=ell, seed=seed)
    want = oracle_report(cfg, sv)
    assert run_zero_one_experiment(cfg, sv) == want
    # blocks of 17 samples walked one row at a time (or ell rows), of one
    # sample, and then in full blocks a margin wide enough that many samples
    # are resampled after certified prefixes of many lengths, and no digit
    # certified by the float pass: every sample resampled from its first digit
    depth = window[1] + ell
    chunk, group = measure.CHUNK_DIGITS, measure.ROW_GROUP
    monkeypatch.setattr(measure, "ROW_GROUP", 1)
    monkeypatch.setattr(measure, "CHUNK_DIGITS", 17 * (2 * ell - 1))
    assert run_zero_one_experiment(cfg, sv) == want
    monkeypatch.setattr(measure, "ROW_GROUP", group)
    monkeypatch.setattr(measure, "CHUNK_DIGITS", 1)
    assert run_zero_one_experiment(cfg, sv) == want
    monkeypatch.setattr(measure, "CHUNK_DIGITS", chunk)
    monkeypatch.setattr(measure, "MARGIN", 2.0**-12)
    assert run_zero_one_experiment(cfg, sv) == want
    monkeypatch.setattr(measure, "MARGIN", 1.0)
    assert resampled(seed, samples, depth) == samples
    assert run_zero_one_experiment(cfg, sv) == want


def test_window_hits_decides_products_past_2_53_in_integers():
    # p q lies between two doubles above 2^53, and its float product rounds
    # up onto the threshold p q + 1: only the integer test sees it fall short.
    # The digits lie past the sieve, so p r passes on to trial division
    p, q, r = 94906297, 94906319, 94906373
    threshold = float(p * q + 1)
    assert p * q > 2**53 and float(p) * float(q) == threshold
    digits = np.array([[p, p], [q, r]], dtype=np.float64)  # one sample a column
    hit, trial = measure._window_hits(digits, np.array([threshold]), 2, PrimeSieve(10**4),
                                      np.ones((1, 2), dtype=bool),
                                      lambda j, s: map(int, digits[j:j + 2, s]))
    assert hit.tolist() == [[False, False]]
    assert trial.tolist() == [[False, True]]


def test_a_deep_sample_holds_a_few_digit_rows():
    # one sample of depth 20,001: each group of digit rows is dropped once the
    # windows ending in it are tested, so no array grows with the depth
    # (holding every row took about 32 bytes a digit, a 644 kB peak here)
    cfg = MCExperiment(sample_count=1, window=(19990, 20000), phi=lambda n: 1e300,
                       ell=1, seed=1)
    sv = PrimeSieve(1000)
    tracemalloc.start()
    try:
        rep = run_zero_one_experiment(cfg, sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.refinements == 0
    assert peak < 64 * 1024


def test_sampled_digits_follow_the_gauss_kuzmin_law_at_depth():
    # P(a_30 = k) is log2(1 + 1/(k (k + 2))) up to about 0.3^30 (Wirsing);
    # 5 sigma at 50,000 samples for k = 1..4
    n, depth = 50_000, 30
    counts = Counter()
    for start in range(0, n, 1000):
        digits, certified = float_rows(20261019, range(start, start + 1000), depth)
        assert (certified == depth).all()
        counts.update(digits[:, depth - 1].tolist())
    for k in range(1, 5):
        p = math.log2(1 + 1 / (k * (k + 2)))
        assert abs(counts[k] / n - p) < 5 * math.sqrt(p * (1 - p) / n), k


def test_experiment_validation():
    with pytest.raises(ValueError):
        MCExperiment(sample_count=0, window=(1, 2),
                     phi=lambda n: 2.0, ell=1, seed=1)
    with pytest.raises(ValueError):
        MCExperiment(sample_count=5, window=(3, 2),
                     phi=lambda n: 2.0, ell=1, seed=1)
    with pytest.raises(ValueError):
        MCExperiment(sample_count=5, window=(0, 2),
                     phi=lambda n: 2.0, ell=1, seed=1)
    with pytest.raises(ValueError):
        MCExperiment(sample_count=5, window=(1, 2),
                     phi=lambda n: 2.0, ell=0, seed=1)


# -- criterion series -------------------------------------------------------------

def test_series_labels():
    phi = lambda n: float(n * n)
    assert borel_bernstein_table(phi, 1, False, (2, 5)).series == "1 / phi"
    assert borel_bernstein_table(phi, 3, False, (2, 5)).series == "(log phi)^(ell-1) / phi"
    assert borel_bernstein_table(phi, 1, True, (2, 5)).series == "(log log phi)^(ell-1) / (phi log phi)"


def test_series_terms_match_formulas():
    phi = lambda n: float(n * n)
    window = (2, 40)
    with mp.workdps(30):
        for ell, prime_mode, formula in [
            (1, False, lambda v: 1 / v),
            (2, False, lambda v: mp.log(v) / v),
            (1, True, lambda v: 1 / (v * mp.log(v))),
            (3, True, lambda v: mp.log(mp.log(v)) ** 2 / (v * mp.log(v))),
        ]:
            rep = borel_bernstein_table(phi, ell, prime_mode, window)
            assert [r.n for r in rep.rows] == list(range(2, 41))
            for row in rep.rows:
                assert row.term == pytest.approx(float(formula(mpf(row.n) ** 2)), rel=1e-12)
            partial = 0.0
            for row in rep.rows:
                partial += row.term
                assert row.partial == pytest.approx(partial, rel=1e-12)


def test_series_direction_flip_for_borderline_handle():
    # phi(n) = n log^2 n: the plain series keeps accumulating per decade,
    # the prime-digit series settles
    phi = lambda n: n * math.log(n) ** 2
    plain = borel_bernstein_table(phi, 2, False, (10, 10_000)).rows
    prime = borel_bernstein_table(phi, 2, True, (10, 10_000)).rows
    def decade_gain(rows, lo, hi):
        by_n = {r.n: r.partial for r in rows}
        return by_n[hi] - by_n[lo]
    plain_ratio = decade_gain(plain, 1000, 10_000) / decade_gain(plain, 100, 1000)
    prime_ratio = decade_gain(prime, 1000, 10_000) / decade_gain(prime, 100, 1000)
    assert prime_ratio < 0.55 < plain_ratio


def test_series_skips_unusable_entries():
    phi = lambda n: 0.5 if n < 5 else float(n)
    prime = borel_bernstein_table(phi, 1, True, (2, 8))
    assert prime.skipped == (2, 3, 4)
    plain = borel_bernstein_table(phi, 1, False, (2, 8))
    assert plain.skipped == ()
    assert plain.rows[0].term == pytest.approx(2.0)
    neg = borel_bernstein_table(lambda n: -1.0, 1, False, (2, 4))
    assert neg.skipped == (2, 3, 4)
    assert neg.rows == ()


def test_series_survives_doubly_exponential_underflow():
    rep = borel_bernstein_table(lambda n: mp.exp(2 ** n), 1, False, (1, 80))
    terms = [r.term for r in rep.rows]
    assert all(math.isfinite(t) for t in terms)
    assert terms[-1] == 0.0
    assert rep.rows[-1].partial < 1.0


def test_series_validation():
    with pytest.raises(ValueError):
        borel_bernstein_table(lambda n: 2.0, 1, False, (5, 4))
    with pytest.raises(ValueError):
        borel_bernstein_table(lambda n: 2.0, 0, False, (1, 4))
