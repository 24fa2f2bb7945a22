"""Lebesgue measure of prime-digit level sets, and zero-one-law experiments
on digit strings drawn from their exact law.

The level set for a threshold t collects the x in [0,1) whose first ell
digits are primes multiplying to at least t; its measure is a sum of
exact fundamental-interval lengths over prime tuples.  Tuples with every
factor at most a cutoff are summed, and those with a factor beyond it are
covered by an integer-tail bound, so the reported pair [exact_lower,
exact_upper] is a rigorous bracket: every rounding is part of the bound.
Each exact term 1/x is bounded outward by `_reciprocals`.
For ell = 2 no pair is visited one by one past a b = SERIES_FLOOR: with
y = 1/b the length of the pair (a, b) is a series in y,

    f(a, b) = 1/((ab + 1)(ab + b + 1)) = y^2 (1/(a + y) - 1/(a + 1 + y))
            = sum_{k >= 0} (-1)^k b^-(k+2) g_k(a),   g_k(a) = a^-(k+1) - (a + 1)^-(k+1),

whose remainder after K terms, (-1)^K y^(K+2) (1/(a^K (a + y)) -
1/((a + 1)^K (a + 1 + y))), has the sign (-1)^K for every pair.  So the
level set's sum is bracketed by the partial sums of sum_k (-1)^k T_k with
K and K + 1 terms, K even, where T_k sums g_k(a) times a suffix power sum
of b^-(k+2) over the partners b of each a: K + 1 passes over the primes
instead of one term per pair (`_pair_series`).

The zero-one experiment draws each digit from its exact conditional law in
integers (`_sample_digits`, the law's one definition), digit n of sample i
from the words W(seed, i, n, 0), W(seed, i, n, 1), ... of a counter-based
function (`_words`).  Most digits are found faster in a float64 pass over a
block of samples (`_float_digits`): it carries r = q_{n-1}/q_n, whose error
grows by at most 2^-52 a step because r <- 1/(d + r) is a contraction, and
takes a digit only where a margin of (x + 2)(n + 16) 2^-48 around x (at
least four times the error bound) shows that the integer sampler takes the
same digit from the same first word.  The pass walks the block's digit rows
once, a group at a time, and each group's windows are tested as it arrives
(`_block_hits`), so no array spans the depth.  A sample with a digit the
margin does not settle is drawn again by `_sample_digits`, and its windows
from that digit on are tested on its exact digits, so every report equals
the integer sampler's.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import EnumerationGuardError, OutOfRangeError
from .primes import PrimeSieve, almost_primes, is_prime_trial, primes_in

# ell = 2 pairs with a b below this are summed one length at a time; above
# it the series in 1/(ab) needs at most K = 6 terms (see `_pair_series`).
SERIES_FLOOR = 2**12
# The most digits one zero-one run may draw: its samples times their depth.
# At the cap, in-process on a 2-vCPU host, 49,751 samples at depth 201 take
# 0.41 s (12.1 s with every sample resampled by _sample_digits), 5,000,000
# at depth 2 take 0.40 s (18.1 s) and 9,990 at depth 1001 take 0.40 s
# (17.8 s).  A lone sample takes about 10 us a digit and a few kB whatever
# its depth, unless it is resampled.
DRAW_CAP = 10**7
# The digits a block's slab of rows holds (ell - 1 rows carried over and a
# group of new ones, times the block's samples), so its arrays stay small
# whatever the sample count and window; resampled samples are redrawn as
# many at a time as CHUNK_DIGITS digits.
CHUNK_DIGITS = 1 << 13
# A group of rows is ROW_GROUP to ROW_GROUP**2 rows, never fewer than ell
# nor more than the depth: a block of fewer samples walks more rows at a
# time, so its per-group numpy calls are spread over more digits.
ROW_GROUP = 8
# Step n of the float pass keeps a digit outside a relative margin of
# (n + 16) MARGIN (derived in _float_digits).
MARGIN = 2.0**-48


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _ceil_ratio(num: int, den: int) -> float:
    """The least float >= num/den, for positive ints; num/den rounds to nearest."""
    f = num / den
    p, q = f.as_integer_ratio()
    return f if p * den >= num * q else _up(f)


@dataclass(frozen=True)
class LevelSetMeasure:
    exact_lower: float
    exact_upper: float
    terms: int

    @property
    def width(self) -> float:
        return self.exact_upper - self.exact_lower


def _partner_starts(pint: np.ndarray, t: int) -> np.ndarray:
    """Per prime a of `pint` (ascending), the index of its first partner b
    with a b >= t: b >= ceil(t / a), in exact integers."""
    return np.searchsorted(pint, -(-t // pint), side="left")


def _blocks(size: int) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed array of ceil(sqrt(size)) columns and enough rows for `size`
    values, and a flat view of its first `size` cells.  A sum along the
    rows and then over the rows takes each value through at most
    rows + cols - 2 additions, whatever order numpy adds in."""
    cols = math.isqrt(max(size - 1, 0)) + 1
    flat = np.zeros(-(-size // cols) * cols)
    return flat.reshape(-1, cols), flat[:size]


def _head_pairs(pint: np.ndarray, t: int) -> np.ndarray:
    """The denominators q = (ab + 1)(ab + b + 1) of the lengths f(a, b) = 1/q
    of the prime pairs in `pint` with t <= a b < SERIES_FLOOR."""
    small = pint[pint <= SERIES_FLOOR // 2]
    a, b = small[:, None], small[None, :]
    ab = a * b
    keep = (ab >= t) & (ab < SERIES_FLOOR)
    return ((ab + 1) * (ab + b + 1))[keep]


def _pair_series(pint: np.ndarray, t: int) -> tuple[list[float], list[float]]:
    """Float terms whose sums bound below and above the sum of f(a, b) over
    the prime pairs in `pint` with a b >= t >= SERIES_FLOOR.

    Term k of the series in the module docstring is T_k = sum_a g_k(a)
    S_{k+2}(a), S_j(a) the sum of b^-j over a's partners.  Each pair's
    remainder after K terms is at most 2 (K + 1) (ab)^-K f(a, b) <=
    2 (K + 1) t^-K f(a, b), so the smallest even K with 2 (K + 1) t^-K <=
    2^-60 leaves the truncation below 2^-60 of the sum: K <= 6, as t >= 2^12.

    Rounding.  Every quantity is positive until the T_k are combined, and
    every rounding in a term of T_k is a factor 1 + d with |d| <= u = 2^-53
    (no value comes near underflow: primes are below 2^30, and k + 2 <= 8).
    y = 1/b and b^-j = y^j take 2j - 1 of them.  1/a, 1/(a + 1) and their
    product c = 1/(a (a + 1)) take 1, 1 and 3; g_0 = c, and g_k = a^-k c +
    g_{k-1}/(a + 1), a sum of positive terms, takes 3k + 3.  The suffix sums
    S_j(a), a row prefix of `_blocks` of the b^-j in descending b plus the
    totals of the rows before it, add at most rows + cols; the product
    g_k S_{k+2} adds 1, and the blocked sum over a its rows + cols.  With
    m_k the total, the computed T_k is the exact one times some 1 + theta,
    |theta| <= m_k u / (1 - m_k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1), so the exact T_k lies within
    a relative 2 m_k u of the float one; it is widened by that and nudged
    outward.
    """
    n = pint.size
    starts = _partner_starts(pint, t)
    # starts fall as a grows, so the primes with a partner are a suffix
    first_a = n - int(np.count_nonzero(starts < n))
    if first_a == n:
        return [], []
    r = 1.0 / t
    K = 2
    while 2 * (K + 1) * r**K > 2.0**-60:
        K += 2
    # the partners of a, in descending b, are a prefix
    b = pint[starts[-1]:][::-1]
    y, y_flat = _blocks(b.size)
    np.divide(1.0, b, out=y_flat)
    z = y * y
    prefix = np.empty_like(z)
    at = n - 1 - starts[first_a:]
    a = pint[first_a:]
    inv_a, inv_a1 = 1.0 / a, 1.0 / (a + 1)
    power = inv_a * inv_a1
    g = power.copy()
    terms, terms_flat = _blocks(a.size)
    lows, highs = [], []
    for k in range(K + 1):
        if k:
            z *= y
            power *= inv_a
            g *= inv_a1
            g += power
        np.cumsum(z, axis=1, out=prefix)
        prefix[1:] += np.cumsum(prefix[:-1, -1])[:, None]
        np.take(prefix, at, out=terms_flat, mode="clip")
        terms_flat *= g
        total = float(terms.sum(axis=1).sum())
        e = (5 * k + 7 + sum(y.shape) + sum(terms.shape)) * 2.0**-52
        lo, hi = _down(total * (1 - e)), _up(total * (1 + e))
        if k % 2:
            lo, hi = -hi, -lo
        highs.append(hi)
        if k < K:
            lows.append(lo)
    return lows, highs


def _reciprocals(x: np.ndarray, to: float) -> Iterator[float]:
    """A float on the `to` side of 1/x for each positive int64 x below 2^62,
    as Python floats made 2^16 at a time, so no list spans the whole array.
    float(x) is moved one ulp away from `to` where it does not convert back
    to x, which puts it beyond x, and then 1/float(x) one ulp toward `to`."""
    for lo in range(0, x.size, 1 << 16):
        chunk = x[lo:lo + (1 << 16)]
        f = chunk.astype(np.float64)
        moved = f.astype(np.int64) != chunk
        f[moved] = np.nextafter(f[moved], -to)
        yield from np.nextafter(1.0 / f, to).tolist()


def level_set_measure(ell: int, threshold: float, cutoff: int,
                      sv: PrimeSieve) -> LevelSetMeasure:
    """Bracket the measure of {x : first ell digits prime, product >= threshold}.

    Sums the exact interval lengths 1/(q_ell (q_ell + q_{ell-1})) of the
    prime tuples with every factor <= cutoff; tuples with a factor beyond
    the cutoff contribute only to the upper end through an integer-tail
    bound.  For ell = 2, pairs with a b < SERIES_FLOOR are summed one by
    one and the rest through `_pair_series`, so the cost grows with the
    number of primes, not of pairs; `terms` still counts the pairs the
    bracket covers.  Exact mode is limited to ell in {1, 2}; deeper
    products are only reachable through the Monte Carlo experiment.  Any
    threshold >= 2 is measured, but the paper's measure criterion holds
    only for thresholds >= 3.
    """
    if ell not in (1, 2):
        raise ValueError(f"exact level-set mode supports ell in {{1, 2}}, got {ell};"
                         " use the Monte Carlo experiment for deeper products")
    if not 2 <= threshold < math.inf:
        raise OutOfRangeError(f"threshold must be finite and >= 2, got {threshold}")
    if cutoff < 2:
        raise OutOfRangeError(f"cutoff must be >= 2, got {cutoff}")

    if ell == 1:
        t = math.ceil(threshold)

        def lengths(to: float) -> Iterator[float]:
            # one segment of primes at a time, p(p+1) exact in int64 as
            # primes are at most SIEVE_CAP; fsum rounds the exact sum
            # however its terms arrive
            for ps in almost_primes(1, "at-most", cutoff, sv):
                ps = ps[np.searchsorted(ps, t):]
                yield from _reciprocals(ps * (ps + 1), to)

        lows, highs = lengths(-np.inf), lengths(np.inf)
        terms = int(np.count_nonzero(sv.table[t : cutoff + 1]))
        # integers past the cutoff dominate the skipped primes:
        # sum 1/(k(k+1)) over k > cutoff telescopes to 1/(cutoff+1)
        tail = _up(1.0 / (cutoff + 1))
    else:
        pint = primes_in(2, cutoff, sv)
        # no pair reaches cutoff^2 + 1, and capping there keeps int64
        t = min(math.ceil(threshold), cutoff * cutoff + 1)
        terms = pint.size ** 2 - int(_partner_starts(pint, t).sum())
        head = _head_pairs(pint, t)
        lows, highs = _pair_series(pint, max(t, SERIES_FLOOR))
        lows += _reciprocals(head, -np.inf)
        highs += _reciprocals(head, np.inf)
        # pairs with a factor beyond the cutoff: each length <= (p1 p2)^-2 and
        # sum_{p > cutoff} p^-2 <= 1/cutoff, evaluated exactly, rounded up once
        psq_hi = _up(math.fsum(_reciprocals(pint * pint, np.inf)))
        num, den = psq_hi.as_integer_ratio()
        tail = _ceil_ratio(2 * (num * cutoff + den), den * cutoff * cutoff)

    return LevelSetMeasure(
        exact_lower=max(_down(math.fsum(lows)), 0.0),
        exact_upper=_up(_up(math.fsum(highs)) + tail),
        terms=terms,
    )


@dataclass(frozen=True)
class MCExperiment:
    """A reproducible zero-one-law sampling run.

    Each sample is the digits, to depth window[1] + ell, of a uniform x (see
    `_sample_digits`).
    """

    sample_count: int
    window: tuple[int, int]
    phi: Callable[[int], float]
    ell: int
    seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        n1, n2 = self.window
        if not 1 <= n1 <= n2:
            raise ValueError(f"window must satisfy 1 <= n1 <= n2, got {self.window}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class ZeroOneReport:
    hit_fraction: float
    hit_count: int
    sample_count: int
    per_n: tuple[tuple[int, int], ...]  # (n, number of samples hitting at n)
    refinements: int                    # samples with a digit that took 2+ words
    max_bits_used: int                  # the most bits any one digit took


def _mix(z, x) -> np.ndarray:
    """One SplitMix64 step: f(z + x g) mod 2^64, f the SplitMix64 finalizer
    and g = 0x9e3779b97f4a7c15 (Steele, Lea & Flood, OOPSLA 2014); the
    counter x broadcasts as a uint64 array."""
    u = np.uint64
    with np.errstate(over="ignore"):
        z = z + np.asarray(x, dtype=u) * u(0x9E3779B97F4A7C15)
        z ^= z >> u(30)
        z *= u(0xBF58476D1CE4E5B9)
        z ^= z >> u(27)
        z *= u(0x94D049BB133111EB)
        z ^= z >> u(31)
        return z


def _sample_key(seed: int, i) -> np.ndarray:
    """The words' prefix for sample i, f(f(seed + g) + i g)."""
    return _mix(_mix(np.uint64(seed), 1), i)


def _digit_words(key, n, w) -> np.ndarray:
    """Word w of digit n's bit string in the sample keyed `key`."""
    return _mix(_mix(key, n), w)


def _words(seed: int, i, n, w) -> np.ndarray:
    """Word w of digit n's bit string in sample i, f(f(f(f(seed + g) + i g)
    + n g) + w g) (see `_mix`); the counters broadcast as uint64 arrays."""
    return _digit_words(_sample_key(seed, i), n, w)


def _draws(seed: int, i: int, first: np.ndarray) -> Callable[[int, int], int]:
    """Sample i's words, given first[n] = W(seed, i, n, 0): draw(n, w) is
    word w of digit n's bit string, W(seed, i, n, w)."""
    def draw(n: int, w: int) -> int:
        return int(first[n] if w == 0 else _words(seed, i, n, w))
    return draw


def _sample_digits(draw: Callable[[int, int], int], depth: int) -> tuple[list[int], int]:
    """The first `depth` digits of a uniform x in (0, 1], and the most bits one took.

    Given continuants q = q_n, q' = q_{n-1}, P(a_{n+1} >= d) = (q + q')/(d q + q')
    (Iosifescu & Kraaikamp 2002, ch. 1), so a_{n+1} = floor(((q + q')/u - q')/q)
    for u uniform in (0, 1].  The first K = 64 w bits U of digit n's bit
    string, its words draw(n, 0) .. draw(n, w - 1), stand for u in
    (U/2^K, (U+1)/2^K]: d is taken at the right end and holds on the whole
    interval when U ((d+1) q + q') >= (q + q') 2^K; otherwise the next word
    is appended.  A fresh u per digit makes the law exact, and d is the
    digit of the whole bit string.  With r = q'/q the digit is floor(x),
    x = (1 + r) 2^K/(U + 1) - r, and it holds when y = (1 + r) 2^K/U - r
    <= d + 1, the form `_float_digits` certifies in floats.
    """
    digits = []
    q, q_prev = 1, 0
    widest = 64
    for n in range(depth):
        u = 0
        for k in itertools.count(64, 64):
            u = u << 64 | draw(n, k // 64 - 1)
            top = (q + q_prev) << k
            d = (top - q_prev * (u + 1)) // (q * (u + 1))
            q_next = d * q + q_prev
            if u * (q_next + q) >= top:
                break
        widest = max(widest, k)
        digits.append(d)
        q, q_prev = q_next, q
    return digits, widest


def _float_digits(seed: int, indices: range, depth: int,
                  group: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The digits `_sample_digits` draws for the samples `indices`, in
    float64, `group` rows at a time, with the number of leading digits per
    sample certified to be them.

    Yields (n, rows, certified) for the rows n .. n + len(rows) - 1, rows a
    fresh (rows, samples) array; certified, one array updated in place, is
    per sample the index of its first uncertified digit so far, or depth.
    Stops after the rows in which the last sample still certified fails.
    Of each digit only its first word U = W(seed, i, n, 0) is read, as a =
    (U + 1)/2^64 and b = U/2^64, hashed from each sample's `_sample_key`,
    made once.  Step n carries r = q'/q in float64 and computes x~ and y~,
    the float values of x(a) and y(b), where x(t) = (1 + r)/t - r with the
    exact r; these are the x and y of the first word in `_sample_digits`.
    The digit d = floor(x~) is certified when

        x~ - d > m(x~)  and  y~ <= d + 1 - m(y~),  m(z) = (z + 2) (n + 16) 2^-48.

    Then x > d and x < y <= d + 1, so `_sample_digits` takes the same d
    from the first word alone.  The first test fails once x~ >= 2^44, where
    m exceeds 1, so a certified d is below 2^44 and exact in float64.

    The margin: r starts at 0 and r <- 1/(d + r) is a contraction
    (|dr'/dr| = 1/(d + r)^2 <= 1), so each step adds at most its own two
    roundings, 2^-52 in all (r <= 1), to the error in r: after n steps
    |r~ - r| <= n 2^-51.  a and b carry two roundings each and x~ three
    more, so |x~ - x(a)| <= (x(a) + 2)(n + 2) 2^-51 <= (x~ + 2)(n + 2) 2^-50,
    the relative error being below 2^-20 while n < DRAW_CAP < 2^24; the
    same holds for y~.  The tests below, rearranged as x~ (1 - e) - 2e > d
    and y~ (1 + e) + 2e <= d + 1 with e = (n + 16) 2^-48, round by at most
    (z + 2) 2^-52 more, and (n + 2) 2^-50 + 2^-52 < e leaves room for it.
    A digit after a sample's first uncertified one is not a digit of x.
    """
    key = _sample_key(seed, np.arange(indices.start, indices.stop))
    r = np.zeros(len(indices))
    certified = np.full(len(indices), depth)
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, depth, group):
            n = np.arange(first, min(first + group, depth))
            b = _digit_words(key, n[:, None], 0).astype(np.float64)
            b *= 2.0**-64
            a = b + 2.0**-64
            ok = np.empty(a.shape, dtype=bool)
            for k, e in enumerate(((n + 16) * MARGIN).tolist()):
                t = 1.0 + r
                x = t / a[k]
                x -= r
                y = t / b[k]
                y -= r
                # row k of a is not read again: it takes digit first + k
                d = np.floor(x, out=a[k])
                np.logical_and(x * (1 - e) - 2 * e > d, y * (1 + e) + 2 * e <= d + 1, out=ok[k])
                r = 1.0 / (d + r)
            failed = (certified == depth) & ~ok.all(axis=0)
            certified[failed] = first + ok.argmin(axis=0)[failed]
            yield first, a, certified
            if (certified < depth).all():
                return


def _window_hits(rows: np.ndarray, thresholds: np.ndarray, ell: int, sv: PrimeSieve,
                 valid: np.ndarray,
                 block: Callable[[int, int], Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """hit[j, s]: column s's ell digits from row j are all prime and
    multiply to at least thresholds[j]; and trial[j, s]: they multiply to
    at least it, but a digit lies past the sieve.  `rows` holds the digits
    as floats (exact below 2^53, NaN above) and `block(j, s)` gives them as
    ints; a window `valid` rules out is neither, and `valid` has a row for
    each window tested.

    Float products decide every window they are sure of.  One below 2^53
    is exact: the partial products of digits >= 1 never decrease, and
    rounding is monotone, so the first rounding would leave one >= 2^53.
    Past it, the ell - 1 roundings of a product of ell <= DRAW_CAP < 2^24
    exact factors leave it within 2^-28 of the exact one, so only products
    within 2^-20 of the threshold, or NaN, are tested again in integers;
    an infinite product exceeds any threshold whose band is finite.  The
    sieve table is read for every digit in it, since a read cannot fail;
    the trial windows are left to `is_prime_trial`.
    """
    width = len(valid)
    thresholds = thresholds[:width]
    thr = thresholds[:, None]
    in_sieve = rows <= sv.limit
    # fmin sends NaN and digits past the sieve to a cell in_sieve masks
    prime = sv.table.take(np.fmin(rows, sv.limit).astype(np.intp))
    prime &= in_sieve
    prod, sieved, primes = rows[:width], in_sieve[:width], prime[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, ell):
            prod = prod * rows[k:k + width]
            sieved = sieved & in_sieve[k:k + width]
            primes = primes & prime[k:k + width]
        passed = (prod >= thr) & valid
        exact_prod = prod < 2.0**53
        if not exact_prod.all():
            upper = thr * (1 + 2.0**-20)
            passed = np.where(exact_prod, passed, (prod >= upper) & np.isfinite(upper) & valid)
            unsure = ~exact_prod & ~passed & ~(prod < thr * (1 - 2.0**-20)) & valid
            for j, s in zip(*np.nonzero(unsure)):
                passed[j, s] = math.prod(block(j, s)) >= float(thresholds[j])
    return passed & primes, passed & ~sieved


def _block_hits(cfg: MCExperiment, indices: range, thresholds: np.ndarray,
                sv: PrimeSieve) -> tuple[np.ndarray, int, list[int]]:
    """Per n of the window, how many of the samples `indices` hit at n; how
    many hit anywhere; and the widest draw of each sample `_sample_digits`
    resampled (every other digit took one 64-bit word).

    `_float_digits` walks the block's digit rows once, a group of rows at
    a time (see ROW_GROUP); each group joins the last ell - 1 rows before
    it in a slab, whose windows ending in the group are tested by
    `_window_hits` and which is then dropped.  A window reaching a
    sample's first uncertified digit is not tested there: the sample is
    drawn again by `_sample_digits` from its first digit, and its windows
    from that one on are tested on the exact digits.  Trial windows are
    answered by `is_prime_trial` as they arrive; the first refusal in
    (sample, n) order, the order of a scalar loop, is raised at the end of
    the block, and trial windows after it are skipped.
    """
    n1, n2 = cfg.window
    ell, start, depth = cfg.ell, n1 - 1, n2 + cfg.ell
    hits = np.zeros(thresholds.size, dtype=np.int64)
    hit_any = np.zeros(len(indices), dtype=bool)
    refused: list = []  # (sample, n) of the first refusal, and the refusal

    def tally(rows, lo, valid, columns, block):
        # the windows from digit lo on in rows, of the block's samples columns
        hit, trial = _window_hits(rows, thresholds[lo - start:], ell, sv, valid, block)
        for j, s in zip(*np.nonzero(trial)):
            at = (columns[s], lo + j)
            if refused and at > refused[0]:
                continue
            try:
                hit[j, s] = all(is_prime_trial(d, sv) for d in block(j, s))
            except OutOfRangeError as exc:
                refused[:] = [at, exc]
        hits[lo - start:lo - start + len(hit)] += hit.sum(axis=1)
        hit_any[columns] |= hit.any(axis=0)

    group = min(depth, max(ell, min(ROW_GROUP**2, CHUNK_DIGITS // len(indices) - ell + 1)))
    slab = np.empty((ell - 1 + group, len(indices)))
    for first, rows, certified in _float_digits(cfg.seed, indices, depth, group):
        # slab row k holds digit first - ell + 1 + k
        slab[ell - 1:ell - 1 + len(rows)] = rows
        lo, hi = max(start, first - ell + 1), min(n2, first + len(rows) - ell + 1)
        if lo < hi:
            window = slab[lo - first + ell - 1:hi - first + 2 * ell - 2]
            tally(window, lo, np.arange(lo + ell, hi + ell)[:, None] <= certified,
                  np.arange(len(indices)), lambda j, s: map(int, window[j:j + ell, s]))
        slab[:ell - 1] = slab[len(rows):len(rows) + ell - 1]

    # the resampled samples, as many at a time as CHUNK_DIGITS digits
    resampled, step = np.flatnonzero(certified < depth), max(1, CHUNK_DIGITS // depth)
    widths = []
    for batch in (resampled[k:k + step] for k in range(0, resampled.size, step)):
        words = _words(cfg.seed, batch[:, None] + indices.start, np.arange(depth), 0)
        exact = []
        for i, first_words in zip(batch + indices.start, words):
            digits, width = _sample_digits(_draws(cfg.seed, int(i), first_words), depth)
            exact.append(digits)
            widths.append(width)
        begin = np.maximum(start, certified[batch] - ell + 1)
        lo = int(begin.min())
        rows = np.array([[d if d < 2**53 else math.nan for d in digits[lo:n2 + ell - 1]]
                         for digits in exact], dtype=np.float64).T
        tally(rows, lo, np.arange(lo, n2)[:, None] >= begin, batch,
              lambda j, s: exact[s][lo + j:lo + j + ell])
    if refused:
        raise refused[1]
    return hits, int(hit_any.sum()), widths


def run_zero_one_experiment(cfg: MCExperiment, sv: PrimeSieve) -> ZeroOneReport:
    """Empirical frequency of a window hit: some n in [n1, n2] whose ell
    consecutive digits are all prime with product >= phi(n).

    Each draw is a pure function of (seed, sample, digit), so the report
    is bit-identical for a fixed configuration regardless of ordering.  A
    run of more than DRAW_CAP digits is refused before any is drawn.
    Samples are drawn by `_block_hits` in blocks whose slab of
    ell - 1 + max(ROW_GROUP, ell) digit rows (fewer in a shallower
    window) holds at most CHUNK_DIGITS digits, or one sample.
    """
    n1, n2 = cfg.window
    depth = n2 + cfg.ell
    draws = cfg.sample_count * depth
    if draws > DRAW_CAP:
        raise EnumerationGuardError(
            f"{draws} draws ({cfg.sample_count} samples x {depth} digits)"
            f" exceed DRAW_CAP = {DRAW_CAP}")
    thresholds = np.array([float(cfg.phi(n)) for n in range(n1, n2 + 1)])
    hits = np.zeros(thresholds.size, dtype=np.int64)
    hit_count = 0
    refinements, widest = 0, 64
    step = max(1, CHUNK_DIGITS // (cfg.ell - 1 + min(depth, max(ROW_GROUP, cfg.ell))))
    for start in range(0, cfg.sample_count, step):
        indices = range(start, min(start + step, cfg.sample_count))
        block_hits, block_count, widths = _block_hits(cfg, indices, thresholds, sv)
        hits += block_hits
        hit_count += block_count
        refinements += sum(width > 64 for width in widths)
        widest = max([widest, *widths])
    return ZeroOneReport(
        hit_fraction=hit_count / cfg.sample_count,
        hit_count=hit_count,
        sample_count=cfg.sample_count,
        per_n=tuple(zip(range(n1, n2 + 1), hits.tolist())),
        refinements=refinements,
        max_bits_used=widest,
    )


@dataclass(frozen=True)
class BBSeriesRow:
    n: int
    term: float
    partial: float


@dataclass(frozen=True)
class BBSeriesReport:
    series: str
    rows: tuple[BBSeriesRow, ...]
    skipped: tuple[int, ...]


def borel_bernstein_table(phi: Callable[[int], float], ell: int, prime_mode: bool,
                          window: tuple[int, int]) -> BBSeriesReport:
    """Partial sums of the criterion series deciding the zero-one laws.

    Plain digits: 1/phi for ell = 1, (log phi)^(ell-1)/phi beyond; prime
    digits: (log log phi)^(ell-1)/(phi log phi).  Entries with phi(n) <= 1
    cannot feed the logarithms and are skipped (reported).  Terms are
    evaluated in arbitrary precision so doubly exponential phi underflows
    to 0.0 gracefully instead of overflowing.  Note the log-log numerator
    is signed for phi < e; the theorems assume phi >= 3.
    """
    from mpmath import mp, mpf  # imported here: no other measure route needs it

    n1, n2 = window
    if not 1 <= n1 <= n2:
        raise ValueError(f"window must satisfy 1 <= n1 <= n2, got {window}")
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if prime_mode:
        series = "(log log phi)^(ell-1) / (phi log phi)"
    elif ell == 1:
        series = "1 / phi"
    else:
        series = "(log phi)^(ell-1) / phi"
    rows: list[BBSeriesRow] = []
    skipped: list[int] = []
    total = 0.0
    needs_log = prime_mode or ell > 1
    with mp.workdps(30):
        for n in range(n1, n2 + 1):
            val = mpf(phi(n))
            if val <= 0 or (needs_log and val <= 1):
                skipped.append(n)
                continue
            if prime_mode:
                lg = mp.log(val)
                term = mp.log(lg) ** (ell - 1) / (val * lg) if ell > 1 else 1 / (val * lg)
            elif ell == 1:
                term = 1 / val
            else:
                term = mp.log(val) ** (ell - 1) / val
            total += float(term)
            rows.append(BBSeriesRow(n=n, term=float(term), partial=total))
    return BBSeriesReport(series=series, rows=tuple(rows), skipped=tuple(skipped))
