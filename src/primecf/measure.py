"""Lebesgue measure of prime-digit level sets, and zero-one-law experiments
on digit strings drawn from their exact law.

The level set for a threshold t collects the x in [0,1) whose first ell
digits are primes multiplying to at least t; its measure is a sum of
exact fundamental-interval lengths over prime tuples.  Enumeration stops
at a factor cutoff and the omitted tuples are covered by an integer-tail
bound, so the reported pair [exact_lower, exact_upper] is a rigorous
bracket: every float is nudged outward before accumulation and the
correctly-rounded totals are nudged once more.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from mpmath import mp, mpf

from .errors import EnumerationGuardError, OutOfRangeError
from .primes import PrimeSieve, is_prime_trial, primes_in

# The most prime pairs an ell = 2 measure sums, one float term each.  At the
# cap, --threshold 3 --cutoff 253992 (499,969,600 pairs) takes 2.2 to 2.4 s
# and 38 MB in-process on a 2-vCPU host.
PAIR_CAP = 5 * 10**8


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


@dataclass(frozen=True)
class LevelSetMeasure:
    phi_value: float
    ell: int
    exact_lower: float
    exact_upper: float
    cutoff: int
    terms: int

    @property
    def width(self) -> float:
        return self.exact_upper - self.exact_lower


def level_set_measure(ell: int, threshold: float, cutoff: int,
                      sv: PrimeSieve) -> LevelSetMeasure:
    """Bracket the measure of {x : first ell digits prime, product >= threshold}.

    Enumerates prime tuples with every factor <= cutoff and sums the
    exact interval lengths 1/(q_ell (q_ell + q_{ell-1})); tuples with a
    factor beyond the cutoff contribute only to the upper end through an
    integer-tail bound.  Exact mode is limited to ell in {1, 2}; deeper
    products are only reachable through the Monte Carlo experiment.  An
    ell = 2 request with more than PAIR_CAP pairs is refused before any
    term is summed.  Any threshold >= 2 is measured, but the paper's
    measure criterion holds only for thresholds >= 3.
    """
    if ell not in (1, 2):
        raise ValueError(f"exact level-set mode supports ell in {{1, 2}}, got {ell};"
                         " use the Monte Carlo experiment for deeper products")
    if not 2 <= threshold < math.inf:
        raise OutOfRangeError(f"threshold must be finite and >= 2, got {threshold}")
    if cutoff < 2 or cutoff > sv.limit:
        raise OutOfRangeError(f"cutoff {cutoff} outside sieve range [2, {sv.limit}]")

    lows: list[float] = []
    highs: list[float] = []
    terms = 0
    if ell == 1:
        # primes are int64 and at most SIEVE_CAP, so p(p+1) is exact; the
        # float conversion and 1/x round as Python's int/float ops do
        ps = primes_in(math.ceil(threshold), cutoff, sv)
        t = 1.0 / (ps * (ps + 1)).astype(np.float64)
        lows = np.nextafter(t, -np.inf).tolist()
        highs = np.nextafter(t, np.inf).tolist()
        terms = len(lows)
        # integers past the cutoff dominate the skipped primes:
        # sum 1/(k(k+1)) over k > cutoff telescopes to 1/(cutoff+1)
        tail = _up(1.0 / (cutoff + 1))
    else:
        pint = primes_in(2, cutoff, sv)
        ps = pint.astype(np.float64)
        # p1 p2 >= threshold  <=>  p2 >= ceil(ceil(threshold) / p1), in exact
        # integers; capping at cutoff^2 + 1 (no pair reaches it) keeps int64
        need = -(-min(math.ceil(threshold), cutoff * cutoff + 1) // pint)
        starts = np.searchsorted(pint, need, side="left").tolist()
        pairs = ps.size * len(starts) - sum(starts)
        if pairs > PAIR_CAP:
            raise EnumerationGuardError(
                f"{pairs} prime pairs to sum exceed PAIR_CAP = {PAIR_CAP}")
        # per-prime steps run in place on slices of two buffers allocated
        # once, in the order q2 = p1 p2 + 1, t = 1 / (q2 (q2 + p2)); each
        # buffer starts on a 64-byte boundary, since fresh temporaries land
        # wherever the heap leaves them, and the same loop ran 0.96 s or
        # 1.08 s on a 2-vCPU host by that alone (same ops and order, so the
        # same doubles)
        stride = -(-ps.size // 8) * 8
        raw = np.empty(2 * stride + 8)
        off = (-raw.ctypes.data % 64) // 8
        q2_buf, t_buf = raw[off:off + ps.size], raw[off + stride:off + stride + ps.size]
        for p1, start in zip(pint.tolist(), starts):
            if start == ps.size:
                continue
            tail = ps[start:]
            q2, t = q2_buf[:tail.size], t_buf[:tail.size]
            np.multiply(tail, p1, out=q2)
            q2 += 1.0
            np.add(q2, tail, out=t)
            t *= q2
            np.divide(1.0, t, out=t)
            block = float(np.sum(t))
            # four float ops per term plus pairwise summation keep the
            # relative error well under 1e-13; pad outward by that much
            lows.append(block * (1.0 - 1e-13))
            highs.append(block * (1.0 + 1e-13))
            terms += t.size
        psq_hi = _up(math.fsum(np.nextafter(1.0 / (pint * pint).astype(np.float64), np.inf)))
        # pairs with a factor beyond the cutoff: each length <= (p1 p2)^-2,
        # and sum_{p > cutoff} p^-2 <= 1/cutoff
        tail = _up(2.0 * (psq_hi + 1.0 / cutoff) * (1.0 / cutoff))

    lower = _down(math.fsum(lows)) if lows else 0.0
    upper = _up(_up(math.fsum(highs)) + tail) if highs else _up(tail)
    return LevelSetMeasure(
        phi_value=float(threshold),
        ell=ell,
        exact_lower=max(lower, 0.0),
        exact_upper=upper,
        cutoff=cutoff,
        terms=terms,
    )


@dataclass(frozen=True)
class MCExperiment:
    """A reproducible zero-one-law sampling run.

    Each sample is the digits, to depth window[1] + ell, of a uniform x (see
    `_sample_digits`); `precision_bits` is the bits per draw, not a limit.
    """

    sample_count: int
    precision_bits: int
    window: tuple[int, int]
    phi: Callable[[int], float]
    ell: int
    seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.precision_bits < 16:
            raise ValueError(f"precision_bits must be >= 16, got {self.precision_bits}")
        n1, n2 = self.window
        if not 1 <= n1 <= n2:
            raise ValueError(f"window must satisfy 1 <= n1 <= n2, got {self.window}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")


@dataclass(frozen=True)
class ZeroOneReport:
    hit_fraction: float
    hit_count: int
    sample_count: int
    per_n: tuple[tuple[int, int], ...]  # (n, number of samples hitting at n)
    refinements: int                    # samples with a digit that took 2+ draws
    max_bits_used: int                  # the most bits any one digit took


def _sample_digits(rng: random.Random, bits: int, depth: int) -> tuple[list[int], int]:
    """The first `depth` digits of a uniform x in (0, 1], and the most bits one took.

    Given continuants q = q_n, q' = q_{n-1}, P(a_{n+1} >= d) = (q + q')/(d q + q')
    (Iosifescu & Kraaikamp 2002, ch. 1), so a_{n+1} = floor(((q + q')/u - q')/q)
    for u uniform in (0, 1].  A draw U of K bits stands for u in
    (U/2^K, (U+1)/2^K]: d is taken at the right end and holds on the whole
    interval when U ((d+1) q + q') >= (q + q') 2^K; otherwise `bits` more
    bits split the interval uniformly.  A fresh u per digit makes the law exact.
    """
    digits = []
    q, q_prev = 1, 0
    widest = bits
    for _ in range(depth):
        u, k = rng.getrandbits(bits), bits
        while True:
            top = (q + q_prev) << k
            d = (top - q_prev * (u + 1)) // (q * (u + 1))
            q_next = d * q + q_prev
            if u * (q_next + q) >= top:
                break
            u, k = (u << bits) | rng.getrandbits(bits), k + bits
        widest = max(widest, k)
        digits.append(d)
        q, q_prev = q_next, q
    return digits, widest


def run_zero_one_experiment(cfg: MCExperiment, sv: PrimeSieve) -> ZeroOneReport:
    """Empirical frequency of a window hit: some n in [n1, n2] whose ell
    consecutive digits are all prime with product >= phi(n).

    Samples are independent with per-index derived seeds, so the report
    is bit-identical for a fixed configuration regardless of ordering.
    """
    n1, n2 = cfg.window
    thresholds = [float(cfg.phi(n)) for n in range(n1, n2 + 1)]
    hits = [0] * n2  # hits[n - 1] counts the samples hitting at n
    hit_count = 0
    widths = []
    for i in range(cfg.sample_count):
        rng = random.Random(f"{cfg.seed}:{i}")
        digits, width = _sample_digits(rng, cfg.precision_bits, n2 + cfg.ell)
        widths.append(width)
        hit_any = False
        for j, threshold in enumerate(thresholds, n1 - 1):
            # the cheap product test first: it fails far more often than primality
            block = digits[j:j + cfg.ell]
            if (math.prod(block) >= threshold
                    and all(is_prime_trial(d, sv) for d in block)):
                hits[j] += 1
                hit_any = True
        hit_count += hit_any
    return ZeroOneReport(
        hit_fraction=hit_count / cfg.sample_count,
        hit_count=hit_count,
        sample_count=cfg.sample_count,
        per_n=tuple(zip(range(n1, n2 + 1), hits[n1 - 1:])),
        refinements=sum(width > cfg.precision_bits for width in widths),
        max_bits_used=max(widths),
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
    n1, n2 = window
    if n2 < n1:
        raise ValueError(f"empty window {window}")
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
