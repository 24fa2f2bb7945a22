"""Tail sums of k^-s over integers with few prime factors.

Direct enumeration of truncated tails with rigorous integer-tail remainder
bounds, an independent route to the full prime sum through the Moebius /
log-zeta identity, the recursive sum over constrained prime products, and
asymptotic ratio tables.  Accumulation runs at 40 significant digits so
tails near 1e-6 sit far above rounding noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import DivergentSeriesError, OutOfRangeError
from .primes import AlmostPrimeEnumeration, PrimeSieve, almost_primes, primes_in

WORK_DPS = 40


@dataclass(frozen=True)
class TailSumResult:
    """A truncated tail with a one-sided truncation bound.

    The untruncated sum lies in [value, value + remainder_bound].
    """

    value: mpf
    remainder_bound: mpf
    terms_used: int

    @property
    def upper(self) -> mpf:
        return self.value + self.remainder_bound


@dataclass(frozen=True)
class AsymptoticRatioRow:
    """One grid point of a normalized tail: ratio = value * M^(s-1) * log M / (log log M)^(ell-1)."""

    M: float
    value: mpf
    ratio: mpf
    remainder_bound: mpf


def _check_exponent(s: float) -> None:
    if not s > 1:
        raise DivergentSeriesError(f"tail sums need s > 1, got {s}")


def _integer_tail_bound(cutoff: int, s: float) -> mpf:
    """Upper bound on the sum of k^-s over integers k > cutoff.

    Comparison with the integral gives cutoff^(1-s)/(s-1); a relative pad
    of 1e-35 keeps the stored bound on the safe side of rounding.
    """
    with mp.workdps(WORK_DPS):
        bound = mpf(cutoff) ** (1 - mpf(s)) / (mpf(s) - 1)
        return bound * (1 + mpf(10) ** (5 - WORK_DPS))


def _power_sum(ks: np.ndarray, s: float) -> mpf:
    """Sum of k^-s over an ascending integer array, at working precision."""
    with mp.workdps(WORK_DPS):
        if float(s).is_integer():
            e = int(s)
            return mp.fsum(mpf(1) / mpf(int(k) ** e) for k in ks)
        ms = mpf(s)
        return mp.fsum(mpf(int(k)) ** -ms for k in ks)


def pzeta_tail(ell: int, mode: str, s: float, M: float, cutoff: int,
               sv: PrimeSieve) -> TailSumResult:
    """Sum of k^-s over almost primes k with M <= k <= cutoff.

    The remainder bound covers everything past the cutoff: the summed set
    is a subset of the integers, so the integer tail dominates it.
    """
    _check_exponent(s)
    if not M >= 2:
        raise ValueError(f"threshold M must be >= 2, got {M}")
    if not cutoff >= M:
        raise ValueError(f"cutoff {cutoff} below threshold M = {M}")
    cfg = AlmostPrimeEnumeration(ell=ell, mode=mode, bound=int(cutoff))
    ks = almost_primes(cfg, sv)
    lo = int(np.searchsorted(ks, math.ceil(M), side="left"))
    ks = ks[lo:]
    value = _power_sum(ks, s)
    return TailSumResult(
        value=value,
        remainder_bound=_integer_tail_bound(int(cutoff), s),
        terms_used=int(ks.size),
    )


def mobius(k: int) -> int:
    """Moebius function by trial division (intended for small k)."""
    if k < 1:
        raise ValueError(f"mobius needs k >= 1, got {k}")
    res = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            res = -res
        d += 1
    if k > 1:
        res = -res
    return res


def zeta_em(s: float, terms: int = 50, tail_terms: int = 14) -> mpf:
    """Riemann zeta for real s > 1 by Euler-Maclaurin acceleration.

    Direct sum to `terms`, then the integral term, half-term, and
    `tail_terms` Bernoulli corrections.  With the defaults the correction
    terms decay below 1e-60 for s >= 2, far past the working precision.
    """
    if not s > 1:
        raise DivergentSeriesError(f"zeta_em needs s > 1, got {s}")
    with mp.workdps(WORK_DPS + 15):
        ms = mpf(s)
        N = terms
        total = mp.fsum(mpf(1) / mpf(k) ** ms for k in range(1, N))
        total += mpf(N) ** (1 - ms) / (ms - 1)
        total += mpf(N) ** -ms / 2
        rising = ms  # s(s+1)...(s+2j-2) built incrementally
        power = mpf(N) ** (-ms - 1)
        for j in range(1, tail_terms + 1):
            total += mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * power
            rising *= (ms + 2 * j - 1) * (ms + 2 * j)
            power /= N * N
        return +total


def pzeta_via_mobius(s: float, depth: int = 60) -> mpf:
    """Sum of p^-s over all primes, via sum_k mu(k)/k * log zeta(k s).

    Independent of any sieve or enumeration; the k-th term decays like
    2^(-k s), so depth 60 is far below working precision at s >= 2.
    """
    _check_exponent(s)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    with mp.workdps(WORK_DPS + 10):
        total = mpf(0)
        for k in range(1, depth + 1):
            mu = mobius(k)
            if mu == 0:
                continue
            total += mpf(mu) / k * mp.log(zeta_em(k * s))
        return +total


def s_recursive(ell: int, M: float, r: int, s: float, cutoff: int,
                sv: PrimeSieve) -> TailSumResult:
    """Sum of (p_1 ... p_ell)^-s over prime tuples with product >= M, p_i >= r.

    Computed through the recursion S(l, M) = sum_{p >= r} p^-s S(l-1, M/p)
    with base S(0, M) = [M <= 1], each factor truncated at the cutoff.
    Tuples whose partial product already exceeds M close in one step via a
    precomputed suffix sum, so the work is proportional to the number of
    prefixes with product below M, not to cutoff^ell.
    """
    _check_exponent(s)
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if r < 2:
        raise ValueError(f"prime floor r must be >= 2, got {r}")
    if cutoff < r:
        raise ValueError(f"cutoff {cutoff} below prime floor r = {r}")
    ps = primes_in(r, cutoff, sv)
    nodes = 0
    with mp.workdps(WORK_DPS):
        ms = mpf(s)
        pows = [mpf(int(p)) ** -ms for p in ps]
        suffix = [mpf(0)] * (len(pows) + 1)
        for i in range(len(pows) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + pows[i]
        T = suffix[0]

        def rec(l: int, m: float) -> mpf:
            nonlocal nodes
            nodes += 1
            if l == 0:
                return mpf(1 if m <= 1 else 0)
            if m <= 1:
                return T ** l
            idx = int(np.searchsorted(ps, m, side="left"))  # first p >= m
            total = suffix[idx] * T ** (l - 1)
            for j in range(idx):
                total += pows[j] * rec(l - 1, m / int(ps[j]))
            return total

        value = rec(ell, M)
        tail = _integer_tail_bound(cutoff, s)
        bound = ell * tail * (T + tail) ** max(ell - 1, 0) if ell else mpf(0)
    return TailSumResult(value=value, remainder_bound=bound, terms_used=nodes)


def asymptotic_table(ell: int, s: float, M_grid: list[float], cutoff: int,
                     sv: PrimeSieve, mode: str = "at-most") -> list[AsymptoticRatioRow]:
    """Normalized tail values across a threshold grid.

    The enumeration runs once; per-threshold values are suffix sums over
    the same ascending term sequence, so rows are mutually consistent.
    """
    _check_exponent(s)
    if not M_grid:
        raise ValueError("M_grid must be non-empty")
    if not all(m >= 3 for m in M_grid):
        raise ValueError("grid thresholds must be >= 3 so log log M is positive")
    if not cutoff >= max(M_grid):
        raise ValueError(f"cutoff {cutoff} below largest grid threshold")
    cfg = AlmostPrimeEnumeration(ell=ell, mode=mode, bound=int(cutoff))
    ks = almost_primes(cfg, sv)
    bound = _integer_tail_bound(int(cutoff), s)
    rows = []
    order = sorted(range(len(M_grid)), key=lambda i: M_grid[i], reverse=True)
    partial = mpf(0)
    upper_idx = len(ks)
    values: dict[int, mpf] = {}
    with mp.workdps(WORK_DPS):
        for i in order:
            lo = int(np.searchsorted(ks, math.ceil(M_grid[i]), side="left"))
            partial += _power_sum(ks[lo:upper_idx], s)
            upper_idx = lo
            values[i] = +partial
        for i, M in enumerate(M_grid):
            mM = mpf(M)
            ratio = values[i] * mM ** (mpf(s) - 1) * mp.log(mM) / mp.log(mp.log(mM)) ** (ell - 1)
            rows.append(AsymptoticRatioRow(M=float(M), value=values[i],
                                           ratio=+ratio, remainder_bound=bound))
    return rows
