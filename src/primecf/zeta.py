"""Tail sums of k^-s over integers with few prime factors.

Direct enumeration of truncated tails with rigorous integer-tail remainder
bounds, an independent route to the full prime sum through the Moebius /
log-zeta identity, and asymptotic ratio tables.

Tails are accumulated exactly as Python integers in units of
2^-(FIX_BITS + e), with e chosen so the largest term, at the smallest k,
is about 2^FIX_BITS units.  When s * 2^j is an integer a <= 64 for some
j <= 3, each term is the exact floor of its units, so the total is a
lower bound within `terms` units of the true sum.  For integer s (j = 0)
the k with k^a < 2^62 get their floors by long division in 40-bit limbs,
a whole numpy array at once (`_limb_floor_sum`): each digit estimate is
off by at most one, and one step corrects it.  Every other term is one
Python floor division, then j nested integer square roots.  Any other s
takes one mpmath power per term at FIX_BITS + 20 bits, whose mantissa is
shifted into the same units.
The total becomes a 40-digit value once, rounded down, and its slack, plus
that rounding, is added to the remainder bound rounded up, so every tail
keeps about 40 correct digits, however small, and [value, upper] stays
rigorous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from mpmath import libmp, mp, mpf

from .errors import DivergentSeriesError, EnumerationGuardError
from .primes import PrimeSieve, almost_primes

WORK_DPS = 40
# Fixed-point sums count units of 2^-(FIX_BITS + e), e scaled to the largest
# term; terms stream through Python ints in chunks of FIX_CHUNK, so no object
# list spans a whole term array, the limb division's uint64 arrays stay
# smaller than an enumeration segment's, and the 40-bit digits of a chunk's
# limb division sum below 2^56 in uint64.
FIX_BITS = 160
FIX_CHUNK = 1 << 14
# Exponents s * 2^j above this take the mpf route: k^a grows with a.
_EXACT_MAX_POWER = 64
# The most terms one tail sum computes on the mpf route, about 11 us each:
# at the cap, pzeta-tail --ell 1 --s 2.3 --M 2 --cutoff 4256233 (300,000
# primes) takes 3.3 s in-process on a 2-vCPU host.
MPF_TERM_CAP = 3 * 10**5


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
        with mp.workdps(WORK_DPS):
            return mp.fadd(self.value, self.remainder_bound, rounding="u")


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


def _exact_root(s: float) -> tuple[int, int] | None:
    """(a, j) with s * 2^j = a for the smallest j <= 3, if a is small enough."""
    for j in range(4):
        a = float(s) * (1 << j)  # exact: scaling by a power of two
        if a.is_integer():
            return (int(a), j) if a <= _EXACT_MAX_POWER else None
    return None


def _mpf_power(s: float, prec: int):
    """The map k -> k^-s as a raw mpmath value of prec bits, exp(-s log k).

    The log is b + 40 bits wider, with 2^b > s, so for k < 2^63 its error
    moves the power by under 2^-(prec+30) relative; with up to one ulp
    from the exponential the result is within 2^-(prec-2) relative.
    """
    neg_s = libmp.from_float(-float(s))
    log_prec = prec + 40 + math.ceil(s).bit_length()
    log, exp, mul, from_int = libmp.mpf_log, libmp.mpf_exp, libmp.mpf_mul, libmp.from_int
    nearest = libmp.round_nearest
    return lambda k: exp(mul(neg_s, log(from_int(k), log_prec)), prec, nearest)


def _unit_exponent(k: int, s: float) -> int:
    """e with 2^(FIX_BITS-2) < 2^(FIX_BITS+e) * k^-s < 2^(FIX_BITS+1).

    A 53-bit k^-s lies in [2^(m-1), 2^m) for m = exponent + bit count and
    is within 2^-50 of the true power, so e = -m gives the range above.
    """
    _, _, exp, bc = _mpf_power(s, 53)(k)
    return -(exp + bc)


def _one_limb_max(a: int) -> int:
    """The largest k with k^a < 2^62, found in exact integers."""
    k = int(2.0 ** (62 / a))
    while k ** a >= 1 << 62:
        k -= 1
    while (k + 1) ** a < 1 << 62:
        k += 1
    return k


def _limb_floor_sum(ks: np.ndarray, a: int, unit: int) -> int:
    """Sum of floor(2^unit / k^a) over ks, every D = k^a below 2^62.

    Long division of 2^unit by all the D at once, in base 2^40 digits and
    uint64 arrays (Knuth, TAOCP vol. 2, 4.3.1).  The remainder r < D starts
    as 2^(unit mod 40) mod D, and each of unit // 40 steps takes the next
    quotient digit, floor(r 2^40 / D) < 2^40.  Its estimate q =
    trunc(float(r) * (2^40 / float(D))) rounds four times, so it is within
    2^-50 relative, under 2^-10 absolute, of r 2^40 / D: q is off by at
    most one.  So r 2^40 - q D lies in [-D, 2D), which int64 holds as D <
    2^62: its wrapped uint64 value read as int64 is exact, and one
    correction step fixes q and r.  Each step's digits sum to under 2^56
    for up to 2^16 ks, and the step sums are combined as Python ints.  So
    the 40-bit limb keeps both the estimate's error below one and a chunk's
    digit sums inside uint64.
    """
    d = ks.astype(np.uint64) ** a
    d_signed = d.view(np.int64)
    scale = 2.0**40 / d.astype(np.float64)
    steps, top = divmod(unit, 40)
    q, r = np.divmod(np.uint64(1 << top), d)
    total = int(q.sum(dtype=np.uint64))
    for _ in range(steps):
        q = (r.astype(np.float64) * scale).astype(np.uint64)
        r <<= np.uint64(40)
        r -= q * d
        signed = r.view(np.int64)
        below, above = signed < 0, signed >= d_signed
        q -= below
        q += above
        r += d * below
        r -= d * above
        total = (total << 40) + int(q.sum(dtype=np.uint64))
    return total


def _power_sum(ks: np.ndarray, s: float) -> tuple[int, int, int]:
    """Integers (lower, upper, e) with lower <= 2^(FIX_BITS+e) * sum k^-s <= upper.

    The unit 2^-(FIX_BITS+e) is scaled to the smallest k, so its term is
    2^(FIX_BITS-2) to 2^(FIX_BITS+1) units and every term at most that.
    The terms' integers are `_unit_sum` and the bracket `_bracket`.
    """
    n = int(ks.size)
    if n == 0:
        return 0, 0, 0
    e = _unit_exponent(int(ks.min()), s)
    return *_bracket(_unit_sum(ks, s, FIX_BITS + e), n, s), e


def _unit_sum(ks: np.ndarray, s: float, unit: int) -> int:
    """The sum over ks of one integer per term, about 2^unit k^-s, which
    depends on k alone, so any split of ks sums to the same total.

    On the `_exact_root` route each term is the exact floor of its units.
    For integer s = a, the k with k^a < 2^62 (k at most `_one_limb_max(a)`,
    an exact bound: k^a in uint64 would wrap) take `_limb_floor_sum`, every
    other k one Python floor division, and both give the same integers;
    s = a / 2^j with j >= 1 takes one Python floor division and j integer
    square roots per term.  Otherwise each term is a `_mpf_power` of
    FIX_BITS + 20 bits, its mantissa cut to whole units.
    """
    chunks = (ks[lo:lo + FIX_CHUNK] for lo in range(0, ks.size, FIX_CHUNK))
    root = _exact_root(s)
    total = 0
    if root is not None:
        a, j = root
        num = 1 << (unit << j)
        one_limb = _one_limb_max(a) if j == 0 else 0
        for chunk in chunks:
            if one_limb:
                small = chunk <= one_limb
                total += _limb_floor_sum(chunk[small], a, unit)
                chunk = chunk[~small]
            terms = map(num.__floordiv__, map(pow, chunk.tolist(), repeat(a)))
            for _ in range(j):
                terms = map(math.isqrt, terms)
            total += sum(terms)
        return total
    power = _mpf_power(s, FIX_BITS + 20)
    for k in chain.from_iterable(chunk.tolist() for chunk in chunks):
        _, man, exp, _ = power(k)
        shift = -exp - unit  # negative when mpmath strips trailing zero bits
        total += man >> shift if shift >= 0 else man << -shift
    return total


def _bracket(total: int, n: int, s: float) -> tuple[int, int]:
    """(lower, upper) around the true sum, in units, of n > 0 terms whose
    `_unit_sum` is total.

    On the `_exact_root` route each term is short by less than one unit, so
    upper = lower + n.  On the mpf route each power is within 2^-178
    relative, so under 2^-17 units off before it is cut; over n terms that
    is under r = n // 2^17 + 1 units, which widens the bracket by r on each
    side.
    """
    if _exact_root(s) is not None:
        return total, total + n
    r = (n >> 17) + 1
    return max(total - r, 0), total + n + r


def _tail_values(lower: int, upper: int, e: int, s: float,
                 cutoff: int) -> tuple[mpf, mpf]:
    """(value, remainder_bound) at WORK_DPS for a bracket in units 2^-(FIX_BITS+e).

    The value is the lower end rounded down; the remainder bound adds the
    integer tail past the cutoff and everything between the value and the
    upper end of the bracket, rounded up.
    """
    with mp.workdps(WORK_DPS):
        scaled = mp.make_mpf(libmp.from_int(lower, mp.prec, libmp.round_down))
        gap = mp.make_mpf(libmp.from_int(upper - int(scaled), mp.prec, libmp.round_up))
        value = mp.ldexp(scaled, -(FIX_BITS + e))
        bound = mp.fadd(_integer_tail_bound(cutoff, s), mp.ldexp(gap, -(FIX_BITS + e)),
                        rounding="u")
    return value, bound


def _tails(ell: int, mode: str, s: float, thresholds: list[float], cutoff: int,
           sv: PrimeSieve) -> list[tuple[mpf, mpf, int]]:
    """(value, remainder_bound, terms) of the tail over M <= k <= cutoff,
    for each threshold M.

    The enumeration runs once, and the thresholds split each segment of it
    into bands, each summed as it arrives in the unit of its least term.
    Each tail is then an exact integer suffix sum of the bands, in the unit
    of the largest threshold with terms, so the other tails, in a finer
    unit than their own, agree with a lone-threshold sum to about 40
    digits.  On the mpf route every term is counted before any power is
    computed.  The remainder bound covers everything past the cutoff, which
    the integer tail dominates.
    """
    segments = almost_primes(ell, mode, cutoff, sv)
    edges = sorted({math.ceil(M) for M in thresholds})
    exact = _exact_root(s) is not None
    totals, counts, exps = [0] * len(edges), [0] * len(edges), [0] * len(edges)
    pending: list[tuple[int, np.ndarray]] = []  # mpf-route bands, summed once counted
    n = 0
    for ks in segments:
        bands = np.split(ks, np.searchsorted(ks, edges))[1:]
        for b, band in enumerate(bands):
            if not band.size:
                continue
            if not counts[b]:
                exps[b] = _unit_exponent(int(band[0]), s)
            counts[b] += band.size
            n += band.size
            if exact:
                totals[b] += _unit_sum(band, s, FIX_BITS + exps[b])
            elif n <= MPF_TERM_CAP:
                pending.append((b, band))
    if n > MPF_TERM_CAP and not exact:
        raise EnumerationGuardError(
            f"{n} terms on the mpf power route exceed MPF_TERM_CAP = {MPF_TERM_CAP}")
    for b, band in pending:
        totals[b] += _unit_sum(band, s, FIX_BITS + exps[b])
    lower = upper = e = terms = 0
    tails = {}
    for b in reversed(range(len(edges))):
        if counts[b]:
            band_lower, band_upper = _bracket(totals[b], counts[b], s)
            # one shared unit, the finest so far: the shifts are exact
            unit = max(e, exps[b])
            lower = (lower << (unit - e)) + (band_lower << (unit - exps[b]))
            upper = (upper << (unit - e)) + (band_upper << (unit - exps[b]))
            e = unit
            terms += counts[b]
        tails[edges[b]] = (*_tail_values(lower, upper, e, s, cutoff), terms)
    return [tails[math.ceil(M)] for M in thresholds]


def pzeta_tail(ell: int, mode: str, s: float, M: float, cutoff: int,
               sv: PrimeSieve) -> TailSumResult:
    """Sum of k^-s over almost primes k with M <= k <= cutoff (see `_tails`)."""
    _check_exponent(s)
    if not M >= 2:
        raise ValueError(f"threshold M must be >= 2, got {M}")
    if not cutoff >= M:
        raise ValueError(f"cutoff {cutoff} below threshold M = {M}")
    value, bound, terms = _tails(ell, mode, s, [M], int(cutoff), sv)[0]
    return TailSumResult(value=value, remainder_bound=bound, terms_used=terms)


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


def zeta_em(s: float) -> mpf:
    """Riemann zeta for real s > 1 by Euler-Maclaurin acceleration.

    Direct sum to 50, then the integral term, half-term, and 14 Bernoulli
    corrections.  For real s > 1 the remainder is at most the first
    omitted term, |B_30|/30! s(s+1)...(s+28) 50^(-s-29), which peaks at
    2.2e-44 near s = 1.03 and falls for larger s.
    """
    if not s > 1:
        raise DivergentSeriesError(f"zeta_em needs s > 1, got {s}")
    with mp.workdps(WORK_DPS + 15):
        ms = mpf(s)
        N = 50
        total = mp.fsum(mpf(1) / mpf(k) ** ms for k in range(1, N))
        total += mpf(N) ** (1 - ms) / (ms - 1)
        total += mpf(N) ** -ms / 2
        rising = ms  # s(s+1)...(s+2j-2) built incrementally
        power = mpf(N) ** (-ms - 1)
        for j in range(1, 15):
            total += mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * power
            rising *= (ms + 2 * j - 1) * (ms + 2 * j)
            power /= N * N
        return +total


def pzeta_via_mobius(s: float) -> mpf:
    """Sum of p^-s over all primes, via sum_k mu(k)/k * log zeta(k s).

    Independent of any sieve or enumeration.  Since zeta(x) - 1 <= 3 2^-x
    for x >= 2, term k is at most 3 2^(-k s)/k and the tail past depth D
    is below 6 2^(-(D+1) s); D = ceil((prec + 3)/s) puts it under 2^-prec
    relative to the sum, which exceeds 2^-s.  Each k s is formed at
    working precision, not rounded to a double.
    """
    _check_exponent(s)
    with mp.workdps(WORK_DPS + 10):
        ms = mpf(s)
        depth = math.ceil((mp.prec + 3) / s)
        total = mpf(0)
        for k in range(1, depth + 1):
            mu = mobius(k)
            if mu == 0:
                continue
            total += mpf(mu) / k * mp.log(zeta_em(k * ms))
        return +total


def asymptotic_table(ell: int, s: float, M_grid: list[float], cutoff: int,
                     sv: PrimeSieve, mode: str = "at-most") -> list[AsymptoticRatioRow]:
    """Normalized tail values across a threshold grid (see `_tails`)."""
    _check_exponent(s)
    if not M_grid:
        raise ValueError("M_grid must be non-empty")
    if not all(m >= 3 for m in M_grid):
        raise ValueError("grid thresholds must be >= 3 so log log M is positive")
    if not cutoff >= max(M_grid):
        raise ValueError(f"cutoff {cutoff} below largest grid threshold")
    tails = _tails(ell, mode, s, M_grid, int(cutoff), sv)
    rows = []
    with mp.workdps(WORK_DPS):
        for M, (value, bound, _) in zip(M_grid, tails):
            mM = mpf(M)
            ratio = value * mM ** (mpf(s) - 1) * mp.log(mM) / mp.log(mp.log(mM)) ** (ell - 1)
            rows.append(AsymptoticRatioRow(M=float(M), value=value,
                                           ratio=+ratio, remainder_bound=bound))
    return rows
