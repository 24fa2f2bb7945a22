"""Tail sums of k^-s over integers with few prime factors.

Direct enumeration of truncated tails with rigorous integer-tail remainder
bounds, an independent route to the full prime sum through the Moebius /
log-zeta identity, and asymptotic ratio tables.

Tails are accumulated exactly as Python integers in units of
2^-(FIX_BITS + e), with e chosen so the largest term, at the smallest k,
is about 2^FIX_BITS units.  When s * 2^j is an integer a <= 64 for some
j <= 3, each term is the exact floor of its units, so the total is a
lower bound within `terms` units of the true sum.  Those floors come from
numpy arrays a chunk at a time (`_floor_terms`): a long division by powers
of k in 48-bit digits, each digit estimate off by at most one and one step
correcting it, after, for j >= 1, a root of k in three seeded steps whose
residuals are exact in int64.  The few terms whose root bound cannot
decide the floor take one Python floor division and j integer square
roots.  Any other s takes one mpmath power per term at FIX_BITS + 20 bits,
whose mantissa is shifted into the same units.
The total becomes a 40-digit value once, rounded down, and its slack, plus
that rounding, is added to the remainder bound rounded up, so every tail
keeps about 40 correct digits, however small, and [value, upper] stays
rigorous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from mpmath import libmp, mp, mpf

from .errors import DivergentSeriesError, EnumerationGuardError
from .primes import PrimeSieve, almost_primes

WORK_DPS = 40
# Fixed-point sums count units of 2^-(FIX_BITS + e), e scaled to the largest
# term; terms stream in chunks of FIX_CHUNK, so the exact route's arrays and
# the mpf route's object lists stay a fraction of an enumeration segment's,
# and the 48-bit digits of a chunk's long division sum below 2^60 in uint64.
# Chunks of 2^12 ran the s = 2.5 floors fastest (2^11 and 2^13 took a
# quarter longer, 2-vCPU host), their arrays still in cache.
FIX_BITS = 160
FIX_CHUNK = 1 << 12
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


# The exact route's digits, in its long divisions and square roots: 48 bits,
# so a quotient digit's float estimate is off by at most one, and the digits
# of up to 2^14 terms sum below 2^62.
_DIGIT = 48
_MASK = (1 << _DIGIT) - 1


def _digits(terms: list[tuple[np.ndarray, int]], n: int) -> tuple[list, np.ndarray | float]:
    """(rows, frac) with sum v 2^e over terms equal to sum rows[i] 2^(48 (n-1-i))
    + frac, element for element.

    Each term is an int64 array v with an exponent e.  The rows, top first,
    are int64 digits in [0, 2^48), the top row excepted, which takes what
    lies above it (the caller makes n large enough that it holds no more
    than it can); a row no term reaches is None.  The parts below 2^0 are
    summed into the float array frac, each part exact to 2^-53 relative.
    """
    rows: list = [None] * n
    frac = 0.0

    def add(i: int, part: np.ndarray) -> None:
        rows[i] = part if rows[i] is None else rows[i] + part

    top = _DIGIT * (n - 1)
    for v, e in terms:
        if e >= top:
            add(0, v << (e - top))
        elif e >= 0:
            g, w = divmod(e, _DIGIT)
            add(n - 1 - g, ((v.view(np.uint64) << w) & _MASK).view(np.int64))
            add(n - 2 - g, v >> (_DIGIT - w))
        elif e > -63:
            add(n - 1, v >> -e)
            frac = frac + (v & ((1 << -e) - 1)) * 2.0**e
        else:  # the whole part is 0 or -1
            add(n - 1, v >> 63)
            frac = frac + (v * 2.0**e - (v >> 63))
    for i in range(n - 1, 0, -1):
        if rows[i] is not None:
            add(i - 1, rows[i] >> _DIGIT)
            rows[i] &= _MASK
    return rows, frac


def _sqrt_digits(a: list[np.ndarray], rest) -> tuple[np.ndarray, ...]:
    """(g, d1, d2, x, err): the square root of A = sum a[i] 2^(48 (5-i)) + rest
    is g 2^96 + d1 2^48 + d2 + x, with x within err of the float x.

    The int64 digits a hold an integer, a[0] 2^48 + a[1] = A0 in [2^64, 2^104]
    and the others in [0, 2^48); rest is a float.  Three seeded steps, each
    48 bits more, found by division by the seed (Brent & Zimmermann, Modern
    Computer Arithmetic, 2010, 1.5), with every residual exact:

    * g = round(sqrt(float A0)), in [2^32, 2^52], is within 2 of sqrt(A0),
      so rho1 = A0 - g^2 is under 2^56 in size and exact in int64 arithmetic
      mod 2^64.
    * The root of A1 = 2^96 A0 + 2^48 a2 + a3 is 2^48 g + h - h^2 / (2^49 g)
      to within 2^-10, h = (2^48 rho1 + a2 + a3 2^-48) / (2 g) < 2^50; d1
      rounds that sum without a3's part, so r2 = 2^48 g + d1 is within 1 of
      the root, and s1 = 2^48 rho1 + a2 - 2 g d1 is under 2^55, exact mod
      2^64.  A1 - r2^2 = 2^48 e1 + e0, e1 = s1 - hi and e0 = a3 - lo for d1^2
      = 2^48 hi + lo (`_product`), is under 2^(g's bits + 51), so its float
      has no cancellation.
    * d2 rounds (2^48 (A1 - r2^2) + a4) / (2 r2), so r3 = 2^48 r2 + d2 is
      within 1 of sqrt(A).  With d1 d2 = 2^48 hi + lo, the int64 c1 = 2^48 e1
      + e0 - 2 g d2 - 2 hi, under 2^56, gives A - r3^2 = 2^96 c1 + 2^48 (a4 -
      2 lo) + a5 - d2^2 + rest, summed in float from those five parts.

    So x = (A - r3^2) / (2 r3) in float, and sqrt(A) - r3 = (A - r3^2) / (r3
    + sqrt A) differs from it by under x^2 / r3.  Each part is within 2^-52
    of its value relative, their sum within 5 rounding steps, r3 and the
    quotient within 4, so err = 2^-50 (sum |part| / r3 + |x|) + x^2 / r3
    bounds the error of x, under 2^-49 when g > 2^45.
    """
    a0, a1, a2 = (v.view(np.uint64) for v in a[:3])
    base = 2.0**_DIGIT
    g = np.sqrt(a[0] * base + a[1])
    np.rint(g, out=g)
    gu = g.astype(np.uint64)
    rho1 = ((a0 << _DIGIT) + a1 - gu * gu).view(np.int64)
    h = rho1 * base + a[2]
    h /= 2 * g
    h -= h * h / (2 * base * g)
    d1 = np.rint(h, out=h).astype(np.int64)
    del h  # temporaries go as soon as they are spent: a chunk's peak memory
    s1 = (rho1.view(np.uint64) << _DIGIT) + a2 - 2 * gu * d1.view(np.uint64)
    del rho1
    hi, lo = _product(d1, d1)
    e1 = s1.view(np.int64) - hi
    e0 = a[3] - lo
    del s1, hi, lo
    r2 = g * base + d1
    d2 = (e1 * base + e0) * base + a[4]
    d2 /= 2 * r2
    d2 = np.rint(d2, out=d2).astype(np.int64)
    hi, lo = _product(d1, d2)
    c1 = ((e1.view(np.uint64) << _DIGIT) + e0.view(np.uint64)
          - 2 * gu * d2.view(np.uint64)).view(np.int64) - 2 * hi
    del gu, e1, e0, hi
    r3 = r2 * base + d2
    del r2
    parts = [c1 * base**2, (a[4] - 2 * lo) * base, a[5] * 1.0,
             -d2 * d2.astype(np.float64), rest]
    del c1, lo
    x = sum(parts) / (2 * r3)
    err = (sum(map(abs, parts)) / r3 + abs(x)) * 2.0**-50 + x * x / r3
    return g.astype(np.int64), d1, d2, x, err


def _product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 (hi, lo) with x y = 2^48 hi + lo exactly, for |x|, |y| < 2^53.

    hi rounds the float product, within 2^53 of x y, so |lo| < 2^54 and
    int64 arithmetic mod 2^64 gives lo exactly.
    """
    hi = np.rint(x * y.astype(np.float64) * 2.0**-_DIGIT).astype(np.int64)
    lo = x.view(np.uint64) * y.view(np.uint64) - (hi.view(np.uint64) << _DIGIT)
    return hi, lo.view(np.int64)


# The root's float part is carried as an integer of 2^-56 units: |x| < 2^6.
_X_BITS = 56


def _root_terms(ks: np.ndarray, c: int, j: int):
    """(terms, p, rel, ok): k^(c/2^j) 2^p is the sum of the (int64 array,
    exponent) terms within rel relative, for each k where ok holds.

    c is odd and below 2^j.  Its bits, lowest first, give the roots of a
    Horner chain: w = sqrt(k), then w = sqrt(k^(c_i) w) for i = 1 .. j-1.  Each
    radicand is spread over six 48-bit digits by `_digits`, shifted by one
    even power of two for the whole chunk so that its largest top part A0 is
    below 2^104, and rooted by `_sqrt_digits`.  A radicand's relative error
    halves in the root, and the root adds err / (g 2^96) of its own and 2^-57
    from cutting x to 2^-56.  Where A0 < 2^64, too far below the chunk's
    largest term for the steps' bounds, ok is false.
    """
    terms = [(ks, 0)]
    p = 0
    rel = 0.0
    ok = np.ones(ks.size, dtype=bool)
    top_bits = int(ks.max()).bit_length()  # the radicand is below 2^top_bits
    for i in range(j):
        if i and (c >> i) & 1:
            terms = [(ks * part, e + sh) for v, e in terms
                     for part, sh in ((v >> 31, 31), (v & ((1 << 31) - 1), 0))]
        shift = 5 * _DIGIT + 56 - top_bits
        shift -= (shift + p) & 1
        rows, rest = _digits([(v, e + shift) for v, e in terms], 6)
        a = [np.int64(0) if r is None else r for r in rows]
        good = a[0] * 2.0**_DIGIT + a[1] >= 2.0**64
        if not good.all():  # give those a harmless radicand; ok excludes them
            ok &= good
            a = [np.where(good, r, 0) for r in a]
            a[0][~good] = 1 << 56
            rest = np.where(good, rest, 0.0)
        g, d1, d2, x, err = _sqrt_digits(a, rest)
        p = (p + shift) >> 1
        rel = rel / 2 + (err + 2.0**-_X_BITS) / (g * 2.0 ** (2 * _DIGIT))
        terms = [(g, 2 * _DIGIT), (d1, _DIGIT), (d2, 0),
                 (np.rint(x * 2.0**_X_BITS).astype(np.int64), -_X_BITS)]
        top_bits = int(g.max()).bit_length() + 2 * _DIGIT + 1
        if i + 1 < j and (c >> (i + 1)) & 1:
            top_bits += int(ks.max()).bit_length()
    return terms, p, rel, ok


def _long_divide(rows: list, frac, ks: np.ndarray, power: int):
    """(rows, phi): N / k^power = sum rows[i] 2^(48 (n-1-i)) + phi for N =
    sum rows[i] 2^(48 (n-1-i)) + frac given as `_digits` gives it, the
    quotient rows exact and phi in [0, 1] within 2^-50 of it relative per
    pass, or None for frac None.  The rows given are consumed.

    Long division (Knuth, TAOCP vol. 2, 4.3.1) by D = k^i < 2^62, i as large
    as the chunk allows, pass after pass.  The remainder r < D starts at 0;
    each digit u in [0, 2^48) takes the quotient digit floor((r 2^48 + u) /
    D) < 2^48.  Its estimate, r (2^48 / D) + u / D with both ratios scaled
    by 1 - 2^-49, is below the true ratio, as their float roundings come to
    under 5 2^-53 of it, and above it less 1, so it is the digit or one less:
    r 2^48 + u - q D, in uint64 mod 2^64, is in [0, 2D) and one compare
    fixes q.  A pass's fraction, (r + phi) / D, carries the bits below 2^0.
    """
    kmax = int(ks.max())
    i = 1
    while kmax ** (i + 1) < 1 << 62:
        i += 1
    phi = frac
    for step in [i] * (power // i) + [power % i] * bool(power % i):
        d = ks.astype(np.uint64)
        for _ in range(step - 1):
            d *= ks.astype(np.uint64)
        df = d.astype(np.float64)
        scale = (2.0**_DIGIT * (1 - 2.0**-49)) / df
        inv = (1 - 2.0**-49) / df
        r = None  # until the first row, a remainder of 0
        quotient = []
        for n, u in enumerate(rows):
            rows[n] = None  # each row goes once divided
            if r is None:
                if u is None:
                    continue
                est = u * inv
                r = u.view(np.uint64)
            else:
                est = r.view(np.int64) * scale  # r < 2^62
                r <<= np.uint64(_DIGIT)
                if u is not None:
                    est += u * inv
                    r += u.view(np.uint64)
            q = est.astype(np.int64).view(np.uint64)
            r -= q * d
            over = r >= d
            q += over
            np.minimum(r, r - d, out=r)  # r - d wraps above r where r < d
            if quotient or q.any():  # leading zero rows are dropped
                quotient.append(q)
        if phi is not None:
            phi = (r.view(np.int64) + phi) / df
        rows = quotient or [q]
    return rows, phi


def _floor_terms(ks: np.ndarray, a: int, j: int, unit: int) -> tuple[list, dict]:
    """(rows, exact): floor(2^unit k^(-a/2^j)) for the k at index i of ks is
    sum rows[r][i] 2^(48 (n-1-r)) over the n uint64 rows, or exact[i] where
    i is a key of exact (the rows hold 0 there).

    With q + 1 = ceil(a / 2^j) and c = (q + 1) 2^j - a, each term is
    floor(Y / k^(q+1)) for Y = 2^unit k^(c/2^j) (nested floors).  For j = 0,
    Y = 2^unit and `_long_divide` gives every floor.  Otherwise Y is
    `_root_terms` of k^(c/2^j) shifted into units, within rel relative, and
    its division leaves the fraction phi, a sum of non-negative parts within
    2^-48 of it relative: the floor is the quotient unless phi lies within
    2 rel t + 2^-47 phi of 0, or 2 rel t + 2^-47 of 1, t the term.  A term
    under one unit is 0 unless phi is near 1.  Those terms, and those the
    root's bounds leave out, are found in Python integers instead: the floor
    division of 2^(unit 2^j) by k^a, then j integer square roots.
    """
    if j == 0:
        terms, p, rel, ok = [(np.ones(ks.size, dtype=np.int64), 0)], 0, 0.0, None
        power = a
    else:
        power = -(-a >> j)
        terms, p, rel, ok = _root_terms(ks, (power << j) - a, j)
    shift = unit - p
    # Y is below 2^bits: 2^unit for j = 0, and under 2^(bits of g + 96) + 2^99
    # for a root
    bits = int(terms[0][0].max()).bit_length() + terms[0][1] + shift + (j > 0)
    rows, frac = _digits([(v, e + shift) for v, e in terms],
                         max((bits - 1) // _DIGIT + 1, 1))
    del terms
    rows, phi = _long_divide(rows, None if ok is None else frac, ks, power)
    exact: dict[int, int] = {}
    if ok is not None:
        if _DIGIT * len(rows) > 1000:  # no float bound on terms past 2^1000
            ok[:] = False
        else:  # t, the quotient plus phi, bounds the term from above
            t = phi
            for n, row in enumerate(reversed(rows)):
                t = t + row * 2.0 ** (_DIGIT * n)
            slack = 2 * rel * t * (1 + 2.0**-46)
            ok &= (phi * (1 - 2.0**-47) >= slack) & (phi <= 1 - 2.0**-47 - slack)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            for row in rows:
                row[bad] = 0
            num = 1 << (unit << j)
            for i, k in zip(bad.tolist(), ks[bad].tolist()):
                term = num // k**a
                for _ in range(j):
                    term = math.isqrt(term)
                exact[i] = term
    return rows, exact


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

    On the `_exact_root` route, s = a / 2^j, each term is the exact floor
    of its units, floor(2^unit k^-s), from `_floor_terms` a FIX_CHUNK at
    a time.  Otherwise each term is a `_mpf_power` of FIX_BITS + 20
    bits, its mantissa cut to whole units.
    """
    chunks = (ks[lo:lo + FIX_CHUNK] for lo in range(0, ks.size, FIX_CHUNK))
    root = _exact_root(s)
    total = 0
    if root is not None:
        for chunk in chunks:
            rows, exact = _floor_terms(chunk, *root, unit)
            for n, row in enumerate(reversed(rows)):
                total += int(row.sum(dtype=np.uint64)) << (_DIGIT * n)
            total += sum(exact.values())
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
