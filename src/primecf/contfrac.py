"""Exact continued-fraction kernel.

Finite digit words, continuant recurrences, fundamental intervals, measures
of unions of sibling intervals, and certified expansion of dyadic
observations.  All arithmetic is exact (Python ints / fractions.Fraction);
nothing in this module rounds.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator


def _digits(word: Iterable[int]) -> tuple[int, ...]:
    """The word as a tuple of ints.  Every digit must be an integer >= 1,
    numpy's included; a float is refused, not truncated."""
    digits = tuple(word)
    for d in digits:
        try:
            ok = operator.index(d) >= 1
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"digits must be integers >= 1, got {d!r}")
    return tuple(map(int, digits))


@dataclass(frozen=True)
class ContinuantPair:
    """Numerator/denominator state (p, q) with its predecessor (p_prev, q_prev).

    Seeds: p_{-1}=1, p_0=0, q_{-1}=0, q_0=1, then p_n = a_n p_{n-1} + p_{n-2}
    and likewise for q.
    """

    p: int
    q: int
    p_prev: int
    q_prev: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def determinant(self) -> int:
        return self.p * self.q_prev - self.p_prev * self.q


def continuants(word: Iterable[int]) -> ContinuantPair:
    """Run the continuant recurrence across the whole word."""
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in _digits(word):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return ContinuantPair(p=p, q=q, p_prev=p_prev, q_prev=q_prev)


@dataclass(frozen=True)
class FundamentalInterval:
    """The set of x in [0,1) whose expansion starts with a given word.

    lo < hi always; which endpoint is attained alternates with the parity
    of the level: even level -> closed at lo (= p/q), odd level -> closed
    at hi (= p/q).
    """

    lo: Fraction
    hi: Fraction
    level: int
    word: tuple[int, ...]

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def closed_left(self) -> bool:
        return self.level % 2 == 0

    @property
    def closed_right(self) -> bool:
        return self.level % 2 == 1


def fundamental_interval(word: Iterable[int]) -> FundamentalInterval:
    """Exact endpoints of the interval of reals sharing this digit prefix.

    The endpoints are p/q and (p + p_prev)/(q + q_prev); the length is
    1/(q (q + q_prev)).
    """
    w = _digits(word)
    if not w:
        return FundamentalInterval(Fraction(0), Fraction(1), 0, w)
    c = continuants(w)
    a = Fraction(c.p, c.q)
    b = Fraction(c.p + c.p_prev, c.q + c.q_prev)
    lo, hi = (a, b) if a < b else (b, a)
    return FundamentalInterval(lo, hi, len(w), w)


def union_measure(prefix: Iterable[int], a: int, b: int) -> Fraction:
    """Lebesgue measure of the union of child intervals with next digit in [a, b].

    Children with consecutive digits tile the parent contiguously, so the
    union telescopes to ((b+1) - a) / ((a q + q_prev)((b+1) q + q_prev)).
    """
    if not (1 <= a <= b):
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    c = continuants(prefix)
    return Fraction(b + 1 - a, (a * c.q + c.q_prev) * ((b + 1) * c.q + c.q_prev))


def _euclid(num: int, den: int) -> Iterator[int]:
    """Euclid's quotients of num/den for 0 <= num <= den: its canonical digits.

    The last quotient exceeds 1 unless num/den = 1 = [0; 1], so the stream
    never ends in a foldable 1.
    """
    while num:
        a, r = divmod(den, num)
        yield a
        num, den = r, num


def expand_rational(num: int, den: int, max_len: int = 64) -> tuple[int, ...]:
    """Canonical continued-fraction digits of num/den in [0, 1), cut at max_len."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if not 0 <= num < den:
        raise ValueError(f"need 0 <= num < den, got {num}/{den}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    return tuple(islice(_euclid(num, den), max_len))


def expand_real(x: Fraction, precision_bits: int | None = None,
                max_len: int = 64) -> tuple[int, ...]:
    """Digit prefix certified correct for an uncertain observation of x.

    With precision_bits = P, x stands for any real in [x, x + 2^-P], and the
    result is the common prefix w of the canonical expansions of the two
    ends, cut at max_len.  Every real between them starts with w: the reals
    whose expansion starts with w are (p t + p')/(q t + q') for tails t in
    (1, inf], with p/q, p'/q' the last two convergents of w.  That set is an
    interval, closed at the convergent p/q (t = inf; unless w ends in a 1
    after its first digit, when p/q has the shorter expansion) and open at
    the mediant (p + p')/(q + q') (t = 1).  Being convex, it contains
    [x, x + 2^-P] exactly when it contains both ends.  With precision_bits
    = None, x is exact and the full canonical expansion is returned.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if precision_bits is None:
        return expand_rational(x.numerator, x.denominator, max_len)
    if precision_bits < 1:
        raise ValueError(f"precision_bits must be >= 1, got {precision_bits}")
    x_hi = x + Fraction(1, 2 ** precision_bits)
    digits: list[int] = []
    ends = zip(_euclid(x.numerator, x.denominator), _euclid(x_hi.numerator, x_hi.denominator))
    for a, b in islice(ends, max_len):
        if a != b:
            break
        digits.append(a)
    return tuple(digits)


@dataclass(frozen=True)
class ContinuantBoundsReport:
    """Attained ratios for the digit-deletion and split continuant bounds."""

    word: tuple[int, ...]
    k: int
    delete_ratio: Fraction
    delete_lo: Fraction
    delete_hi: Fraction
    split_ratios: tuple[tuple[int, Fraction], ...]

    @property
    def delete_ok(self) -> bool:
        return self.delete_lo <= self.delete_ratio <= self.delete_hi

    @property
    def splits_ok(self) -> bool:
        return all(1 <= r <= 2 for _, r in self.split_ratios)

    @property
    def ok(self) -> bool:
        return self.delete_ok and self.splits_ok


def check_continuant_bounds(word: Iterable[int], k: int) -> ContinuantBoundsReport:
    """Exact ratios for two continuant inequalities.

    Deleting the k-th digit a_k divides the continuant by a factor in
    [(a_k + 1)/2, a_k + 1]; splitting the word anywhere gives
    q(bc) / (q(b) q(c)) in [1, 2].  Ratios are returned so callers can see
    how sharp each bound is, not just that it holds.
    """
    w = _digits(word)
    if not w:
        raise ValueError("word must be non-empty")
    if not 1 <= k <= len(w):
        raise ValueError(f"position {k} outside word of length {len(w)}")
    q_full = continuants(w).q
    q_del = continuants(w[: k - 1] + w[k:]).q
    a_k = w[k - 1]
    splits = []
    for i in range(1, len(w)):
        qb = continuants(w[:i]).q
        qc = continuants(w[i:]).q
        splits.append((i, Fraction(q_full, qb * qc)))
    return ContinuantBoundsReport(
        word=w,
        k=k,
        delete_ratio=Fraction(q_full, q_del),
        delete_lo=Fraction(a_k + 1, 2),
        delete_hi=Fraction(a_k + 1),
        split_ratios=tuple(splits),
    )
