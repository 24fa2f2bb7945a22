import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecf.contfrac import (
    check_continuant_bounds,
    continuants,
    expand_rational,
    expand_real,
    fundamental_interval,
    union_measure,
)

words = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10)


# -- digit validation --------------------------------------------------------

def test_continuants_refuses_bad_digits():
    assert continuants((1, 2, 3)).q == 10
    for bad in ((0, 1), (1, -2)):
        with pytest.raises(ValueError, match="digits must be integers >= 1"):
            continuants(bad)


def test_non_integer_digits_are_refused_not_truncated():
    # a float digit, even 2.0, was once cut to its integer part
    calls = (continuants, fundamental_interval, lambda w: union_measure(w, 1, 2),
             lambda w: check_continuant_bounds(w, 1))
    for call in calls:
        for bad in ([2.7, 1.9], [1.5], [np.float64(2.0)], [Fraction(3)], ["3"],
                    [Decimal(3)], [np.bool_(True)], [np.uint64(0)], [np.int8(-1)], [False]):
            with pytest.raises(ValueError, match="digits must be integers >= 1"):
                call(bad)
        call([np.int64(2), np.int32(1), np.int8(3), np.uint64(2**64 - 1), True])
    assert continuants([np.int64(3), np.int8(7), 16]) == continuants((3, 7, 16))
    assert fundamental_interval(np.array([2, 1, 3])).word == (2, 1, 3)


# -- continuants ------------------------------------------------------------

def test_continuants_examples():
    assert continuants([1, 1, 1, 1]).q == 5  # Fibonacci
    c = continuants([2, 2])
    assert (c.p, c.q) == (2, 5)
    c = continuants([3, 7, 16])
    assert Fraction(c.p, c.q) == Fraction(113, 355)
    c = continuants([])
    assert (c.p, c.q) == (0, 1)


@settings(max_examples=300, deadline=None)
@given(words)
def test_determinant_is_unimodular(digits):
    assert abs(continuants(digits).determinant) == 1


@settings(max_examples=300, deadline=None)
@given(words)
def test_continuant_growth_floor(digits):
    # q_n >= 2^((n-1)/2)
    n = len(digits)
    assert continuants(digits).q ** 2 >= 2 ** (n - 1)


# -- expansion --------------------------------------------------------------

def test_expand_rational_examples():
    assert expand_rational(113, 355) == (3, 7, 16)
    assert expand_rational(0, 1) == ()
    assert expand_rational(1, 2) == (2,)
    with pytest.raises(ValueError):
        expand_rational(1, 0)
    with pytest.raises(ValueError):
        expand_rational(3, 2)


def test_expand_rational_canonical_no_trailing_one():
    # 2/3 = [1, 2] canonically, never [1, 1, 1]
    assert expand_rational(2, 3) == (1, 2)
    for d in range(2, 200):
        for n in range(1, d):
            w = expand_rational(n, d)
            if len(w) > 1:
                assert w[-1] >= 2, (n, d)


def test_expand_rational_round_trip_exhaustive():
    for d in range(1, 2001):
        for n in range(0, d):
            c = continuants(expand_rational(n, d))
            assert c.p * d == c.q * n, (n, d)


def test_expand_rational_truncation():
    # golden-ratio convergent: all-ones word longer than the cap
    c = continuants([1] * 30)
    w = expand_rational(c.p, c.q, max_len=10)
    assert w == (1,) * 10


def test_expand_real_exact_mode():
    assert expand_real(Fraction(113, 355)) == (3, 7, 16)
    assert expand_real(Fraction(1, 2)) == (2,)
    assert expand_real(Fraction(0)) == ()
    with pytest.raises(ValueError):
        expand_real(Fraction(3, 2))


def test_expand_real_golden_ratio_certified():
    # (sqrt(5)-1)/2 floored to 128 bits certifies a long run of ones
    P = 128
    scaled = math.isqrt(5 * (1 << (2 * P)))  # floor(sqrt(5) * 2^P)
    x = Fraction(scaled - (1 << P), 1 << (P + 1))
    w = expand_real(x, precision_bits=P, max_len=200)
    assert len(w) >= 80
    assert set(w) == {1}


def test_expand_real_certifies_only_common_prefix():
    # the ball around a floor-dyadic of 113/355 straddles the exact value,
    # so the certified digits are a (strict) prefix of [3, 7, 16]
    P = 64
    x = Fraction((113 << P) // 355, 1 << P)
    w = expand_real(x, precision_bits=P)
    assert w == (3, 7, 16)[: len(w)]
    assert len(w) >= 2
    # every real in [x, x + 2^-P] starts with the certified digits
    for probe in (x, x + Fraction(1, 1 << (P + 1)), x + Fraction(1, 1 << P)):
        full = expand_real(probe, max_len=len(w) + 2)
        assert full[: len(w)] == w


def test_expand_real_interior_dyadic_certifies_fully():
    # an interior point of I([3,7,16]) certifies all three digits
    mid = (Fraction(113, 355) + Fraction(120, 377)) / 2
    P = 64
    x = Fraction((mid.numerator << P) // mid.denominator, 1 << P)
    w = expand_real(x, precision_bits=P)
    assert w[:3] == (3, 7, 16)


def _in_interval(iv, y):
    above = iv.lo <= y if iv.closed_left else iv.lo < y
    below = y <= iv.hi if iv.closed_right else y < iv.hi
    return above and below


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=400))
def test_expand_real_is_the_longest_certified_prefix(data, P, max_len):
    # oracle without Euclid: fundamental intervals, and the next digit of x
    # as floor of the tail t solving x = (p t + p')/(q t + q')
    top = 1 << P
    d = data.draw(st.integers(min_value=1, max_value=10 ** 6))
    v = data.draw(st.one_of(st.integers(0, top - 1), st.sampled_from([0, top - 1]),
                            st.integers(0, d - 1).map(lambda n: (n << P) // d)))
    x, x_hi = Fraction(v, top), Fraction(v + 1, top)
    w = expand_real(x, precision_bits=P, max_len=max_len)
    assert len(w) <= max_len
    if len(w):  # the empty word stands for all of [0, 1], x_hi = 1 included
        iv = fundamental_interval(w)
        assert _in_interval(iv, x) and _in_interval(iv, x_hi)
    c = continuants(w)
    if len(w) == max_len or x * c.q == c.p:
        return
    a = math.floor(Fraction(c.p_prev - c.q_prev * x, c.q * x - c.p))
    child = fundamental_interval(w + (a,))
    assert _in_interval(child, x)
    assert not _in_interval(child, x_hi)


# -- fundamental intervals --------------------------------------------------

def test_fundamental_interval_examples():
    i1 = fundamental_interval([1])
    assert (i1.lo, i1.hi) == (Fraction(1, 2), Fraction(1))
    assert i1.length == Fraction(1, 2)
    assert i1.closed_right and not i1.closed_left  # odd level

    i2 = fundamental_interval([1, 1])
    assert (i2.lo, i2.hi) == (Fraction(1, 2), Fraction(2, 3))
    assert i2.closed_left and not i2.closed_right  # even level

    i3 = fundamental_interval([2, 1, 3])
    assert i3.length == Fraction(1, 154)


def test_fundamental_interval_root():
    root = fundamental_interval([])
    assert (root.lo, root.hi) == (Fraction(0), Fraction(1))


@settings(max_examples=300, deadline=None)
@given(words)
def test_interval_length_identity(digits):
    c = continuants(digits)
    iv = fundamental_interval(digits)
    assert iv.length == Fraction(1, c.q * (c.q + c.q_prev))
    # q^2 |I| in [1/2, 1] exactly
    assert Fraction(1, 2) <= c.q * c.q * iv.length <= 1


@settings(max_examples=200, deadline=None)
@given(words)
def test_closed_endpoint_is_word_value(digits):
    c = continuants(digits)
    iv = fundamental_interval(digits)
    attained = iv.lo if iv.closed_left else iv.hi
    assert attained == Fraction(c.p, c.q)


# -- union measures ---------------------------------------------------------

def test_union_measure_examples():
    assert union_measure((), 1, 1) == Fraction(1, 2)
    assert union_measure((), 2, 3) == Fraction(1, 4)
    assert Fraction(1, 6) + Fraction(1, 12) == Fraction(1, 4)
    total = sum(fundamental_interval([1, j]).length for j in range(1, 6))
    assert union_measure((1,), 1, 5) == total
    with pytest.raises(ValueError):
        union_measure((), 3, 2)


@settings(max_examples=200, deadline=None)
@given(words, st.integers(min_value=1, max_value=30))
def test_union_measure_is_sum_of_members(digits, b):
    prefix = tuple(digits)
    total = sum(fundamental_interval(tuple(digits) + (j,)).length
                for j in range(1, b + 1))
    assert union_measure(prefix, 1, b) == total


@settings(max_examples=200, deadline=None)
@given(words, st.integers(min_value=1, max_value=100))
def test_union_measure_partition_gap(digits, b):
    # |I(a)| - union(a, 1, b) = 1/(q ((b+1) q + q')) exactly
    c = continuants(digits)
    gap = fundamental_interval(digits).length - union_measure(tuple(digits), 1, b)
    assert gap == Fraction(1, c.q * ((b + 1) * c.q + c.q_prev))


# -- continuant inequality suite ---------------------------------------------

def test_continuant_bounds_examples():
    rep = check_continuant_bounds((1, 1, 1, 1), 2)
    assert rep.delete_ratio == Fraction(5, 3)
    assert rep.ok
    rep = check_continuant_bounds((5,), 1)
    assert rep.delete_ratio == Fraction(5, 1)
    assert rep.ok
    # deleting the first, a middle and the last digit of 113/355 = [3, 7, 16]
    for k, rest in ((1, (7, 16)), (2, (3, 16)), (3, (3, 7))):
        rep = check_continuant_bounds((3, 7, 16), k)
        assert rep.word == (3, 7, 16)
        assert rep.delete_ratio == Fraction(355, continuants(rest).q)
    for k in (0, 4):
        with pytest.raises(ValueError, match="position"):
            check_continuant_bounds((3, 7, 16), k)


@settings(max_examples=400, deadline=None)
@given(words, st.data())
def test_continuant_bounds_random(digits, data):
    k = data.draw(st.integers(min_value=1, max_value=len(digits)))
    rep = check_continuant_bounds(tuple(digits), k)
    assert rep.ok
    a_k = digits[k - 1]
    assert Fraction(a_k + 1, 2) <= rep.delete_ratio <= a_k + 1
    # every split a = b c satisfies q(b) q(c) <= q(a) <= 2 q(b) q(c)
    q = continuants(digits).q
    for cut in range(len(digits) + 1):
        qb = continuants(digits[:cut]).q
        qc = continuants(digits[cut:]).q
        assert qb * qc <= q <= 2 * qb * qc
