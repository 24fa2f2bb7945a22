"""Bounded-alphabet pressure sums and the dimensional numbers they define.

The central object is the partition sum

    sum over words a in {1..M}^n of  B^(-n f_ell(s)) * q_n(a)^(-2s),

whose root in s (sum = 1) is the dimensional number t_B^(ell)(M, n).
Two evaluators are provided: exact enumeration (guarded; its word list
`word_continuants` also gives the E_B sub-block masses in `cantor`), and
a collocation scheme for the identity

    sum over words of q_n^(-2s)  =  g_n(0),
    g_0 = 1,   g_k(x) = sum_{a=1}^{M} (a + x)^(-2s) g_{k-1}(1/(a + x)),

which evaluates the same quantity without touching the M^n words.  The
iterates g_k are analytic on [0, 1], so Chebyshev-Lobatto interpolation
converges geometrically and ~60 nodes reach full double precision.  The
step g_{k-1} -> g_k on node values is one matrix, built from the
interpolant's Chebyshev coefficients and the digit sums of the
Chebyshev polynomials at 1/(a + x), in O(M * nodes) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    EnumerationGuardError,
    OutOfRangeError,
    UndefinedExponentError,
)
from .contfrac import continuants

ENUMERATION_GUARD = 10_000_000
# Largest M and n a PressureProblem admits: a root of `dimensional_number`
# takes about 10 solves at the default tolerance, and each builds a transfer
# matrix of M digits and applies it n times.  At the cap one matrix takes
# about 0.2 s with a 23 MB tracemalloc peak, and `pressure-dim --M 10000
# --n 10000` about 3 s in all (2-vCPU host).
PROBLEM_CAP = 10_000
# "auto" enumerates up to this many words and collocates above, near the
# crossover: per solve at s = 0.65 (best of 9, 2-vCPU host) enumeration took
# 0.31 against 0.34 ms at 3^9 words, 0.77 against 0.51 ms at 2^15, 0.66
# against 0.38 ms at 6^6 and 2.5 against 0.48 ms at 20^4.  The two logs
# differed by at most 1.8e-15 on 18 problems: M^n in {2^10, 2^14, 3^10, 6^6,
# 20^4, 4^9}, s in {0.55, 0.7, 0.9}.
_AUTO_ENUMERATION_CAP = 30_000
_NODES = 60

S_FLOOR = 0.500001
S_CEIL = 0.999999
# Regula falsi steps `dimensional_number` takes before its bisection replay.
_ILLINOIS_STEPS = 12

# Case thresholds for the growth classifier: estimated B below 1.01 is
# treated as B = 1, estimated b above 1.05 as B = infinity.  Windows must
# reach a few hundred for the surrogates to settle under these cutoffs.
B_ONE_THRESHOLD = 1.01
B_INF_THRESHOLD = 1.05


def f_ell(ell: int, s):
    """The exponent recursion f_1(s) = s, f_l = s f_{l-1}/(1 - s + f_{l-1}).

    Works verbatim on floats, Fractions, and mpmath floats; exactness of
    the input is preserved (f_3(1/2) = 1/6 as a Fraction).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0 < s < 1:
        raise OutOfRangeError(f"f_ell needs 0 < s < 1, got {s}")
    f = s
    for _ in range(ell - 1):
        f = s * f / (1 - s + f)
    return f


@dataclass(frozen=True)
class PressureProblem:
    """Alphabet {1..M}, word depth n, exponent index ell, scale base B."""

    ell: int
    B: float
    M: int
    n: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if not 1 < self.B < math.inf:
            raise ValueError(f"B must be finite and exceed 1, got {self.B}")
        _check_words(self.M, self.n)


def _check_words(M: int, n: int) -> None:
    """Refuse an alphabet bound M or word depth n no problem admits."""
    if M < 1:
        raise ValueError(f"alphabet bound M must be >= 1, got {M}")
    if n < 1:
        raise ValueError(f"word depth n must be >= 1, got {n}")
    if max(M, n) > PROBLEM_CAP:
        raise OutOfRangeError(f"M = {M} and n = {n} must both be at most {PROBLEM_CAP}")


def word_continuants(M: int, n: int) -> np.ndarray:
    """q_n of every word in {1..M}^n as int64, in lexicographic order (the
    first digit most significant), built by prepending each digit d to each
    word w: q(d w) = d q(w) + q(w without its first digit).
    """
    # M = 1 counts as 2: q <= 2^n for it, so the guard also keeps q in int64
    if max(M, 2) ** n > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"{{1..{M}}}^{n} is beyond the enumeration guard {ENUMERATION_GUARD}"
        )
    digits = np.arange(1, M + 1, dtype=np.int64)
    q = digits.copy()
    q_prev = np.ones(M, dtype=np.int64)
    for _ in range(n - 1):
        new_q = (digits[:, None] * q[None, :] + q_prev[None, :]).ravel()
        q_prev = np.tile(q, M)
        q = new_q
    return q


def log_sum_exp(logs: np.ndarray) -> float:
    """log of sum exp(logs), shifted by the peak so no term can underflow."""
    peak = logs.max()
    return float(peak + np.log(np.exp(logs - peak).sum()))


def log_moment_enumerate(M: int, n: int, s: float) -> float:
    """log of sum over words in {1..M}^n of q_n^(-2s), by exact enumeration."""
    if M == 1:
        q = continuants((1,) * n).q
        return -2.0 * s * math.log(q)
    return log_sum_exp(-2.0 * s * np.log(word_continuants(M, n).astype(np.float64)))


def _lobatto_nodes(k: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes x_j = (1 - cos(pi j / k)) / 2 on [0, 1], j = 0..k."""
    return (1 - np.cos(np.pi * np.arange(k + 1) / k)) / 2


def _chebyshev_coefficients(k: int) -> np.ndarray:
    """The DCT-I matrix C: for values v at the k + 1 Lobatto nodes, C v holds
    the coefficients c of their interpolant sum_m c_m T_m(2x - 1).

    At node j, 2 x_j - 1 = -cos(pi j / k), so T_m there is (-1)^m cos(pi m j / k).
    """
    j = np.arange(k + 1)
    C = np.cos(np.pi * (np.outer(j, j) % (2 * k)) / k)
    C[1::2] *= -1
    C *= 2.0 / k
    C[:, [0, k]] /= 2
    C[[0, k], :] /= 2
    return C


def _transfer_matrix(M: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix T with (T v)_i = sum_a (a + x_i)^(-2s) * interp(v)(1/(a + x_i)).

    T = E C, where C maps node values to Chebyshev coefficients and
    E[i, m] = sum_a (a + x_i)^(-2s) T_m(2 / (a + x_i) - 1).  The argument of
    T_m lies in [-1, 1], so the three-term recurrence builds the weighted
    T_m on one (nodes+1, M) array, one degree at a time.
    """
    x = _lobatto_nodes(_NODES)
    base = x[:, None] + np.arange(1, M + 1, dtype=np.float64)[None, :]
    t = 2.0 / base - 1.0
    u_prev = base ** (-2.0 * s)
    u = u_prev * t
    E = np.empty((_NODES + 1, _NODES + 1))
    E[:, 0] = u_prev.sum(axis=1)
    E[:, 1] = u.sum(axis=1)
    t *= 2.0
    for m in range(2, _NODES + 1):
        u_prev, u = u, t * u - u_prev
        E[:, m] = u.sum(axis=1)
    return E @ _chebyshev_coefficients(_NODES), x


def log_moment_collocate(M: int, n: int, s: float) -> float:
    """log of sum over words in {1..M}^n of q_n^(-2s), without enumeration.

    Applies the digit-transfer recursion to polynomial interpolants of the
    iterates; the value at 0 after n steps is exactly the moment sum, up
    to the (geometrically small) interpolation error.
    """
    if M == 1:
        return log_moment_enumerate(1, n, s)
    T, x = _transfer_matrix(M, s)
    v = np.ones(_NODES + 1)
    shift = 0.0
    for _ in range(n):
        v = T @ v
        peak = v.max()
        v /= peak
        shift += math.log(peak)
    # x[0] = 0, so the value at 0 is the first component
    return shift + math.log(v[0])


def partition_sum(problem: PressureProblem, s: float, method: str = "auto") -> float:
    """log of the weighted word sum: -n f_ell(s) log B + log sum q_n^(-2s).

    `method`: "enumerate" walks the words exactly (guarded at 10^7),
    "collocate" uses the interpolation evaluator, "auto" picks whichever
    is cheap and exact enough for the problem size.
    """
    if not 0 < s < 1:
        raise OutOfRangeError(f"partition_sum needs s in (0, 1), got {s}")
    if method == "auto":
        method = "enumerate" if problem.M ** problem.n <= _AUTO_ENUMERATION_CAP else "collocate"
    if method == "enumerate":
        log_moment = log_moment_enumerate(problem.M, problem.n, s)
    elif method == "collocate":
        log_moment = log_moment_collocate(problem.M, problem.n, s)
    else:
        raise ValueError(f"unknown method {method!r}")
    f = f_ell(problem.ell, s)
    return -problem.n * f * math.log(problem.B) + log_moment


def dimensional_number(problem: PressureProblem, tol: float = 1e-9,
                       method: str = "auto") -> float:
    """The s in (1/2, 1) where the partition sum crosses 1.

    The value is the midpoint of the bracket that bisecting [S_FLOOR, S_CEIL]
    leaves once it is no wider than `tol` (or once its ends are adjacent
    floats), reached in two phases:
      1. An Illinois search (regula falsi that halves the value kept at the
         end not replaced; Dowell & Jarratt, BIT 11 (1971)) narrows a sign
         bracket (a, b) with log-sum(a) >= 0 > log-sum(b), from the two end
         values, for at most 12 steps.  It runs only when log-sum(S_CEIL) < 0.
      2. The bisection then visits its midpoints in order.  A midpoint at or
         below a goes to the lower end and one at or above b to the upper
         end without a solve; only one inside (a, b) is evaluated.  (Later
         midpoints lie inside (lo, hi), so moving a or b to an evaluated
         midpoint would change no branch.)
    The bisection's result depends only on the signs at its midpoints, so
    the second phase returns the double plain bisection would, provided the
    log-sum decreases in s (f_ell increases, every q_n^(-2s) decreases).  The
    computed sum carries noise near 1e-14 against a slope of order 1, so a
    skipped midpoint would have to lie within about 1e-14 of the root for
    its computed sign to differ from the one monotonicity gives it.

    Conventions at the bracket ends:
      - M = 1: the single-word sum stays below 1 for every s > 0; the
        infimum convention returns 0.
      - sum < 1 already at the floor S_FLOOR (large B): the crossing sits
        below the relevant range (1/2, 1), and the floor itself is returned
        as the clamped value.
      - sum > 1 still at the ceiling: no root in range; bracket error
        carrying both end values.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if problem.M == 1:
        return 0.0
    lo, hi = S_FLOOR, S_CEIL
    g_lo = partition_sum(problem, lo, method)
    if g_lo < 0:
        return lo
    g_hi = partition_sum(problem, hi, method)
    if g_hi > 0:
        raise BracketError(
            f"partition sum stays above 1 on [{lo}, {hi}]: "
            f"log-sum({lo}) = {g_lo:.6g}, log-sum({hi}) = {g_hi:.6g}"
        )
    a, g_a, b, g_b = lo, g_lo, hi, g_hi
    kept = None  # the end the last step kept, "a" or "b"
    # (a, b) is a sign bracket only if log-sum(S_CEIL) < 0, not at an exact
    # zero; without a search no midpoint (all below S_CEIL) reaches b
    for _ in range(_ILLINOIS_STEPS if g_hi < 0 else 0):
        if b - a <= tol:
            break
        x = b - g_b * (b - a) / (g_b - g_a)
        if not a < x < b:
            break  # also a NaN
        g_x = partition_sum(problem, x, method)
        if g_x >= 0:
            a, g_a = x, g_x
            if kept == "b":
                g_b /= 2
            kept = "b"
        else:
            b, g_b = x, g_x
            if kept == "a":
                g_a /= 2
            kept = "a"
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break  # (lo, hi) are adjacent floats: no tolerance can go finer
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        elif partition_sum(problem, mid, method) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class GrowthExponents:
    """Window minima standing in for liminf log phi(n)/n and log log phi(n)/n."""

    logB: float
    logb: float
    skipped: tuple[int, ...] = ()


def classify_growth(phi: Callable[[int], float], window: tuple[int, int]) -> GrowthExponents:
    """Window minima of log phi(n)/n and log log phi(n)/n, clamped at 0.

    Entries with phi(n) <= 1 admit neither ratio and are skipped (and
    reported); evaluation goes through mpmath so handles may return
    values that overflow float arithmetic, but log phi(n) must be a finite
    float, which keeps log log phi(n) <= 709.78 and exp(logb) in range.
    """
    from mpmath import mp, mpf  # imported here: no other pressure route needs it

    n1, n2 = window
    if not 1 <= n1 <= n2:
        raise ValueError(f"window must satisfy 1 <= n1 <= n2, got {window}")
    ratios_B, ratios_b, skipped = [], [], []
    for n in range(n1, n2 + 1):
        val = mpf(phi(n))
        if val <= 1:
            skipped.append(n)
            continue
        lg = mp.log(val)
        if not math.isfinite(lg):
            raise OutOfRangeError(f"log phi(n) at n = {n} exceeds float range")
        ratios_B.append(float(lg) / n)
        llg = mp.log(lg)
        ratios_b.append(float(llg) / n)
    if not ratios_B:
        raise UndefinedExponentError(
            f"every phi value on [{n1}, {n2}] was <= 1; growth exponents undefined"
        )
    return GrowthExponents(
        logB=max(min(ratios_B), 0.0),
        logb=max(min(ratios_b), 0.0),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class DimensionReport:
    value: float
    case: str  # one of "B=1", "1<B<inf", "B=inf"
    exponents: GrowthExponents


def hwx_dimension(ell: int, phi: Callable[[int], float], window: tuple[int, int],
                  M: int = 20, n: int = 8, tol: float = 1e-9) -> DimensionReport:
    """Dimension of the large-prime-digit set for phi, by growth regime.

    Doubly exponential phi (estimated b above the threshold) gives
    1/(b+1); subexponential phi gives 1; in between, the dimensional
    number at the estimated B decides.  The prime-restricted and
    unrestricted sets share the value, so a single number is reported.
    ell, M and n are checked first, whichever regime the growth turns out in.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    _check_words(M, n)
    exps = classify_growth(phi, window)
    b_hat = math.exp(exps.logb)
    if b_hat >= B_INF_THRESHOLD:
        return DimensionReport(1.0 / (b_hat + 1.0), "B=inf", exps)
    try:
        B_hat = math.exp(exps.logB)
    except OverflowError:
        raise OutOfRangeError(
            f"estimated B = exp({exps.logB:.6g}) exceeds float range") from None
    if B_hat <= B_ONE_THRESHOLD:
        return DimensionReport(1.0, "B=1", exps)
    problem = PressureProblem(ell=ell, B=B_hat, M=M, n=n)
    return DimensionReport(dimensional_number(problem, tol=tol), "1<B<inf", exps)
