"""Nested Cantor constructions with prime digit blocks.

Two builders live here.  The first follows the doubly exponential
threshold c^(b^k): level k keeps the digits that are primes inside
[c^(b^k), 3 c^(b^k)], with closed-form log-domain count and gap bounds
feeding the nested-interval dimension ratio, whose exact limit is
1/(b+1).  The second is the bounded-alphabet set E_B: runs of digits
at most M interrupted by scheduled runs of ell prime digits drawn from
geometric windows, carrying a mass distribution mu defined block by
block.  All c^(b^k)-scale arithmetic stays in log domain; the first
construction lists no words (a box-counting cover needs only each level's
word count and its least-prime cylinder).  The second takes its sub-block
masses from the word enumeration of `pressure` and builds its tree exactly
in plain ints, one depth at a time as parallel columns with no object per
word: continuants, and each endpoint a coprime (numerator, denominator)
pair read off them, computed once and read by the gap check and the output.
It keeps no word: every node takes every digit of its position, so a
level's words are the product of the digit sets in node order, and are
generated where they print.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

# pressure and primes are the package's lazy modules, run on first use, and
# numpy is imported where it is used, so box-dim --covers loads none of them
from . import pressure, primes
from .errors import (
    ConstructionInfeasibleError,
    EnumerationGuardError,
    OutOfRangeError,
)

if TYPE_CHECKING:
    import numpy as np

    from .primes import PrimeSieve

# The explicit prime-count bound x/(2+log x) < pi(x) only starts at 55.
ROSSER_FLOOR = 55
_NODE_GUARD = 100_000


# ---------------------------------------------------------------------------
# doubly exponential construction


@dataclass(frozen=True)
class LuczakParams:
    b: float
    c: float

    def __post_init__(self):
        if not self.b > 1:
            raise ValueError(f"b must exceed 1, got {self.b}")
        if not self.c > 1:
            raise ValueError(f"c must exceed 1, got {self.c}")


@dataclass(frozen=True)
class CantorLevel:
    """One level of the nested construction, in log domain.

    log_m bounds the child count from below, log_eps the gap between
    same-level intervals; the count bound is only backed by the explicit
    prime-count inequality once c^(b^k) >= 55 (rosser_ok).  When the
    prime window fits inside the sieve, its integer ends, its true prime
    count and its least prime ride along.
    """

    k: int
    log_m: float
    log_eps: float
    rosser_ok: bool
    block: tuple[int, int] | None = None
    true_count: int | None = None
    least_prime: int | None = None


def luczak_levels(params: LuczakParams, k_max: int,
                  sv: PrimeSieve | None = None) -> list[CantorLevel]:
    """Levels 1..k_max of the prime Cantor construction for phi(n) = c^(b^n).

    Per level: m_k = c^(b^k) / (2 b^k log c) and
    eps_k = 36^-(k+1) * c^(-2 (b^(k+1) - b)/(b - 1)), both as logs.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    b, c = params.b, params.c
    logc = math.log(c)
    levels: list[CantorLevel] = []
    for k in range(1, k_max + 1):
        try:
            log_eps = -(k + 1) * math.log(36.0) - 2.0 * (b ** (k + 1) - b) / (b - 1.0) * logc
        except OverflowError:
            log_eps = -math.inf
        if not math.isfinite(log_eps):
            raise OutOfRangeError(
                f"level {k} leaves float range: b^(k+1) log c with b = {b}, c = {c};"
                " lower k_max")
        logx = b ** k * logc
        log_m = logx - math.log(2.0 * logx)
        rosser_ok = logx >= math.log(ROSSER_FLOOR)
        block = true_count = least_prime = None
        # past log limit, c^(b^k) may overflow, and its block passes the table
        if sv is not None and logx <= math.log(sv.limit):
            x = c ** (b ** k)
            with contextlib.suppress(OutOfRangeError):  # the block passes the table
                ps = primes.primes_in(x, 3.0 * x, sv)
                # [x, 3x] holds a prime for every x > 1 (Bertrand's postulate)
                block = (math.ceil(x), math.floor(3.0 * x))
                true_count, least_prime = int(ps.size), int(ps[0])
        levels.append(CantorLevel(k=k, log_m=log_m, log_eps=log_eps, rosser_ok=rosser_ok,
                                  block=block, true_count=true_count, least_prime=least_prime))
    return levels


def falconer_lower_bound(levels: Sequence[CantorLevel]) -> dict[int, float]:
    """{k: ratio_k} with ratio_k = log(m_1 ... m_{k-1}) / (-log(m_k eps_k))
    for k = 2..k_max, over the levels 1..k_max that `luczak_levels` returned.

    The nested-interval dimension bound; the sequence drifts toward
    1/(b+1) as the doubly exponential terms swamp the polynomial ones.
    """
    if len(levels) < 2:
        raise ValueError(f"need at least 2 levels, got {len(levels)}")
    ratios = {}
    acc = 0.0
    for k in range(2, len(levels) + 1):
        acc += levels[k - 2].log_m
        ratios[k] = acc / -(levels[k - 1].log_m + levels[k - 1].log_eps)
    return ratios


def falconer_limit(b) -> Fraction:
    """Exact limit 1/(b+1) of the dimension ratio.  The c-terms cancel,
    leaving the coefficient of b^k log c upstairs, 1/(b-1) from the sum of
    b^j over j < k, over the one downstairs, 2b/(b-1) - 1 = (b+1)/(b-1)
    from eps_k minus m_k."""
    bf = Fraction(b)
    if bf <= 1:
        raise ValueError(f"b must exceed 1, got {b}")
    return 1 / (bf + 1)


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    residual: float
    levels: int


def box_dimension_estimate(covers: Sequence[tuple[int, float]]) -> BoxDimEstimate:
    """Least-squares slope of log(count) against -log(largest) over (count, largest) pairs.

    The line is fitted exactly to the doubles x = -log(largest) and
    y = log(count): the slope Sxy / Sxx and the mean squared residual
    (Syy - Sxy^2 / Sxx) / n are `Fraction`s, each rounded once to a double,
    and the residual is that mean's square root.  So the bits depend only on
    libm's log, not on a BLAS or LAPACK kernel, nor on the order of the levels.
    """
    xs, ys = [], []
    for count, largest in covers:
        if not (count >= 1 and 0 < largest < math.inf):
            raise ValueError("each cover level needs a count >= 1 and a finite largest > 0")
        xs.append(Fraction(-math.log(largest)))
        ys.append(Fraction(math.log(count)))
    if len(set(xs)) < 2:
        raise ValueError("need covers at two or more distinct scales for a slope")
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    syy = sum((y - y_mean) ** 2 for y in ys)
    mean_square = (syy - sxy * sxy / sxx) / n
    return BoxDimEstimate(slope=float(sxy / sxx), residual=math.sqrt(float(mean_square)),
                          levels=n)


# ---------------------------------------------------------------------------
# the bounded-alphabet set with scheduled prime runs


def alpha_values(B: float, ell: int, s: float) -> tuple[float, ...]:
    """alpha_j = B^(s^(ell-1-j) (2s-1) (1-s)^j / (s^ell - (1-s)^ell)), j <= ell-2."""
    if ell < 2:
        raise ValueError(f"alphas need ell >= 2, got {ell}")
    if not 0.5 < s < 1:
        raise OutOfRangeError(f"s must lie in (1/2, 1), got {s}")
    if ell == 2:
        # s^2 - (1-s)^2 = 2s - 1, so the lone exponent collapses to s
        return (B ** s,)
    den = s ** ell - (1 - s) ** ell
    return tuple(
        B ** (s ** (ell - 1 - j) * (2 * s - 1) * (1 - s) ** j / den)
        for j in range(ell - 1)
    )


def alpha_identity_errors(B: float, ell: int, s: float) -> tuple[float, float, float]:
    """Relative errors of the product identities tying the alphas to B.

    Returns (worst chain-identity error over j <= ell-3,
             error of 1/(a_0...a_{l-2}) = (1/(B a_1...a_{l-2}))^s,
             margin of B a_0^s / B^(2s) - 1, which must be >= 0).
    """
    al = alpha_values(B, ell, s)
    chain_err = 0.0
    for j in range(ell - 2):
        lhs = 1.0 / math.prod(al[: j + 1])
        inner = al[0] * math.prod(al[1: j + 1]) ** 2 * al[j + 1]
        rhs = (1.0 / inner) ** s
        chain_err = max(chain_err, abs(lhs / rhs - 1.0))
    lhs = 1.0 / math.prod(al)
    rhs = (1.0 / (B * math.prod(al[1:]))) ** s
    full_err = abs(lhs / rhs - 1.0)
    margin = B * al[0] ** s / B ** (2 * s) - 1.0
    return chain_err, full_err, margin


def prime_block_constant(gamma: float, n: int, sv: PrimeSieve) -> float:
    """c_n with #(P in [gamma^n, 2 gamma^n]) = gamma^n / (c_n * n * log gamma).

    Tends to 1; the constructions want it below 2 (enough primes in every
    window).  With gamma > 1 and n >= 1 the window starts past 1, so by
    Bertrand's postulate it holds a prime and the count is never 0.
    """
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = gamma ** n
    return lo / (primes.primes_in(lo, 2 * lo, sv).size * n * math.log(gamma))


@dataclass(frozen=True)
class EBParams:
    """Parameters of the bounded-alphabet construction with prime runs.

    The digit positions n_j, n_j + 1, ..., n_j + ell - 1 carry primes from
    geometric windows (base alpha_i for slot i < ell - 1, and
    B/(alpha_0 ... alpha_{ell-2}) for the last slot); everything else is a
    digit in {1..M}.  `constraints` records each feasibility inequality as
    (name, status, detail) with status "ok" or "symbolic" — the latter for
    bounds the miniature scale cannot honor, kept for the record.
    """

    B: float
    ell: int
    s: float
    delta: float
    M: int
    N: int
    alphas: tuple[float, ...]
    last_base: float
    l_schedule: tuple[int, ...]
    n_schedule: tuple[int, ...]
    t_value: float
    constraints: tuple[tuple[str, str, str], ...]

    def position_roles(self, count: int) -> tuple[list[tuple[str, int, int]], list[bool]]:
        """Roles of positions 1..count, from one walk over l_schedule.

        Run j holds l_j N digits ('digit', -1, -1), the last of every N
        completing a sub-block; the ell prime slots ('prime', i, j + 1) at
        n_(j+1) + i follow it.  Returns the roles and, per position,
        whether it completes a sub-block.
        """
        roles, completes = [], []
        for j, lj in enumerate(self.l_schedule):
            if len(roles) >= count:
                break
            roles += [("digit", -1, -1)] * (lj * self.N)
            completes += ([False] * (self.N - 1) + [True]) * lj
            roles += [("prime", i, j + 1) for i in range(self.ell)]
            completes += [False] * self.ell
        return roles[:count], completes[:count]

    @property
    def bases(self) -> tuple[float, ...]:
        """Prime-window base per slot: alpha_0 .. alpha_(ell-2), then last_base."""
        return (*self.alphas, self.last_base)

    def block_window(self, i: int, j: int) -> tuple[float, float]:
        lo = self.bases[i] ** self.n_schedule[j]
        return lo, 2.0 * lo


def _prime_block(params: EBParams, i: int, j: int, sv: PrimeSieve) -> tuple[int, ...]:
    # [x, 2x] with x = base^n > 1 holds a prime by Bertrand's postulate
    lo, hi = params.block_window(i, j)
    try:
        ps = primes.primes_in(lo, hi, sv)
    except OutOfRangeError:
        raise ConstructionInfeasibleError(
            f"prime window [{lo:.4g}, {hi:.4g}] for slot (i={i}, j={j}) "
            f"is beyond the sieve limit {sv.limit}"
        ) from None
    return tuple(int(p) for p in ps)


def _first_round_constant(base: float, i: int, n: int, sv: PrimeSieve) -> float:
    """c_n(base) of slot i's first-round window, which must be dense."""
    try:
        c = prime_block_constant(base, n, sv)
    except OutOfRangeError:
        raise ConstructionInfeasibleError(
            f"first-round window for slot i={i} beyond sieve") from None
    if c >= 2:
        raise ConstructionInfeasibleError(
            f"window count constant >= 2 for slot i={i} at n={n}")
    return c


def make_eb_params(B: float, ell: int, s: float, delta: float, sv: PrimeSieve,
                   M: int | None = None, N: int | None = None) -> EBParams:
    """Assemble and vet the construction parameters.

    Picks the smallest (M, N) — smallest N for the smallest workable M —
    such that the word enumeration stays under guard, s sits strictly
    below the dimensional number t_B(M, N), the first round of prime
    windows holds primes inside the sieve, and those windows are dense
    (count constant below 2).  The asymptotic lower bounds on N from the
    source construction are evaluated and recorded as symbolic when the
    desk-scale instance cannot meet them.
    """
    if ell < 2:
        raise ValueError(f"the construction needs ell >= 2, got {ell}")
    if not (0 < delta and 0.5 < s - 2 * delta and s < 1):
        raise ValueError(f"need 1/2 < s - 2*delta < s < 1, got s={s}, delta={delta}")
    if not B > 1:
        raise ValueError(f"B must be finite and exceed 1, got {B}")
    alphas = alpha_values(B, ell, s)
    last_base = B / math.prod(alphas)
    if not last_base > 1:
        raise ConstructionInfeasibleError(
            f"last prime-window base B/(alpha_0...alpha_(ell-2)) = {last_base:.4g} <= 1"
        )
    bases = (*alphas, last_base)
    M_range = [M] if M is not None else list(range(2, 9))
    N_range = [N] if N is not None else list(range(1, 15))
    # the last candidate examined names the failure; the guard only when none was
    failure = None
    for M_ in M_range:
        for N_ in N_range:
            if M_ ** N_ > pressure.ENUMERATION_GUARD:
                failure = failure or f"M^N = {M_}^{N_} exceeds the enumeration guard"
                break
            problem = pressure.PressureProblem(ell=ell, B=B, M=M_, n=N_)
            if pressure.partition_sum(problem, s) <= 0:
                failure = f"s = {s} not below t_B(M={M_}, N={N_})"
                continue
            n1 = N_ + 1
            try:
                constants = [_first_round_constant(base, i, n1, sv)
                             for i, base in enumerate(bases)]
            except ConstructionInfeasibleError as exc:
                failure = str(exc)
                continue
            return _finish_eb_params(B, ell, s, delta, M_, N_, alphas, last_base,
                                     constants)
    raise ConstructionInfeasibleError(f"no admissible (M, N): {failure}")


def _finish_eb_params(B, ell, s, delta, M, N, alphas, last_base, constants) -> EBParams:
    """Schedules, t_B(M, N) and the constraint record; `constants` holds the
    vetted first-round window constants c_n(base_i), one per slot."""
    l_schedule = [1]
    while len(l_schedule) < 12:
        l_schedule.append(2 * l_schedule[-1] + 1)
    n_schedule = [-(ell - 1)]
    for lj in l_schedule:
        n_schedule.append(n_schedule[-1] + ell + lj * N)
    problem = pressure.PressureProblem(ell=ell, B=B, M=M, n=N)
    t_value = pressure.dimensional_number(problem)

    constraints: list[tuple[str, str, str]] = []

    def record(name: str, holds: bool, detail: str):
        constraints.append((name, "ok" if holds else "symbolic", detail))

    record("s < t_B(M,N)", True, f"s = {s}, t = {t_value:.9f}")
    record("N > e^20", N > math.e ** 20, f"N = {N} vs {math.e ** 20:.4g}")
    record("N > 5/(s delta) + 1", N > 5 / (s * delta) + 1,
           f"N = {N} vs {5 / (s * delta) + 1:.4g}")
    record("N > 2 ell / delta", N > 2 * ell / delta, f"N = {N} vs {2 * ell / delta:.4g}")
    bound = 2 * ell * math.log(2) / (delta * math.log(alphas[0]))
    record("N > 2 ell log 2 / (delta log alpha_0)", N > bound, f"N = {N} vs {bound:.4g}")
    for i in range(ell - 1):
        lhs = (2 ** ell) * (N ** ell) * math.prod(math.log(a) for a in alphas[: i + 1])
        lhs /= math.prod(alphas[: i + 1]) ** (delta * N)
        record(f"window-density bound < 1 (i={i})", lhs < 1, f"value = {lhs:.4g}")
    chain_err, full_err, margin = alpha_identity_errors(B, ell, s)
    record("alpha chain identity", chain_err <= 1e-12, f"rel err = {chain_err:.3g}")
    record("alpha full-product identity", full_err <= 1e-12, f"rel err = {full_err:.3g}")
    record("B alpha_0^s >= B^(2s)", margin >= -1e-12, f"margin = {margin:.3g}")
    for i, c in enumerate(constants):
        record(f"c_n(base_{i}) < 2 at n1", c < 2, f"c = {c:.4g}")

    return EBParams(B=B, ell=ell, s=s, delta=delta, M=M, N=N, alphas=alphas,
                    last_base=last_base, l_schedule=tuple(l_schedule),
                    n_schedule=tuple(n_schedule), t_value=t_value,
                    constraints=tuple(constraints))


def _block_masses(M: int, N: int, alpha0: float, s: float) -> tuple[float, list[np.ndarray]]:
    """u and sigma[k][i], the mass of all completions of the k-digit prefix
    with lexicographic index i, as one float64 array per k; a sub-block b in
    {1..M}^N weighs w(b) = u^-1 (alpha_0^N q_N^2(b))^-s, which is
    q_N(b)^-2s over sum q^-2s."""
    import numpy as np

    logs = -2.0 * s * np.log(pressure.word_continuants(M, N).astype(np.float64))
    log_moment = pressure.log_sum_exp(logs)
    u = math.exp(-s * (N * math.log(alpha0)) + log_moment)
    w = np.exp(logs - log_moment)
    return u, [w.reshape(M ** k, -1).sum(axis=1) for k in range(N + 1)]


Ratio = tuple[int, int]  # (numerator, denominator), coprime, denominator > 0


@dataclass(frozen=True)
class EBLevel:
    """The words of one depth as parallel columns, node k's values at index k.

    Per word: the denominators q and q_prev of its last two convergents
    (which `gap_check` reads), its mass mu, the exact ends lo and hi of its
    hull (see `eb_prefix_tree`), each a column of numerators and one of
    denominators, and diam, the double nearest the hull's length.  Every
    node takes every digit of its position, so child j of node k of the
    level above (j counting the ascending digits) is node k w + j, w the
    digit count.  There is no column of words: they follow from the digit
    sets (`EBTree.words`).
    """

    depth: int
    q: list[int]
    q_prev: list[int]
    mu: list[float]
    diam: list[float]
    lo: tuple[list[int], list[int]]
    hi: tuple[list[int], list[int]]

    def __len__(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class EBTree:
    """The prefix tree to its depth, one `EBLevel` of columns per depth
    (levels[d-1] holds the words of depth d), with the sub-block
    normalizer u and the digits each position takes, through one position
    past the deepest level, whose digits span the deepest hulls."""

    params: EBParams
    u: float
    levels: tuple[EBLevel, ...]
    digit_sets: tuple[tuple[int, ...], ...]  # digit_sets[d-1]: the digits at depth d

    def words(self, depth: int) -> Iterator[tuple[int, ...]]:
        """The words of depth `depth` in node order: node k's word is the
        k-th of the product of the first `depth` digit sets."""
        return itertools.product(*self.digit_sets[:depth])

    def records(self) -> Iterator[tuple[int, tuple[int, ...], float, float, Ratio, Ratio]]:
        """(depth, word, mu, diam, lo, hi) per node, level by level."""
        for level in self.levels:
            for row in zip(self.words(level.depth), level.mu, level.diam,
                           zip(*level.lo), zip(*level.hi)):
                yield level.depth, *row


def eb_prefix_tree(params: EBParams, depth_limit: int, sv: PrimeSieve) -> EBTree:
    """Enumerate admissible words to depth_limit and attach their masses.

    mu of a word multiplies the weights of its completed digit sub-blocks,
    the uniform splits 1/#P of its prime positions, and the closure of its
    unfinished sub-block, which reproduces the recursive definition
    (checkpoint products, uniform prime splits, completion sums) in one
    pass.  The unfinished sub-block rides along as its length k, the same
    for every word of a depth, and per word its lexicographic index i among
    the k-digit words.  The tree is built one depth at a time, a column at
    a time.

    A word's hull is the union of the closures of the word extended by each
    digit of the next position.  Its ends are x(t) and x(v) for
    x(d) = (d p + p_prev) / (d q + q_prev), t the least digit and v the
    greatest plus one.  x moves with the sign of p q_prev - p_prev q =
    (-1)^(depth - 1): it falls in d at even depth and rises at odd depth,
    so lo is x(v) at even depth and x(t) at odd, with no comparison.
    (d p + p_prev) q - (d q + q_prev) p is that determinant negated, +-1, so
    each (numerator, denominator) pair is coprime, and the hull's length is
    (v - t) over the product of the two denominators.
    """
    if depth_limit < 1:
        raise ValueError(f"depth_limit must be >= 1, got {depth_limit}")
    if depth_limit + 1 >= params.n_schedule[-1]:
        raise OutOfRangeError(f"depth_limit {depth_limit} beyond the prepared schedule")
    M = params.M
    # one more position than the depth: the deepest nodes' hulls need it
    roles, completes = params.position_roles(depth_limit + 1)
    digit_sets = tuple(_prime_block(params, i, j, sv) if role == "prime"
                       else tuple(range(1, M + 1))
                       for role, i, j in roles)

    # every node takes every digit of its position, so the tree's size is
    # known before any level is built or any of the M^N sub-blocks weighed
    level, total = 1, 0
    for pos in range(1, depth_limit + 1):
        level *= len(digit_sets[pos - 1])
        total += level
        if total > _NODE_GUARD:
            raise EnumerationGuardError(f"tree exceeds {_NODE_GUARD} nodes at depth {pos}")
    u, sigma = _block_masses(M, params.N, params.alphas[0], params.s)

    levels: list[EBLevel] = []
    # the root's columns, then the length k of the unfinished sub-block and,
    # per word, its index i and the word's closed factors
    p, p_prev, q, q_prev = [0], [1], [1], [0]
    k, index, carried = 0, [0], [1.0]
    for pos in range(1, depth_limit + 1):
        digits, below = digit_sets[pos - 1], digit_sets[pos]
        w = len(digits)
        # a child's continuants from its parent's, whose p and q become its
        # p_prev and q_prev
        p, p_prev = ([d * x + y for x, y in zip(p, p_prev) for d in digits],
                     [x for x in p for _ in digits])
        q, q_prev = ([d * x + y for x, y in zip(q, q_prev) for d in digits],
                     [x for x in q for _ in digits])
        if roles[pos - 1][0] == "prime":
            k, index = 0, [0] * len(p)
            carried = [c / w for c in carried for _ in digits]
        elif completes[pos - 1]:
            block = sigma[-1][[i * M + d - 1 for i in index for d in digits]].tolist()
            carried = [c * b for c, b in zip((c for c in carried for _ in digits), block)]
            k, index = 0, [0] * len(p)
        else:
            k, index = k + 1, [i * M + d - 1 for i in index for d in digits]
            carried = [c for c in carried for _ in digits]
        mu = [c * x for c, x in zip(carried, sigma[k][index].tolist())]
        t, v = below[0], below[-1] + 1  # the digits at the hull's ends
        ends_t = ([t * x + y for x, y in zip(p, p_prev)],
                  [t * x + y for x, y in zip(q, q_prev)])
        ends_v = ([v * x + y for x, y in zip(p, p_prev)],
                  [v * x + y for x, y in zip(q, q_prev)])
        lo, hi = (ends_t, ends_v) if pos % 2 else (ends_v, ends_t)
        # int / int rounds correctly
        diam = [(v - t) / (a * b) for a, b in zip(ends_t[1], ends_v[1])]
        levels.append(EBLevel(pos, q, q_prev, mu, diam, lo, hi))
    return EBTree(params=params, u=u, levels=tuple(levels), digit_sets=digit_sets)


def _ascending(tree: EBTree) -> Iterator[list[int]]:
    """The node indices of each level in ascending order of their hulls,
    built from the order of the level above without a comparison.

    Every node takes every digit of its position, so the children of
    parent i fill positions i w .. i w + w - 1 of the next level, w the
    digit count.  Same-depth hulls lie in disjoint cylinders nested in
    their parents', so the parents' order carries over, and a word's
    children ascend with their digit at even depth and descend at odd
    depth (see `eb_prefix_tree`).
    """
    order = [0]  # the root
    for level, digits in zip(tree.levels, tree.digit_sets):
        w = len(digits)
        js = range(w - 1, -1, -1) if level.depth % 2 else range(w)
        order = [i * w + j for i in order for j in js]
        yield order


def _level_gaps(level: EBLevel, order: list[int], eight_m: int) -> Iterator[float]:
    """Each gap between neighbouring hulls of one level, normalized by the
    requirement diam(I_n)/(8M) of either neighbour: for the lower neighbour
    and then the upper, pair by pair up the level, so value v belongs to
    node order[(v + 1) // 2].

    Nothing is sorted: neighbours come from `_ascending`, which orders a
    level by digit parity.  Each gap lo2 - hi1 is one numerator and
    denominator of exact ints, scaled and divided once.  The values are
    computed as they are read, so no list of them is held.
    """
    # |I_n| / 8M = 1 / (8M q (q + q_prev)) per node
    scale = [eight_m * q * (q + q_prev) for q, q_prev in zip(level.q, level.q_prev)]
    (lo_num, lo_den), (hi_num, hi_den) = level.lo, level.hi
    for k1, k2 in itertools.pairwise(order):
        a, b, c, d = lo_num[k2], lo_den[k2], hi_num[k1], hi_den[k1]
        num, den = a * d - c * b, b * d
        # int / int rounds correctly, whatever common factor they share
        yield num * scale[k1] / den
        yield num * scale[k2] / den


def gap_check(tree: EBTree) -> float:
    """The least exact gap between same-depth fundamental sets, normalized
    by the requirement diam(I_n)/(8M) (see `_level_gaps`); a value >= 1
    means the bound holds everywhere.
    """
    eight_m = 8 * tree.params.M
    return min(itertools.chain.from_iterable(
        _level_gaps(level, order, eight_m)
        for level, order in zip(tree.levels, _ascending(tree))), default=math.inf)


@dataclass(frozen=True)
class HolderReport:
    exponent: float
    max_ratio: float


def holder_check(tree: EBTree) -> HolderReport:
    """max over nodes of mu(J) / diam(J)^(s(1-delta)-delta).

    A finite, depth-stable maximum is the empirical face of the mass
    bound behind the dimension estimate.
    """
    exponent = tree.params.s * (1 - tree.params.delta) - tree.params.delta
    return HolderReport(exponent=exponent, max_ratio=max(
        (mu / diam ** exponent for level in tree.levels
         for mu, diam in zip(level.mu, level.diam)), default=0.0))
