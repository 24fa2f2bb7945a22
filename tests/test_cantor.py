import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from primecf import cantor, pressure
from primecf.cantor import (
    BoxDimEstimate,
    LuczakParams,
    alpha_identity_errors,
    alpha_values,
    box_dimension_estimate,
    eb_prefix_tree,
    falconer_limit,
    falconer_lower_bound,
    gap_check,
    holder_check,
    luczak_levels,
    make_eb_params,
    prime_block_constant,
)
from primecf.cli import main
from primecf.contfrac import continuants, fundamental_interval
from primecf.errors import (
    ConstructionInfeasibleError,
    EnumerationGuardError,
    OutOfRangeError,
)
from primecf.pressure import word_continuants
from primecf.primes import PrimeSieve


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- nested prime construction ------------------------------------------------

@pytest.mark.parametrize("b,c", [(2.0, 2.0), (1.5, 3.0)])
def test_level_log_formulas_match_direct(b, c):
    levels = luczak_levels(LuczakParams(b=b, c=c), 6)
    with mp.workdps(40):
        for lv in levels:
            k = lv.k
            logx = mpf(b) ** k * mp.log(c)
            want_m = logx - mp.log(2 * logx)
            want_eps = -(k + 1) * mp.log(36) - 2 * (mpf(b) ** (k + 1) - b) / (b - 1) * mp.log(c)
            assert lv.log_m == pytest.approx(float(want_m), rel=1e-12)
            assert lv.log_eps == pytest.approx(float(want_eps), rel=1e-12)


def test_level_rosser_flags():
    # x_k = 2^(2^k): 4, 16, 256 cross the explicit-count floor at k = 3
    levels = luczak_levels(LuczakParams(b=2.0, c=2.0), 5)
    assert [lv.rosser_ok for lv in levels] == [False, False, True, True, True]


def test_level_blocks_and_counts(sieve_mid):
    levels = luczak_levels(LuczakParams(b=2.0, c=2.0), 4, sv=sieve_mid)
    assert levels[2].block == (256, 768)
    want = sum(1 for n in range(256, 769) if oracle_is_prime(n))
    assert levels[2].true_count == want == 81
    # every sieved level must hold at least m_k primes
    for lv in levels:
        if lv.true_count is not None:
            assert lv.true_count >= math.exp(lv.log_m)
    # level 4 window [2^16, 3*2^16] still fits the sieve
    assert levels[3].block == (65536, 196608)
    assert levels[3].true_count == sum(1 for n in range(65536, 196609)
                                       if oracle_is_prime(n))


@pytest.mark.parametrize("b,c,k_max", [(2.0, 2.0, 3), (2.0, 1.1, 4), (1.5, 3.0, 4),
                                       (3.0, 1.2, 3)])
def test_box_dim_covers_match_listed_words(monkeypatch, capsys, b, c, k_max):
    # oracle: list every level-k word (digit j a prime of block j, found by
    # trial division) and take the largest exact cylinder length
    blocks = []
    for k in range(1, k_max + 1):
        x = c ** (b ** k)
        blocks.append([p for p in range(math.ceil(x), math.floor(3 * x) + 1)
                       if oracle_is_prime(p)])
    want = []
    for k in range(1, k_max + 1):
        words = list(product(*blocks[:k]))
        want.append((len(words),
                     max(float(fundamental_interval(w).length) for w in words)))
    seen = []
    monkeypatch.setattr(cantor, "box_dimension_estimate",
                        lambda covers: seen.append(covers) or BoxDimEstimate(0.0, 0.0, 0))
    assert main(["box-dim", "--b", str(b), "--c", str(c), "--kmax", str(k_max),
                 "--sieve", "1000000"]) == 0
    capsys.readouterr()
    assert seen == [want]


def test_levels_without_sieve():
    levels = luczak_levels(LuczakParams(b=2.0, c=2.0), 4)
    assert all(lv.block is None and lv.true_count is None for lv in levels)


def test_level_validation():
    with pytest.raises(ValueError):
        luczak_levels(LuczakParams(b=2.0, c=2.0), 1)
    with pytest.raises(ValueError):
        LuczakParams(b=1.0, c=2.0)
    with pytest.raises(ValueError):
        LuczakParams(b=2.0, c=0.5)
    with pytest.raises(OutOfRangeError):  # b^(k+1) overflows a float near k = 1023
        luczak_levels(LuczakParams(b=2.0, c=2.0), 2000)


# -- dimension ratios -----------------------------------------------------------

def test_falconer_ratios_recompute():
    params = LuczakParams(b=2.0, c=2.0)
    levels = luczak_levels(params, 8)
    ratios = falconer_lower_bound(levels)
    assert list(ratios) == list(range(2, 9))
    acc = 0.0
    for k, ratio in ratios.items():
        acc += levels[k - 2].log_m
        want = acc / -(levels[k - 1].log_m + levels[k - 1].log_eps)
        assert ratio == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("b,c", [(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)])
def test_falconer_ratio_converges(b, c):
    levels = luczak_levels(LuczakParams(b=b, c=c), 20)
    ratios = falconer_lower_bound(levels)
    limit = float(falconer_limit(Fraction(b).limit_denominator(10)))
    assert abs(ratios[20] - limit) < 0.01
    assert abs(ratios[20] - limit) < abs(ratios[5] - limit)


def test_falconer_limit_exact():
    assert falconer_limit(2) == Fraction(1, 3)
    assert falconer_limit(3) == Fraction(1, 4)
    assert falconer_limit(Fraction(3, 2)) == Fraction(2, 5)
    for b in (2, 5, Fraction(7, 3), Fraction(11, 10)):
        assert falconer_limit(b) == 1 / (Fraction(b) + 1)
    with pytest.raises(ValueError):
        falconer_limit(1)


def test_falconer_validation():
    levels = luczak_levels(LuczakParams(b=2.0, c=2.0), 2)
    with pytest.raises(ValueError):
        falconer_lower_bound(levels[:1])
    assert list(falconer_lower_bound(levels)) == [2]


# -- box dimension ---------------------------------------------------------------

def test_box_dimension_thirds_cantor():
    covers = [(2 ** j, 3.0 ** -j) for j in range(1, 6)]
    est = box_dimension_estimate(covers)
    assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    assert est.residual < 1e-9
    assert est.levels == 5


@st.composite
def box_covers(draw):
    """2 to 8 cover levels (count, largest): distinct scales 2^-e m with
    m in [1, 1.5], so neighbouring -log(largest) lie at least
    log(4/3) apart, and counts that grow at least twofold per level."""
    exponents = sorted(draw(st.lists(st.integers(1, 60), min_size=2, max_size=8,
                                     unique=True)))
    count, covers = draw(st.integers(1, 256)), []
    for e in exponents:
        covers.append((count, math.ldexp(draw(st.floats(1.0, 1.5)), -e)))
        count *= draw(st.integers(2, 256))
    return covers


@given(box_covers())
def test_box_dimension_slope_matches_lapack(covers):
    # np.polyfit, a LAPACK least-squares solve, is an independent route
    # whose last bits depend on the BLAS kernel
    xs = [-math.log(largest) for _, largest in covers]
    ys = [math.log(count) for count, _ in covers]
    expected = np.polyfit(xs, ys, 1)[0]
    assert box_dimension_estimate(covers).slope == pytest.approx(expected, rel=1e-12)


@given(st.data())
def test_box_dimension_ignores_the_level_order(data):
    covers = data.draw(box_covers())
    est = box_dimension_estimate(covers)
    permuted = box_dimension_estimate(data.draw(st.permutations(covers)))
    assert (permuted.slope.hex(), permuted.residual.hex()) == (est.slope.hex(), est.residual.hex())


@given(box_covers().map(lambda covers: covers[:2]))
def test_box_dimension_two_levels_fit_exactly(covers):
    assert box_dimension_estimate(covers).residual == 0.0


def test_box_dimension_validation():
    with pytest.raises(ValueError):  # one level
        box_dimension_estimate([(2, 0.5)])
    with pytest.raises(ValueError):  # a zero length
        box_dimension_estimate([(1, 0.5), (2, 0.0)])
    with pytest.raises(ValueError):  # an empty level
        box_dimension_estimate([(1, 0.5), (0, 0.25)])
    with pytest.raises(ValueError):  # one scale twice: no slope to fit
        box_dimension_estimate([(2, 0.5), (2, 0.5)])
    with pytest.raises(ValueError):
        box_dimension_estimate([(2, math.nan), (1, 0.25)])
    with pytest.raises(ValueError):
        box_dimension_estimate([(2, 0.5), (1, math.inf)])


# -- window bases ----------------------------------------------------------------

@pytest.mark.parametrize("B", [2.0, 10.0, 100.0])
@pytest.mark.parametrize("s", [0.52, 0.6, 0.75])
def test_alpha_pair_case_is_exact_power(B, s):
    assert alpha_values(B, 2, s) == (B ** s,)


@pytest.mark.parametrize("ell", [3, 4, 5])
@pytest.mark.parametrize("B,s", [(2.0, 0.52), (100.0, 0.75)])
def test_alpha_product_telescopes(ell, B, s):
    # the leftover base B / prod(alphas) continues the same geometric
    # exponent family at j = ell - 1
    alphas = alpha_values(B, ell, s)
    last = B / math.prod(alphas)
    den = s ** ell - (1 - s) ** ell
    want = B ** ((2 * s - 1) * (1 - s) ** (ell - 1) / den)
    assert last == pytest.approx(want, rel=1e-12)
    assert last > 1


@pytest.mark.parametrize("B", [2.0, 10.0, 100.0])
@pytest.mark.parametrize("s", [0.52, 0.6, 0.75])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_alpha_identities_grid(B, s, ell):
    chain_err, full_err, margin = alpha_identity_errors(B, ell, s)
    assert chain_err <= 1e-12
    assert full_err <= 1e-12
    assert margin > 0


def test_alpha_validation():
    with pytest.raises(ValueError):
        alpha_values(2.0, 1, 0.6)
    with pytest.raises(OutOfRangeError):
        alpha_values(2.0, 3, 0.5)
    with pytest.raises(OutOfRangeError):
        alpha_values(2.0, 3, 1.0)


def test_prime_block_constant_hand_window(sieve_small):
    lo = 1.5 ** 10
    count = sum(1 for n in range(math.ceil(lo), math.floor(2 * lo) + 1)
                if oracle_is_prime(n))
    c = prime_block_constant(1.5, 10, sieve_small)
    assert c == pytest.approx(lo / (count * 10 * math.log(1.5)), rel=1e-12)
    assert 0.5 < c < 2


def test_prime_block_constant_validation(sieve_small):
    with pytest.raises(OutOfRangeError):
        prime_block_constant(10.0, 6, sieve_small)
    with pytest.raises(ValueError):
        prime_block_constant(1.0, 3, sieve_small)
    # gamma^n > 1 is what keeps the window non-empty (Bertrand's postulate)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            prime_block_constant(1.5, n, sieve_small)


# -- scheduled construction -------------------------------------------------------

@pytest.fixture(scope="module")
def eb(sieve_mid):
    params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=3)
    tree = eb_prefix_tree(params, 5, sieve_mid)
    return params, tree


def test_construction_parameters(eb):
    params, _ = eb
    assert (params.M, params.N) == (3, 1)
    assert params.alphas == (4.0 ** 0.53,)
    assert params.last_base == pytest.approx(4.0 ** 0.47, rel=1e-12)
    assert params.t_value == pytest.approx(0.6139828, abs=1e-6)
    assert params.s < params.t_value
    ls, ns = params.l_schedule, params.n_schedule
    assert ls[0] == 1
    assert all(b == 2 * a + 1 for a, b in zip(ls, ls[1:]))
    assert ns[0] == -(params.ell - 1)
    assert ns[1] == params.N + 1
    assert all(ns[j + 1] - ns[j] == params.ell + ls[j] * params.N
               for j in range(len(ls)))


def test_construction_roles(eb, sieve_mid):
    params, _ = eb
    # n_schedule starts (-1, 2, 7, ...): primes at 2, 3 and 7, 8
    walk, completes = params.position_roles(8)
    roles = dict(enumerate(walk, start=1))
    assert len(roles) == len(completes) == 8
    assert roles[1] == ("digit", -1, -1)
    assert roles[2] == ("prime", 0, 1)
    assert roles[3] == ("prime", 1, 1)
    assert roles[4] == roles[5] == roles[6] == ("digit", -1, -1)
    assert roles[7] == ("prime", 0, 2)
    assert roles[8] == ("prime", 1, 2)
    # N = 1: every digit completes a sub-block
    assert completes == [role[0] == "digit" for role in walk]
    # N = 2: runs of 2, 6 and 14 digits, each followed by a prime pair at n_j
    params2 = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=4, N=2)
    walk, completes = params2.position_roles(30)
    primes = [pos for pos, role in enumerate(walk, start=1) if role[0] == "prime"]
    assert primes == [3, 4, 11, 12, 27, 28]
    assert params2.n_schedule[1:4] == (3, 11, 27)
    assert walk[26] == ("prime", 0, 3) and walk[27] == ("prime", 1, 3)
    assert [pos for pos, done in enumerate(completes, start=1) if done] == [
        2, 6, 8, 10, 14, 16, 18, 20, 22, 24, 26, 30]


def test_construction_auto_search(sieve_mid):
    params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid)
    assert (params.M, params.N) == (2, 1)
    assert params.s < params.t_value


def test_construction_validation(sieve_mid):
    with pytest.raises(ValueError):
        make_eb_params(4.0, 1, 0.53, 0.01, sieve_mid)
    with pytest.raises(ValueError):
        make_eb_params(4.0, 2, 0.52, 0.01, sieve_mid)
    with pytest.raises(ValueError):
        make_eb_params(4.0, 2, 1.01, 0.01, sieve_mid)
    # B <= 0 once made complex alphas or divided by zero; B = 1 a base of 1
    for B in (-1.0, 0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="B must be finite and exceed 1"):
            make_eb_params(B, 2, 0.53, 0.01, sieve_mid)


def test_construction_infeasible_scale(sieve_mid):
    # s sits above the dimensional number at every size the guard admits;
    # the last size examined names the failure, not the guard that ends M = 8
    with pytest.raises(ConstructionInfeasibleError,
                       match=r"no admissible \(M, N\): s = 0.53 not below t_B\(M=8, N=7\)$"):
        make_eb_params(10_000.0, 2, 0.53, 0.005, sieve_mid)
    # the guard names the failure only when no size was examined
    with pytest.raises(ConstructionInfeasibleError,
                       match=r": M\^N = 3\^30 exceeds the enumeration guard$"):
        make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=3, N=30)


def test_construction_infeasible_sieve():
    # the size passes the dimension gate but the first prime window
    # cannot fit inside a sieve this small
    with pytest.raises(ConstructionInfeasibleError, match="beyond"):
        make_eb_params(2.0, 2, 0.6, 0.01, PrimeSieve(20), M=20, N=5)


def test_construction_constraint_record(eb):
    params, _ = eb
    status = {name: st for name, st, _ in params.constraints}
    assert status["s < t_B(M,N)"] == "ok"
    assert status["N > e^20"] == "symbolic"
    assert status["alpha chain identity"] == "ok"
    assert status["alpha full-product identity"] == "ok"
    assert status["B alpha_0^s >= B^(2s)"] == "ok"
    assert status["c_n(base_0) < 2 at n1"] == "ok"
    assert status["c_n(base_1) < 2 at n1"] == "ok"
    assert set(status.values()) <= {"ok", "symbolic"}


def test_tree_specs_and_shape(eb):
    params, tree = eb
    assert len(tree.levels) == 5
    # one ascending digit tuple per position, through depth + 1;
    # alpha_0^2 = 4.35 and last_base^2 = 3.68 both cover only {5, 7}
    digits = tuple(range(1, params.M + 1))
    assert tree.digit_sets == (digits, (5, 7), (5, 7), digits, digits, digits)
    assert [len(level) for level in tree.levels] == [3, 6, 12, 36, 108]


def test_tree_mass_is_additive(eb):
    _, tree = eb
    for level in tree.levels:
        assert sum(level.mu) == pytest.approx(1.0, abs=1e-12)
        assert all(mu > 0 for mu in level.mu)
    # every node takes every digit of its position, so child k of a level
    # with w digits per node has parent k // w
    for level, children, digits in zip(tree.levels, tree.levels[1:], tree.digit_sets[1:]):
        sums = [0.0] * len(level)
        for k, child_mu in enumerate(children.mu):
            sums[k // len(digits)] += child_mu
        for total, parent_mu in zip(sums, level.mu, strict=True):
            assert total == pytest.approx(parent_mu, abs=1e-12)


def test_tree_prime_split_is_uniform(eb):
    _, tree = eb
    # depth 2 = first prime position, two primes: child k has parent k // 2
    assert len(tree.digit_sets[1]) == 2
    level = tree.levels[1]
    words = list(tree.words(level.depth))
    for k in range(0, len(level), 2):
        assert words[k][:-1] == words[k + 1][:-1]
        assert level.mu[k] == pytest.approx(level.mu[k + 1], rel=1e-12)


def test_tree_words_follow_the_digit_sets(eb):
    # a level keeps no words: they are the product of the digit sets, one per
    # node, and child j of node k of the level above is node k w + j
    _, tree = eb
    parents = [()]
    for level, digits in zip(tree.levels, tree.digit_sets):
        words = list(tree.words(level.depth))
        assert len(words) == len(level)
        assert words == [parent + (d,) for parent in parents for d in digits]
        parents = words


def _value(word) -> Fraction:
    cf = continuants(word)
    return Fraction(cf.p, cf.q)


def _exact(pair) -> Fraction:
    num, den = pair
    assert den > 0 and math.gcd(num, den) == 1
    return Fraction(num, den)


def _ends(tree) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """Each word's hull ends, from the (numerator, denominator) pairs that
    `records` yields, checked to be in lowest terms."""
    return {word: (_exact(lo), _exact(hi)) for _, word, _, _, lo, hi in tree.records()}


def test_tree_interval_arithmetic(eb):
    _, tree = eb
    level, k = tree.levels[2], 5
    word = list(tree.words(level.depth))[k]
    cf = continuants(word)
    assert (level.q[k], level.q_prev[k]) == (cf.q, cf.q_prev)
    # the children at depth 4 take the digits 1..M
    ends = sorted([_value(word + (1,)), _value(word + (tree.params.M + 1,))])
    lo, hi = _ends(tree)[word]
    assert (lo, hi) == tuple(ends)
    assert 0 < lo < hi < 1


def test_tree_hulls_span_children(eb):
    # every hull, prime positions included, is the exact span of the
    # closures of the node's children
    _, tree = eb
    hulls = _ends(tree)
    for level, digits in zip(tree.levels, tree.digit_sets[1:]):
        for word in tree.words(level.depth):
            ends = [_value(word + (d,)) for d in digits]
            ends.append(_value(word + (digits[-1] + 1,)))
            assert hulls[word] == (min(ends), max(ends))


def test_tree_diameters_round_the_exact_hull(eb):
    # diam comes from the continuants alone; it must be the double nearest
    # the exact hull length, as float(Fraction) rounds it
    _, tree = eb
    hulls = _ends(tree)
    for level in tree.levels:
        for word, diam in zip(tree.words(level.depth), level.diam, strict=True):
            lo, hi = hulls[word]
            assert diam == float(hi - lo)


def oracle_gap_check(tree) -> float:
    """gap_check by sorting each level on its exact Fraction lo."""
    hulls = _ends(tree)
    eight_m = 8 * tree.params.M
    worst = math.inf
    for level in tree.levels:
        words = list(tree.words(level.depth))
        ordered = sorted(range(len(level)), key=lambda k: hulls[words[k]][0])
        for k1, k2 in zip(ordered, ordered[1:]):
            gap = hulls[words[k2]][0] - hulls[words[k1]][1]
            for k in (k1, k2):
                q, q_prev = level.q[k], level.q_prev[k]
                worst = min(worst, gap.numerator * eight_m * q * (q + q_prev)
                            / gap.denominator)
    return worst


@pytest.fixture(scope="module")
def trees(eb, sieve_mid):
    # ell = 3 puts its first prime run at positions 5, 6, 7: both parities
    params = make_eb_params(4.0, 3, 0.6, 0.01, sieve_mid)
    roles, _ = params.position_roles(7)
    assert [role[0] for role in roles[4:]] == ["prime"] * 3
    return {"ell2": eb[1], "ell3": eb_prefix_tree(params, 6, sieve_mid)}


@pytest.mark.parametrize("name", ["ell2", "ell3"])
def test_tree_gap_check_matches_sorted_oracle(trees, name):
    assert gap_check(trees[name]) == oracle_gap_check(trees[name])


@pytest.mark.parametrize("name", ["ell2", "ell3"])
def test_every_normalized_gap_is_correctly_rounded(trees, name):
    # every value, not only the minimum gap_check reports, is the double
    # nearest the exact normalized gap, as float(Fraction) rounds it
    tree = trees[name]
    hulls = _ends(tree)
    eight_m = 8 * tree.params.M
    want, words = [], [list(tree.words(level.depth)) for level in tree.levels]
    for level, level_words in zip(tree.levels, words):
        ordered = sorted(range(len(level)), key=lambda k: hulls[level_words[k]][0])
        for k1, k2 in zip(ordered, ordered[1:]):
            gap = hulls[level_words[k2]][0] - hulls[level_words[k1]][1]
            want += [(level_words[k], float(gap * eight_m * level.q[k]
                                            * (level.q[k] + level.q_prev[k])))
                     for k in (k1, k2)]
    # value v of a level belongs to node order[(v + 1) // 2]
    assert [(words[level.depth - 1][order[(v + 1) // 2]], value)
            for level, order in zip(tree.levels, cantor._ascending(tree))
            for v, value in enumerate(cantor._level_gaps(level, order, eight_m))] == want


@pytest.mark.parametrize("name", ["ell2", "ell3"])
def test_tree_parity_order_is_sorted_order(trees, name):
    tree = trees[name]
    hulls = _ends(tree)
    for level, order in zip(tree.levels, cantor._ascending(tree), strict=True):
        words = list(tree.words(level.depth))
        ordered = [words[k] for k in order]
        assert ordered == sorted(words, key=lambda word: hulls[word][0])
        # hulls of one depth are disjoint, and strictly ordered
        assert all(hulls[a][1] < hulls[b][0] for a, b in zip(ordered, ordered[1:]))


def test_tree_is_built_and_checked_in_plain_ints(eb, sieve_mid, monkeypatch):
    # endpoints come from continuants and same-depth order from digit
    # parity: no Fraction is built and no level is sorted
    params, _ = eb

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction or a sort in the E_B tree")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    monkeypatch.setattr(cantor, "sorted", refuse, raising=False)
    tree = eb_prefix_tree(params, 5, sieve_mid)
    assert gap_check(tree) >= 1
    assert len(list(tree.records())) == 165


def test_tree_gap_check(eb):
    _, tree = eb
    assert gap_check(tree) >= 1.0


def test_tree_holder_band(eb, sieve_mid):
    params, tree5 = eb
    tree4 = eb_prefix_tree(params, 4, sieve_mid)
    h5, h4 = holder_check(tree5), holder_check(tree4)
    assert h5.exponent == pytest.approx(0.53 * 0.99 - 0.01, rel=1e-12)
    assert math.isfinite(h5.max_ratio) and h5.max_ratio > 0
    band = h5.max_ratio / h4.max_ratio
    assert 0.5 <= band <= 2.0


def test_tree_mass_matches_definition(sieve_mid):
    # N = 3 leaves sub-blocks of one and two digits unfinished
    params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=5, N=3)
    tree = eb_prefix_tree(params, 6, sieve_mid)
    M, N, s = params.M, params.N, params.s
    scale = params.alphas[0] ** N
    raw = {b: (scale * continuants(b).q ** 2) ** -s
           for b in product(range(1, M + 1), repeat=N)}
    u = math.fsum(raw.values())
    assert tree.u == pytest.approx(u, rel=1e-12)
    weight = {b: r / u for b, r in raw.items()}

    prime_positions = {nj + i for nj in params.n_schedule[1:] for i in range(params.ell)}
    unfinished = 0
    for level in tree.levels:
        for word, mu in zip(tree.words(level.depth), level.mu, strict=True):
            factors, partial = [], ()
            for pos, d in enumerate(word, start=1):
                if pos in prime_positions:
                    factors.append(1 / len(tree.digit_sets[pos - 1]))
                    continue
                partial += (d,)
                if len(partial) == N:
                    factors.append(weight[partial])
                    partial = ()
            if partial:
                unfinished += 1
                factors.append(math.fsum(weight[partial + e] for e in
                                         product(range(1, M + 1), repeat=N - len(partial))))
            assert mu == pytest.approx(math.prod(factors), rel=1e-12)
    assert unfinished > 0


def test_tree_time_is_bounded_by_its_nodes(sieve_mid):
    # 8^7 sub-block words behind a depth-1 tree of 8 nodes
    params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=8, N=7)
    start = time.perf_counter()
    tree = eb_prefix_tree(params, 1, sieve_mid)
    assert time.perf_counter() - start < 5.0
    assert len(tree.levels[0]) == 8
    assert sum(tree.levels[0].mu) == pytest.approx(1.0, abs=1e-12)


def test_tree_enumerates_sub_blocks_once(sieve_mid, monkeypatch):
    # the block masses and their normalizer read one word enumeration
    params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=5, N=3)
    calls = []

    def counted(M, n):
        calls.append((M, n))
        return word_continuants(M, n)

    monkeypatch.setattr(pressure, "word_continuants", counted)
    eb_prefix_tree(params, 2, sieve_mid)
    assert calls == [(5, 3)]


def test_tree_guard_comes_before_the_sub_block_masses(eb, sieve_mid, monkeypatch):
    # a refused tree never weighs its M^N sub-block words
    params, _ = eb

    def unreachable(*args):
        raise AssertionError("sub-block masses of a refused tree")

    monkeypatch.setattr(cantor, "_block_masses", unreachable)
    monkeypatch.setattr(cantor, "_NODE_GUARD", 10)
    with pytest.raises(EnumerationGuardError, match="tree exceeds 10 nodes"):
        eb_prefix_tree(params, 5, sieve_mid)


def test_tree_guards(eb, sieve_mid, monkeypatch):
    params, _ = eb
    monkeypatch.setattr(cantor, "_NODE_GUARD", 10)
    with pytest.raises(EnumerationGuardError, match="tree exceeds 10 nodes at depth 3"):
        eb_prefix_tree(params, 5, sieve_mid)
    with pytest.raises(ValueError):
        eb_prefix_tree(params, 0, sieve_mid)
    with pytest.raises(OutOfRangeError):
        eb_prefix_tree(params, 10_000, sieve_mid)
