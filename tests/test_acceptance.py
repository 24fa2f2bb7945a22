"""End-to-end release checks, one test per stated criterion.

Each test prints a single summary line so a verbose run reads as a
12-line scorecard; tolerances and time limits are asserted, not logged.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from primecf.cantor import (
    LuczakParams,
    alpha_identity_errors,
    alpha_values,
    eb_prefix_tree,
    falconer_limit,
    falconer_lower_bound,
    gap_check,
    holder_check,
    luczak_levels,
    make_eb_params,
)
from primecf.cli import main
from primecf.contfrac import (
    check_continuant_bounds,
    continuants,
    fundamental_interval,
    union_measure,
)
from primecf.measure import (
    MCExperiment,
    level_set_measure,
    run_zero_one_experiment,
)
from primecf.pressure import PressureProblem, dimensional_number, f_ell
from primecf.zeta import asymptotic_table, pzeta_tail, pzeta_via_mobius


class stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_criterion_01_prime_zeta_oracle_agreement(sieve_big):
    with stopwatch() as sw:
        tail = pzeta_tail(1, "at-most", 2.0, 2.0, 10_000_000, sieve_big)
        reference = pzeta_via_mobius(2.0)
    diff = float(abs(tail.value - reference))
    bound = float(tail.remainder_bound)
    assert bound <= 1e-7
    assert diff < bound
    assert sw.elapsed < 30
    print(f"criterion 01 PASS: |tail - reference| = {diff:.3e} < {bound:.3e} "
          f"({sw.elapsed:.1f}s)")


def test_criterion_02_normalized_tail_band_depth_one(sieve_big):
    with stopwatch() as sw:
        rows = asymptotic_table(1, 2.0, [1e3, 1e4, 1e5, 1e6], 10_000_000, sieve_big)
    ratios = [float(r.ratio) for r in rows]
    assert all(0.7 <= r <= 1.5 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5
    assert sw.elapsed < 60
    print(f"criterion 02 PASS: ratios in [{min(ratios):.3f}, {max(ratios):.3f}], "
          f"spread {max(ratios) / min(ratios):.3f}x ({sw.elapsed:.1f}s)")


def test_criterion_03_normalized_tail_band_depth_two(sieve_big):
    with stopwatch() as sw:
        rows = asymptotic_table(2, 2.0, [1e3, 1e4, 1e5], 10_000_000, sieve_big)
    ratios = [float(r.ratio) for r in rows]
    assert max(ratios) / min(ratios) < 3.0
    assert sw.elapsed < 300
    print(f"criterion 03 PASS: ratios in [{min(ratios):.3f}, {max(ratios):.3f}], "
          f"spread {max(ratios) / min(ratios):.3f}x ({sw.elapsed:.1f}s)")


def test_criterion_04_exact_cf_identities_exhaustive():
    half, one = Fraction(1, 2), Fraction(1)
    words = failures = 0
    for length in range(1, 6):
        for digits in itertools.product(range(1, 7), repeat=length):
            words += 1
            c = continuants(digits)
            if c.determinant not in (-1, 1):
                failures += 1
            iv = fundamental_interval(digits)
            if not half <= c.q * c.q * iv.length <= one:
                failures += 1
            children = sum(fundamental_interval(digits + (d,)).length
                           for d in range(1, 7))
            if union_measure(digits, 1, 6) != children:
                failures += 1
    assert words == 6 + 36 + 216 + 1296 + 7776
    assert failures == 0
    print(f"criterion 04 PASS: {words} words, 3 identities each, 0 failures")


def test_criterion_05_continuant_inequality_suite():
    rng = random.Random(20260815)
    failures = 0
    for _ in range(10_000):
        length = rng.randint(1, 10)
        word = tuple(rng.randint(1, 50) for _ in range(length))
        report = check_continuant_bounds(word, rng.randint(1, length))
        if not report.ok:
            failures += 1
    assert failures == 0
    print("criterion 05 PASS: 10000 random words, deletion + split bounds, "
          "0 failures")


def test_criterion_06_dimensional_number_limits():
    with stopwatch() as sw:
        t_near_one = dimensional_number(PressureProblem(ell=1, B=1 + 1e-6, M=20, n=8))
        t_large = dimensional_number(PressureProblem(ell=1, B=1e6, M=20, n=8))
        ts = [dimensional_number(PressureProblem(ell=1, B=b, M=20, n=8))
              for b in (2.0, 10.0, 1e2, 1e4, 1e6)]
    assert t_near_one >= 0.85
    assert 0.5 <= t_large <= 0.56
    assert all(a >= b for a, b in zip(ts, ts[1:]))
    assert ts[0] > ts[-1]
    assert sw.elapsed < 120
    print(f"criterion 06 PASS: t(1+1e-6) = {t_near_one:.4f}, "
          f"t(1e6) = {t_large:.6f}, monotone along 5-point scale "
          f"({sw.elapsed:.1f}s)")


def test_criterion_07_moment_function_identities():
    worst = max(abs(f_ell(2, i / 100) - (i / 100) ** 2) for i in range(1, 100))
    assert worst <= 1e-14
    exact = f_ell(3, Fraction(1, 2))
    assert isinstance(exact, Fraction)
    assert exact == Fraction(1, 6)
    print(f"criterion 07 PASS: depth-2 square identity worst err {worst:.2e}, "
          f"depth-3 value at 1/2 exactly 1/6")


def test_criterion_08_nested_prime_interval_dimension(sieve_mid):
    with stopwatch() as sw:
        checked_counts = 0
        for b, c in ((2.0, 2.0), (3.0, 2.0), (2.0, 1.5)):
            params = LuczakParams(b=b, c=c)
            ratios = falconer_lower_bound(luczak_levels(params, 20))
            assert abs(ratios[20] - float(falconer_limit(b))) < 0.01
            for level in luczak_levels(params, 3, sieve_mid):
                if level.true_count is not None:
                    assert level.true_count >= math.exp(level.log_m)
                    checked_counts += 1
        assert checked_counts >= 6
    assert sw.elapsed < 10
    print(f"criterion 08 PASS: 3 parameter pairs converge to 1/(b+1); "
          f"{checked_counts} sieve-range blocks meet the count bound "
          f"({sw.elapsed:.1f}s)")


def test_criterion_09_alpha_identity_grid():
    worst_chain = worst_full = 0.0
    for B in (2.0, 10.0, 100.0):
        for s in (0.52, 0.6, 0.75):
            for ell in (2, 3, 4):
                chain_err, full_err, margin = alpha_identity_errors(B, ell, s)
                assert chain_err <= 1e-12
                assert full_err <= 1e-12
                assert margin > 0
                worst_chain = max(worst_chain, chain_err)
                worst_full = max(worst_full, full_err)
            assert alpha_values(B, 2, s) == (B ** s,)
    print(f"criterion 09 PASS: 27-point grid, worst chain err {worst_chain:.2e}, "
          f"worst full-product err {worst_full:.2e}; depth-2 closed form exact")


def test_criterion_10_prefix_tree_miniature(sieve_mid):
    with stopwatch() as sw:
        params = make_eb_params(4.0, 2, 0.53, 0.01, sieve_mid, M=3)
        assert params.M == 3
        assert params.N == 1
        shallow = eb_prefix_tree(params, 4, sieve_mid)
        tree = eb_prefix_tree(params, 5, sieve_mid)
        root_mass = sum(tree.levels[0].mu)
        assert root_mass == pytest.approx(1.0, abs=1e-12)
        for level, children, digits in zip(tree.levels, tree.levels[1:],
                                           tree.digit_sets[1:]):
            # every node takes every digit, so child k has parent k // w
            sums = [0.0] * len(level)
            for k, child_mu in enumerate(children.mu):
                sums[k // len(digits)] += child_mu
            for idx, mu in enumerate(level.mu):
                assert sums[idx] == pytest.approx(mu, abs=1e-12)
        gap_min = gap_check(tree)
        assert gap_min >= 1.0
        h_four = holder_check(shallow)
        h_five = holder_check(tree)
        assert math.isfinite(h_four.max_ratio)
        assert math.isfinite(h_five.max_ratio)
        band = h_five.max_ratio / h_four.max_ratio
        assert 0.5 <= band <= 2.0
    assert sw.elapsed < 120
    print(f"criterion 10 PASS: N = {params.N}, root mass err "
          f"{abs(root_mass - 1):.2e}, gap min {gap_min:.3f}, "
          f"mass-ratio band {band:.3f}x across depths 4-5 ({sw.elapsed:.1f}s)")


def test_criterion_11_zero_one_law_surrogate(sieve_small):
    with stopwatch() as sw:
        phi = lambda n: n * math.log(n) ** 2
        bracket = sum(level_set_measure(1, phi(n), 10_000, sieve_small).exact_upper
                      for n in range(10, 201))
        convergent = run_zero_one_experiment(
            MCExperiment(sample_count=10_000, window=(10, 200), phi=phi, ell=1,
                         seed=20260815),
            sieve_small)
        sigma = math.sqrt(bracket * (1 - bracket) / convergent.sample_count)
        assert convergent.hit_fraction <= bracket + 3 * sigma
        divergent = run_zero_one_experiment(
            MCExperiment(sample_count=10_000, window=(10, 200), phi=lambda n: 2.0,
                         ell=1, seed=20260815),
            sieve_small)
        assert divergent.hit_fraction >= 0.999
    assert sw.elapsed < 300
    print(f"criterion 11 PASS: convergent fraction {convergent.hit_fraction:.4f} "
          f"<= {bracket:.4f} + 3sigma = {bracket + 3 * sigma:.4f}; "
          f"divergent fraction {divergent.hit_fraction:.4f} ({sw.elapsed:.1f}s)")


CLI_INVOCATIONS = [
    ["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1000"],
    ["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "10,100",
     "--cutoff", "1000"],
    ["cf-expand", "--rational", "113/355"],
    ["interval-measure", "--ell", "1", "--threshold", "10", "--cutoff", "1000"],
    ["pressure-dim", "--ell", "1", "--B", "2", "--M", "5", "--n", "3"],
    ["hwx-dim", "--ell", "1", "--phi", "2**(2**n)", "--window", "10,20"],
    ["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,2",
     "--samples", "20", "--seed", "3", "--sieve", "100000"],
    ["bb-series", "--ell", "1", "--phi", "n*n", "--window", "2,10"],
    ["luczak-dim", "--b", "2", "--c", "2", "--kmax", "3", "--sieve", "100000"],
    ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01",
     "--M", "3", "--sieve", "2000"],
    ["box-dim", "--covers", "0.5,0.5;0.25,0.25,0.25"],
]


def test_criterion_12_cli_reproducibility(capsys):
    commands = 0
    for argv in CLI_INVOCATIONS:
        for fmt in ("csv", "json"):
            outputs = []
            for _ in range(2):
                code = main([*argv, "--format", fmt])
                captured = capsys.readouterr()
                assert code == 0
                outputs.append(captured.out)
            assert outputs[0] == outputs[1]
        commands += 1
    assert commands == 11
    print("criterion 12 PASS: 11 commands x 2 formats byte-identical across reruns")
