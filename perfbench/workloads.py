"""Workload command lists and the independent checks on their outputs.

Each workload is a fixed list of `primecf` CLI argument vectors built from a
seed.  The seed feeds `--seed` of `mc-zero-one`; elsewhere it only nudges
parameters whose cost does not depend on them (cutoffs by under 0.1 %, the
base `B` within [2, 3]), never `M`, `n`, `ell` or sample counts, so every
seed asks for the same amount of work.

A check takes a command's stdout and returns a failure reason, or None when
the output is correct.  Oracles come from routes other than the one the
command takes (the Moebius/log-zeta identity, exact interval measures, the
pressure solver at the base the growth classifier should recover) and are
imported from the checkout's `src` when a check first needs them.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

Check = Callable[[str], "str | None"]

MC_PHI = "n*log(n)**2"
MC_WINDOW = (10, 200)
# Exact measure cutoffs for the union bounds: the criterion-11 value for
# ell = 1; ell = 2 costs quadratically in the cutoff, and 2000 keeps the
# bound (with its integer-tail term) to about a second.
UNION_CUTOFF = {1: 10_000, 2: 2_000}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check | None = None


# ---------------------------------------------------------------------------
# output parsing


@dataclass(frozen=True)
class CsvOutput:
    summary: dict[str, str]
    rows: list[dict[str, str]]


def parse_csv(out: str) -> CsvOutput:
    """Split CLI CSV output into its `# summary` key=value pairs and rows.

    The first comment line echoes the inputs; a second one made only of
    key=value tokens is the summary; later comments are notes.
    """
    lines = out.splitlines()
    comments = [ln[2:].split(" ") for ln in lines if ln.startswith("# ")]
    summary = {}
    if len(comments) > 1 and all("=" in t for t in comments[1]):
        summary = dict(t.split("=", 1) for t in comments[1])
    body = [ln for ln in lines if not ln.startswith("#")]
    return CsvOutput(summary, list(csv.DictReader(body)))


_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def generic_failure(returncode: int, stdout: str, stderr: str) -> str | None:
    """Failures every command shares: exit status, traceback, NaN."""
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if _NAN.search(stdout):
        return "NaN in output"
    if not stdout:
        return "empty output"
    return None


# ---------------------------------------------------------------------------
# oracles (program code on an independent route; computed once per process)


@functools.cache
def prime_zeta(s: float):
    """Sum of p^-s over all primes through the Moebius/log-zeta identity."""
    from primecf.zeta import pzeta_via_mobius
    return pzeta_via_mobius(s)


def _small_primes(below: int) -> list[int]:
    return [k for k in range(2, below) if all(k % d for d in range(2, math.isqrt(k) + 1))]


@functools.cache
def union_bound(ell: int) -> float:
    """Sum over the window of exact upper measures of the per-n level sets."""
    from primecf.measure import level_set_measure
    from primecf.primes import PrimeSieve
    cutoff = UNION_CUTOFF[ell]
    sv = PrimeSieve(cutoff)
    return sum(level_set_measure(ell, n * math.log(n) ** 2, cutoff, sv).exact_upper
               for n in range(MC_WINDOW[0], MC_WINDOW[1] + 1))


@functools.cache
def pressure_dim(B: float, M: int = 20, n: int = 8, tol: float = 1e-9) -> float:
    from primecf.pressure import PressureProblem, dimensional_number
    return dimensional_number(PressureProblem(ell=1, B=B, M=M, n=n), tol=tol)


# ---------------------------------------------------------------------------
# checks


def check_prime_zeta_bracket(s: float, M: int) -> Check:
    """ell = 1 tail plus the head sum over p < M must bracket P(s)."""
    def check(out: str) -> str | None:
        from mpmath import mp, mpf
        row = parse_csv(out).rows[0]
        with mp.workdps(40):
            head = mp.fsum(mpf(p) ** -mpf(s) for p in _small_primes(M))
            ref = prime_zeta(s)
            slack = ref * mpf(10) ** -18  # 20-digit printing of value and upper
            lo = head + mpf(row["value"]) - slack
            hi = head + mpf(row["upper"]) + slack
            if not lo <= ref <= hi:
                return f"P({s}) = {mp.nstr(ref, 20)} outside [{mp.nstr(lo, 20)}, {mp.nstr(hi, 20)}]"
        return None
    return check


def check_convergent_fraction(ell: int, samples: int) -> Check:
    """Hit fraction at most the union bound of exact measures plus 3 sigma."""
    def check(out: str) -> str | None:
        frac = float(parse_csv(out).summary["hit_fraction"])
        b = union_bound(ell)
        limit = b + 3 * math.sqrt(b * (1 - b) / samples)
        if not 0 <= frac <= limit:
            return f"hit fraction {frac} above union bound + 3 sigma = {limit:.6f}"
        return None
    return check


def check_divergent_fraction(out: str) -> str | None:
    frac = float(parse_csv(out).summary["hit_fraction"])
    return None if frac >= 0.999 else f"divergent hit fraction {frac} < 0.999"


def check_hwx_matches_pressure(c: float) -> Check:
    """hwx-dim on c**n must print the value pressure-dim gives at B = c."""
    def check(out: str) -> str | None:
        row = parse_csv(out).rows[0]
        want = format(pressure_dim(c), ".20g")
        if row["case"] != "1<B<inf" or row["value"] != want:
            return f"hwx-dim {row['case']} {row['value']} != pressure-dim B={c} {want}"
        return None
    return check


def check_gap_min(out: str) -> str | None:
    if out.startswith("{"):
        gap = float(json.loads(out)["summary"]["gap_min"])
    else:
        gap = float(parse_csv(out).summary["gap_min"])
    return None if gap >= 1 else f"gap_min {gap} < 1"


def check_dimension_range(out: str) -> str | None:
    t = float(parse_csv(out).rows[0]["t"])
    return None if 0.5 < t < 1 else f"dimensional number {t} outside (1/2, 1)"


def check_measure_bracket(out: str) -> str | None:
    row = parse_csv(out).rows[0]
    lo, hi = float(row["lower"]), float(row["upper"])
    return None if 0 < lo <= hi else f"measure bracket [{lo}, {hi}] empty"


# ---------------------------------------------------------------------------
# workloads


def _nudge(rng: random.Random, base: int) -> int:
    """base moved up by under 0.1 %."""
    return base + int(base * 0.0009 * rng.random())


def zeta_tails(seed: int) -> list[Command]:
    rng = random.Random(f"zeta-tails:{seed}")
    c1, c3, ca, cm = (_nudge(rng, b) for b in (3_000_000, 1_000_000, 1_000_000, 200_000))
    return [
        Command(("pzeta-tail", "--ell", "1", "--s", "2.5", "--M", "100", "--cutoff", str(c1)),
                check_prime_zeta_bracket(2.5, 100)),
        Command(("pzeta-tail", "--ell", "3", "--s", "2", "--M", "100", "--cutoff", str(c3))),
        Command(("pzeta-asymptotic", "--ell", "2", "--s", "2", "--grid", "1e3,1e4,1e5",
                 "--cutoff", str(ca))),
        Command(("interval-measure", "--ell", "2", "--threshold", "1000", "--cutoff", str(cm)),
                check_measure_bracket),
    ]


def mc_zero_one(seed: int) -> list[Command]:
    window = f"{MC_WINDOW[0]},{MC_WINDOW[1]}"
    common = ("--window", window, "--seed", str(seed))
    return [
        Command(("mc-zero-one", "--ell", "1", "--phi", MC_PHI, "--samples", "2000", *common),
                check_convergent_fraction(1, 2000)),
        Command(("mc-zero-one", "--ell", "2", "--phi", MC_PHI, "--samples", "2000", *common),
                check_convergent_fraction(2, 2000)),
        Command(("mc-zero-one", "--ell", "1", "--phi", "2", "--samples", "1000", *common),
                check_divergent_fraction),
    ]


def dimension(seed: int) -> list[Command]:
    rng = random.Random(f"dimension:{seed}")
    B = round(2 + rng.random(), 6)
    c = round(2 + rng.random(), 3)
    B_enum = round(10 * (1 + 0.0009 * rng.random()), 6)
    return [
        Command(("pressure-dim", "--ell", "1", "--B", str(B), "--M", "1000", "--n", "30"),
                check_dimension_range),
        Command(("pressure-dim", "--ell", "2", "--B", str(B_enum), "--M", "6", "--n", "6",
                 "--method", "enumerate"), check_dimension_range),
        Command(("hwx-dim", "--ell", "1", "--phi", f"{c}**n", "--window", "10,300"),
                check_hwx_matches_pressure(c)),
        Command(("eb-build", "--B", "4", "--ell", "3", "--s", "0.6", "--delta", "0.01"),
                check_gap_min),
        Command(("eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01",
                 "--M", "3", "--depth", "6", "--format", "json"), check_gap_min),
        Command(("luczak-dim", "--b", "2", "--c", "2", "--kmax", "20", "--sieve", "1000000")),
        Command(("box-dim", "--b", "2", "--c", "2", "--kmax", "3", "--sieve", "1000000")),
    ]


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "zeta-tails": zeta_tails,
    "mc-zero-one": mc_zero_one,
    "dimension": dimension,
}


def readme_examples(seed: int = 0) -> list[Command]:
    """The CLI examples of the repository README, verbatim."""
    return [Command(tuple(line.split())) for line in (
        "cf-expand --rational 113/355",
        "pzeta-tail --ell 1 --s 2 --M 10 --cutoff 100000 --sieve 100000",
        "hwx-dim --ell 1 --phi 2**(2**n) --window 10,40",
        "pzeta-asymptotic --ell 1 --s 2 --grid 1e3,1e4,1e5,1e6",
        "interval-measure --ell 2 --threshold 50 --cutoff 100000",
        "pressure-dim --ell 1 --B 2 --M 20 --n 8",
        "mc-zero-one --ell 1 --phi n*log(n)**2 --window 10,200 --samples 10000 --seed 20260815",
        "bb-series --ell 2 --phi n*n --window 2,50 --prime",
        "luczak-dim --b 2 --c 2 --kmax 20",
        "eb-build --B 4 --ell 2 --s 0.53 --delta 0.01 --M 3",
        "box-dim --covers 0.333,0.333;0.111,0.111,0.111,0.111",
    )]
