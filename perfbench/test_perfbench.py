"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q

The traced and end-to-end tests run the real workloads and take a few
minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Which per-layer metric each workload must move (it may read 0 elsewhere).
ASSIGNED = {
    "zeta-tails": (
        "primes.PrimeSieve.self_s", "primes.omega_table.self_s",
        "primes.almost_primes.self_s", "zeta.pzeta_tail.self_s",
        "zeta.asymptotic_table.self_s", "zeta.terms", "measure.level_set_measure.self_s",
    ),
    "mc-zero-one": (
        "primes.PrimeSieve.self_s", "primes.is_prime_trial.calls",
        "primes.is_prime_trial.self_s", "contfrac.expand_real.self_s",
        "contfrac.expand_real.calls", "contfrac.expand_real.useful_ratio",
        "measure.run_zero_one_experiment.self_s", "measure.refinements",
    ),
    "dimension": (
        "primes.PrimeSieve.self_s", "contfrac.continuants.calls",
        "pressure.partition_sum.calls", "pressure.log_moment_collocate.self_s",
        "pressure.log_moment_enumerate.self_s", "pressure.dimensional_number.self_s",
        "cantor.make_eb_params.self_s", "cantor.eb_prefix_tree.self_s",
        "cantor.gap_check.self_s", "cantor.holder_check.self_s",
        "cantor.luczak_levels.self_s", "cli.main.self_s",
    ),
}
EVERY_WORKLOAD = ("cli.import_s", "trace.traced_wall_s", "trace.untraced_wall_s",
                  "trace.overhead_ratio")
DOMINANT = {
    "zeta-tails": "zeta.pzeta_tail",
    "mc-zero-one": "contfrac.expand_real",
    "dimension": "pressure.log_moment_collocate",
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def corrupt(out: str, old: str, new: str) -> str:
    assert old in out
    return out.replace(old, new, 1)


# ---------------------------------------------------------------------------
# output checks


def test_prime_zeta_bracket_flags_a_shifted_tail():
    argv = ["pzeta-tail", "--ell", "1", "--s", "2.5", "--M", "100", "--cutoff", "100000"]
    rc, out, err = tracer.run_command(argv)
    check = workloads.check_prime_zeta_bracket(2.5, 100)
    assert workloads.generic_failure(rc, out, err) is None
    assert check(out) is None
    row = workloads.parse_csv(out).rows[0]
    shifted = format(float(row["value"]) + 2 * float(row["remainder_bound"]), ".20g")
    assert check(corrupt(out, row["value"], shifted)) is not None


def test_zero_one_fractions_are_checked():
    argv = ["mc-zero-one", "--ell", "1", "--window", "10,200", "--samples", "200",
            "--seed", "5"]
    _, out, _ = tracer.run_command([*argv, "--phi", workloads.MC_PHI])
    convergent = workloads.check_convergent_fraction(1, 200)
    assert convergent(out) is None
    frac = workloads.parse_csv(out).summary["hit_fraction"]
    assert convergent(corrupt(out, f"hit_fraction={frac}", "hit_fraction=0.5")) is not None

    _, out, _ = tracer.run_command([*argv, "--phi", "2"])
    assert workloads.check_divergent_fraction(out) is None
    assert workloads.check_divergent_fraction(
        corrupt(out, "hit_fraction=1 ", "hit_fraction=0.99 ")) is not None


def test_hwx_must_match_pressure_dim():
    rc, out, err = tracer.run_command(["hwx-dim", "--ell", "1", "--phi", "2.5**n",
                                       "--window", "10,300"])
    check = workloads.check_hwx_matches_pressure(2.5)
    assert check(out) is None
    value = workloads.parse_csv(out).rows[0]["value"]
    assert check(corrupt(out, value, value[:-1] + str((int(value[-1]) + 1) % 10))) is not None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gap_min_below_one_is_flagged(fmt):
    _, out, _ = tracer.run_command(["eb-build", "--B", "4", "--ell", "2", "--s", "0.53",
                                    "--delta", "0.01", "--M", "3", "--depth", "6",
                                    "--format", fmt])
    assert workloads.check_gap_min(out) is None
    if fmt == "json":
        obj = json.loads(out)
        obj["summary"]["gap_min"] = 0.5
        bad = json.dumps(obj)
    else:
        gap = workloads.parse_csv(out).summary["gap_min"]
        bad = corrupt(out, f"gap_min={gap}", "gap_min=0.5")
    assert workloads.check_gap_min(bad) is not None


def test_generic_failures():
    good = "# x a=1\nt\n0.5\n"
    assert workloads.generic_failure(0, good, "") is None
    assert workloads.generic_failure(3, good, "BracketError: no root") is not None
    assert workloads.generic_failure(0, good, "Traceback (most recent call last):") is not None
    assert workloads.generic_failure(0, good.replace("0.5", "nan"), "") is not None
    assert workloads.generic_failure(0, "", "") is not None


def test_reference_computation_checks_its_result():
    done = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# tracer


def test_spans_cover_every_binding_site():
    import primecf.cli  # noqa: F401
    import primecf
    t = tracer.Tracer()
    t.install()
    try:
        for site in ("zeta.almost_primes", "measure.expand_real", "measure.is_prime_trial",
                     "cantor.partition_sum", "cantor.dimensional_number",
                     "cantor.log_moment_enumerate", "primes.PrimeSieve.__init__"):
            assert site in t.sites
        assert primecf.measure.expand_real is primecf.contfrac.expand_real
        assert hasattr(primecf.zeta.almost_primes, "__wrapped__")
        primecf.cli.PrimeSieve(100)
        assert t.stats["primes.PrimeSieve"][0] == 1
    finally:
        t.uninstall()
    assert not hasattr(primecf.zeta.almost_primes, "__wrapped__")
    assert not hasattr(primecf.primes.PrimeSieve.__init__, "__wrapped__")


def test_self_time_excludes_enclosed_spans():
    import primecf.cli  # noqa: F401
    t = tracer.Tracer()
    t.install()
    try:
        tracer.run_pass([["pressure-dim", "--ell", "1", "--B", "2", "--M", "20", "--n", "8"]], t)
    finally:
        t.uninstall()
    calls = t.stats["pressure.partition_sum"][0]
    assert calls > 2 and t.stats["pressure.log_moment_collocate"][0] == calls
    assert t.stats["cli.main"][0] == 1
    assert t.stats["pressure.partition_sum"][1] < t.stats["pressure.log_moment_collocate"][1]


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("workload", list(ASSIGNED))
def test_traced_run_reports_every_per_layer_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    result = result_line(done)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    for name in (*ASSIGNED[workload], *EVERY_WORKLOAD):
        assert metrics[name]["value"] > 0, name
    assert f"dominant span: {DOMINANT[workload]} " in done.stdout


def test_every_per_layer_metric_is_assigned():
    assigned = {name for names in ASSIGNED.values() for name in names} | set(EVERY_WORKLOAD)
    assert assigned == {m["name"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_run_reports_every_metric():
    result = result_line(run_bench("--workload", "dimension", "--seed", "3",
                                   "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_the_run_fails_without_a_result():
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_bench("--workload", "dimension", "--seed", "1", "--seconds", "1", cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
