"""primecf benchmark: fixed CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload zeta-tails --seed 1 --seconds 30 --trace 0

--trace 0 measures what a user of the CLI sees.  A pass runs the workload's
commands one after another, each as a fresh `primecf` process (closed loop,
one client).  Per child, `os.wait4` gives CPU time and peak RSS; this is
per process, unlike `getrusage(RUSAGE_CHILDREN).ru_maxrss`, which is the
maximum over every child reaped so far.  Passes repeat until --seconds have
elapsed, at least MIN_PASSES times, and each is preceded by SETUP_PER_PASS
fresh interpreters that only import primecf.cli.  Before up to
REFS_PER_PASS evenly spaced commands, the reference computation
(reference.py) runs as a fresh process too: on a host shared with other
tenants the speed of the same code drifts by tens of percent from minute
to minute, and the reference drifts with it.  Reported:

    wall_ref     wall time of one pass (the sum over its commands of each
                 command's median wall time across passes), divided by the
                 median wall time of the reference
    cpu_ref      user + system CPU of the pass's children, summed the same
                 way, divided by the median CPU time of the reference
    peak_rss_mb  largest per-command peak RSS in a pass, median over passes
    setup_s      median wall time of the import-only interpreters, scaled
                 by REF_NOMINAL_S / the reference's median wall time: the
                 set-up time on a host where the reference takes
                 REF_NOMINAL_S seconds

The pass times, the import-only time in seconds and the reference's
medians are printed too.

--trace 1 gives the per-layer numbers: three passes in fresh workers
(tracer.py) that call `primecf.cli.main` in-process, traced, untraced and
traced again; --seconds does not apply.  Self times are medians of the two
traced passes; counts must repeat exactly between them; the untraced pass
is the base of the tracing overhead.

Every command's output is checked (exit status, traceback, NaN, the
workload's independent checks in workloads.py, and byte-identical output
across passes).  The failed fraction is `failed` / `attempted` in the
result: the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PER_PASS = 2
REFS_PER_PASS = 4
REFERENCE = Path(__file__).with_name("reference.py")
# setup_s is scaled to a host on which the reference takes this long (about
# its median on the 2-vCPU VM the benchmark was tuned on).
REF_NOMINAL_S = 0.35
COMMAND_TIMEOUT_S = 150
CLI = "import sys; from primecf.cli import main; sys.exit(main())"

SELF_SPANS = (
    "primes.PrimeSieve", "primes.omega_table", "primes.almost_primes",
    "primes.is_prime_trial", "zeta.pzeta_tail", "zeta.asymptotic_table",
    "contfrac.expand_real", "measure.run_zero_one_experiment",
    "measure.level_set_measure", "pressure.log_moment_collocate",
    "pressure.log_moment_enumerate", "pressure.dimensional_number",
    "cantor.make_eb_params", "cantor.eb_prefix_tree", "cantor.gap_check",
    "cantor.holder_check", "cantor.luczak_levels", "cli.main",
)
CALL_SPANS = ("primes.is_prime_trial", "contfrac.expand_real",
              "contfrac.continuants", "pressure.partition_sum")
# Counts read from the commands' own output.
OUTPUT_COUNTS = ("zeta.terms", "measure.refinements")


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PRIMECF_SIEVE_LIMIT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], scratch: Path) -> ChildRun:
    """Run one child to completion; wall, CPU and peak RSS are its own."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(proc.returncode, out.read().decode(), err.read().decode(), wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Failures:
    """Checked operations and the reasons the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.reasons.append(f"{what}: {reason}")


def check_output(cmd: workloads.Command, rc: int, out: str, err: str) -> str | None:
    reason = workloads.generic_failure(rc, out, err)
    if reason is None and cmd.check is not None:
        try:
            reason = cmd.check(out)
        except (KeyError, IndexError, ValueError) as exc:
            reason = f"unparseable output ({type(exc).__name__}: {exc})"
    return reason


# ---------------------------------------------------------------------------
# end to end


def check_import_path(env: dict[str, str], scratch: Path) -> None:
    probe = "import primecf.cli; print(primecf.cli.__file__)"
    run = spawn([sys.executable, "-c", probe], env, scratch)
    if run.returncode != 0 or not Path(run.stdout.strip()).is_relative_to(SRC):
        raise SystemExit(f"primecf does not import from {SRC}: {run.stderr.strip()}")


def end_to_end(commands: list[workloads.Command], seconds: float, failures: Failures,
               scratch: Path) -> dict[str, float]:
    env = child_env()
    check_import_path(env, scratch)  # also warms the bytecode cache
    ref_before = {round(k * len(commands) / REFS_PER_PASS) for k in range(REFS_PER_PASS)}
    setup: list[float] = []
    refs: list[ChildRun] = []
    passes: list[list[ChildRun]] = []

    def reference() -> ChildRun:
        run = spawn([sys.executable, str(REFERENCE)], env, scratch)
        if run.returncode != 0:
            raise SystemExit(f"reference computation failed: {run.stderr.strip()[-500:]}")
        return run

    reference()  # warms the page cache for numpy and mpmath
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        setup += [spawn([sys.executable, "-c", "import primecf.cli"], env, scratch).wall_s
                  for _ in range(SETUP_PER_PASS)]
        runs = []
        for i, cmd in enumerate(commands):
            if i in ref_before:
                refs.append(reference())
            runs.append(spawn([sys.executable, "-c", CLI, *cmd.argv], env, scratch))
        passes.append(runs)
    for i, cmd in enumerate(commands):
        first = passes[0][i]
        failures.record(" ".join(cmd.argv), check_output(cmd, first.returncode,
                                                         first.stdout, first.stderr))
        for later in passes[1:]:
            run = later[i]
            reason = workloads.generic_failure(run.returncode, run.stdout, run.stderr)
            if reason is None and run.stdout != first.stdout:
                reason = "output differs from the first pass"
            failures.record(" ".join(cmd.argv), reason)
    # Per-command medians: a slowdown from other load on the machine that
    # hits one command in one pass does not move the result.
    per_command = list(zip(*passes))
    wall_s = sum(statistics.median(r.wall_s for r in runs) for runs in per_command)
    cpu_s = sum(statistics.median(r.cpu_s for r in runs) for runs in per_command)
    ref_wall = statistics.median(r.wall_s for r in refs)
    ref_cpu = statistics.median(r.cpu_s for r in refs)
    print(f"{len(passes)} passes of {len(commands)} commands; pass wall_s: "
          + ", ".join(f"{sum(r.wall_s for r in p):.3f}" for p in passes))
    print(f"wall_s {wall_s:.3f}, cpu_s {cpu_s:.3f}; reference (median of {len(refs)}):"
          f" wall {ref_wall:.4f} s, cpu {ref_cpu:.4f} s;"
          f" import-only (median of {len(setup)}): {statistics.median(setup):.4f} s")
    return {
        "wall_ref": wall_s / ref_wall,
        "cpu_ref": cpu_s / ref_cpu,
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(setup) * REF_NOMINAL_S / ref_wall,
    }


# ---------------------------------------------------------------------------
# traced


def traced_pass(workload: str, seed: int, traced: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("tracer.py")),
            "--workload", workload, "--seed", str(seed), "--traced", str(int(traced))]
    done = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=COMMAND_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"trace worker failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])


def span_totals(report: dict) -> dict[str, list]:
    totals: dict[str, list] = {}
    for cmd in report["commands"]:
        for name, (calls, self_s) in cmd["spans"].items():
            t = totals.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += self_s
    return totals


def output_counts(commands: list[workloads.Command], report: dict) -> dict[str, int]:
    counts = dict.fromkeys(OUTPUT_COUNTS, 0)
    for cmd, res in zip(commands, report["commands"]):
        if res["rc"] != 0:
            continue
        if cmd.argv[0] == "pzeta-tail":
            counts["zeta.terms"] += sum(int(r["terms_used"])
                                        for r in workloads.parse_csv(res["stdout"]).rows)
        elif cmd.argv[0] == "mc-zero-one":
            counts["measure.refinements"] += int(
                workloads.parse_csv(res["stdout"]).summary["refinements"])
    return counts


def traced(workload: str, seed: int, commands: list[workloads.Command],
           failures: Failures) -> dict[str, float]:
    first, base, second = (traced_pass(workload, seed, t) for t in (True, False, True))
    reports = (first, base, second)
    for i, cmd in enumerate(commands):
        res = first["commands"][i]
        failures.record(" ".join(cmd.argv), check_output(cmd, res["rc"], res["stdout"],
                                                         res["stderr"]))
        for other in (base, second):
            res2 = other["commands"][i]
            reason = workloads.generic_failure(res2["rc"], res2["stdout"], res2["stderr"])
            if reason is None and res2["stdout"] != res["stdout"]:
                reason = "traced and untraced outputs differ"
            failures.record(" ".join(cmd.argv), reason)

    t1, t2 = span_totals(first), span_totals(second)
    counts = [{name: t.get(name, [0])[0] for name in CALL_SPANS} | output_counts(commands, r)
              for t, r in ((t1, first), (t2, second))]
    failures.record("counts repeat across traced passes",
                    None if counts[0] == counts[1] else f"{counts[0]} != {counts[1]}")

    metrics: dict[str, float] = {}
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = statistics.median(t.get(name, [0, 0.0])[1] for t in (t1, t2))
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = counts[0][name]
    metrics.update({name: counts[0][name] for name in OUTPUT_COUNTS})
    samples = sum(int(c.argv[c.argv.index("--samples") + 1])
                  for c in commands if "--samples" in c.argv)
    calls = counts[0]["contfrac.expand_real"]
    metrics["contfrac.expand_real.useful_ratio"] = samples / calls if calls else 0.0
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in reports)
    traced_wall = statistics.median([first["wall_s"], second["wall_s"]])
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = base["wall_s"]
    metrics["trace.overhead_ratio"] = traced_wall / base["wall_s"]

    print(f"tracing overhead: traced {traced_wall:.3f} s / untraced {base['wall_s']:.3f} s"
          f" = {metrics['trace.overhead_ratio']:.3f}")
    for cmd, res in zip(commands, first["commands"]):
        name, (calls, self_s) = max(res["spans"].items(), key=lambda kv: kv[1][1])
        print(f"  {res['wall_s']:8.3f} s  dominant {name} self {self_s:.3f} s"
              f"  :: primecf {' '.join(cmd.argv)}")
    name, (_, self_s) = max(t1.items(), key=lambda kv: kv[1][1])
    print(f"dominant span: {name} self {self_s:.3f} s of {first['wall_s']:.3f} s traced wall")
    return metrics


# ---------------------------------------------------------------------------


UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="primecf CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "readme"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "primecf" / "cli.py").is_file():
        print(f"no primecf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # oracles used by the output checks

    make = workloads.WORKLOADS.get(args.workload, workloads.readme_examples)
    commands = make(args.seed)
    failures = Failures()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics = traced(args.workload, args.seed, commands, failures)
    else:
        scratch = Path(__file__).with_name("out")
        scratch.mkdir(exist_ok=True)
        metrics = end_to_end(commands, args.seconds, failures, scratch)
    for reason in failures.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit(name)}")
    print(f"  failed_frac {len(failures.reasons)}/{failures.attempted}")
    print(json.dumps({
        "correct": not failures.reasons,
        "attempted": failures.attempted,
        "failed": len(failures.reasons),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
