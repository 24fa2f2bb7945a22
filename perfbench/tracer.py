"""Span wrappers around primecf's module functions, and one in-process pass.

The spans are installed from outside the package: every public function
named in SPANS is replaced, in its defining module and at every module that
bound the same object at import (`from .primes import almost_primes` in
`zeta`, `from .contfrac import expand_real` in `measure`, ...), by a wrapper
that counts calls and accumulates self time (its duration minus the time of
spans it encloses).  A class is traced through its `__init__`, which covers
every name bound to it.  Spans are aggregated per name rather than logged
one by one, because `primes.is_prime_trial` runs about a million times per
`mc-zero-one` pass.

Run as a worker of run.py, one pass per fresh interpreter:

    python3 perfbench/tracer.py --workload dimension --seed 1 --traced 1

It prints one JSON object: the import time of `primecf.cli`, the pass wall
time, and per command its exit code, stdout, stderr, wall time and span
totals.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

SPANS = (
    "primes.PrimeSieve",
    "primes.omega_table",
    "primes.almost_primes",
    "primes.is_prime_trial",
    "zeta.pzeta_tail",
    "zeta.asymptotic_table",
    "contfrac.expand_real",
    "contfrac.expand_rational",
    "contfrac.continuants",
    "measure.run_zero_one_experiment",
    "measure.level_set_measure",
    "measure.borel_bernstein_table",
    "pressure.partition_sum",
    "pressure.log_moment_collocate",
    "pressure.log_moment_enumerate",
    "pressure.dimensional_number",
    "pressure.classify_growth",
    "cantor.make_eb_params",
    "cantor.eb_prefix_tree",
    "cantor.gap_check",
    "cantor.holder_check",
    "cantor.luczak_levels",
    "cantor.falconer_lower_bound",
    "cantor.box_dimension_estimate",
    "cli.main",
)


class Tracer:
    """Per-name call counts and self seconds for the wrapped functions."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0] for name in SPANS}
        self.sites: list[str] = []
        self._stack: list[float] = []  # enclosed span seconds, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, stack = self.stats[name], self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                enclosed = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt - enclosed

        return span

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "primecf" or n.startswith("primecf.")}
        for name in SPANS:
            module, attr = name.split(".")
            target = getattr(modules[f"primecf.{module}"], attr)
            if isinstance(target, type):
                self._replace(target, "__init__", self._wrap(name, target.__init__))
                self.sites.append(f"{name}.__init__")
                continue
            span = self._wrap(name, target)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._replace(mod, key, span)
                        self.sites.append(f"{mod_name.removeprefix('primecf.')}.{key}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.sites.clear()

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {name: (c, s) for name, (c, s) in self.stats.items()}


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """primecf.cli.main in-process, with stdout and stderr captured."""
    import primecf.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = primecf.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_pass(argvs: list[list[str]], tracer: Tracer | None) -> list[dict]:
    results = []
    for argv in argvs:
        before = tracer.snapshot() if tracer else {}
        t0 = perf_counter()
        rc, out, err = run_command(argv)
        wall = perf_counter() - t0
        spans = {}
        if tracer:
            for name, (c, s) in tracer.snapshot().items():
                if c > before[name][0]:
                    spans[name] = [c - before[name][0], s - before[name][1]]
        results.append({"argv": argv, "rc": rc, "stdout": out, "stderr": err,
                        "wall_s": wall, "spans": spans})
    return results


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "readme"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    make = workloads.WORKLOADS.get(args.workload, workloads.readme_examples)
    argvs = [list(cmd.argv) for cmd in make(args.seed)]

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import primecf.cli  # noqa: F401
    import_s = perf_counter() - t0

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    commands = run_pass(argvs, tracer)
    wall_s = perf_counter() - t0
    json.dump({"import_s": import_s, "wall_s": wall_s, "commands": commands}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
