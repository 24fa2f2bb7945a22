"""The package's public surface, and what a command loads to run.

`primecf` registers its submodules lazily: each runs the first time one of
its attributes is read.  The import-budget tests run fresh interpreters and
record, through the `exec` audit event, which primecf modules were executed.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primecf

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `primecf/__init__.py` re-exported when it imported each
# submodule eagerly, by defining module
EXPORTS = {
    "cantor": [
        "BoxDimEstimate", "CantorLevel", "EBParams", "EBTree", "HolderReport",
        "LuczakParams", "alpha_identity_errors", "alpha_values",
        "box_dimension_estimate", "eb_prefix_tree", "falconer_limit",
        "falconer_lower_bound", "gap_check", "holder_check", "luczak_levels",
        "make_eb_params", "prime_block_constant",
    ],
    "contfrac": [
        "ContinuantPair", "FundamentalInterval", "check_continuant_bounds",
        "continuants", "expand_rational", "expand_real", "fundamental_interval",
        "union_measure",
    ],
    "errors": [
        "BracketError", "ConstructionInfeasibleError", "DivergentSeriesError",
        "EnumerationGuardError", "GuardError", "OutOfRangeError",
        "UndefinedExponentError",
    ],
    "measure": [
        "BBSeriesReport", "LevelSetMeasure", "MCExperiment", "ZeroOneReport",
        "borel_bernstein_table", "level_set_measure", "run_zero_one_experiment",
    ],
    "pressure": [
        "DimensionReport", "GrowthExponents", "PressureProblem", "classify_growth",
        "dimensional_number", "f_ell", "hwx_dimension", "partition_sum",
    ],
    "primes": ["PrimeSieve", "almost_primes", "is_prime_trial", "primes_in"],
    "zeta": [
        "AsymptoticRatioRow", "TailSumResult", "asymptotic_table", "pzeta_tail",
        "pzeta_via_mobius", "zeta_em",
    ],
}
OLD_NAMES = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)

# Defines `ran` (the primecf modules executed so far, in order) and `report`,
# which prints it, with the state of sys.modules, as one JSON line.
PROBE = """
import json, sys
from pathlib import Path
PACKAGE = Path({package!r})
ran = []

def audit(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None):
        path = Path(args[0].co_filename)
        if path.parent == PACKAGE:
            ran.append("primecf" if path.stem == "__init__" else "primecf." + path.stem)

sys.addaudithook(audit)

def report(**extra):
    print(json.dumps({{"ran": ran, "mpmath": "mpmath" in sys.modules,
                      "numpy": "numpy" in sys.modules,
                      "modules": sorted(m for m in sys.modules if m.startswith("primecf")),
                      **extra}}))
"""


def fresh(code: str, **env: str | None) -> dict:
    """The report of `code`, run after PROBE in a fresh interpreter, with the
    environment variables `env` set (or, given None, unset)."""
    environ = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(package=str(SRC / "primecf")) + code],
        env={k: v for k, v in environ.items() if v is not None}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def run_main(argv: list[str], **env: str | None) -> dict:
    """The report after `primecf.cli.main(argv)` in a fresh interpreter, with
    the command's exit code, OPENBLAS_NUM_THREADS as main left it and the
    process's thread count (None without /proc/self/task); its output is
    discarded."""
    return fresh(f"""
import contextlib, io, os
from primecf.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main({argv!r})
task = "/proc/self/task"
report(rc=rc, blas=os.environ.get("OPENBLAS_NUM_THREADS"),
       threads=len(os.listdir(task)) if os.path.isdir(task) else None)
""", **env)


# ---------------------------------------------------------------------------
# public surface


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_reexports_are_the_defining_modules_objects(module):
    defining = importlib.import_module(f"primecf.{module}")
    assert getattr(primecf, module) is defining
    for name in EXPORTS[module]:
        assert getattr(primecf, name) is getattr(defining, name), name


def test_listings_cover_the_old_names():
    assert OLD_NAMES <= set(primecf.__all__)
    assert OLD_NAMES <= set(dir(primecf))
    namespace = {}
    exec("from primecf import *", namespace)
    assert OLD_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(primecf, name) for name in OLD_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        primecf.no_such_name
    assert not hasattr(primecf, "schema")


def test_schema_for_stays_lazy():
    got = fresh("""
import primecf
loaded = "primecf.cli" in sys.modules
import primecf.cli
report(loaded=loaded, same=primecf.schema_for is primecf.cli.schema_for)
""")
    assert got["loaded"] is False
    assert got["same"] is True


# ---------------------------------------------------------------------------
# import budget


def test_package_import_executes_only_the_package():
    got = fresh("import primecf\nreport()")
    assert got["ran"] == ["primecf"]
    assert got["mpmath"] is False
    assert {f"primecf.{m}" for m in EXPORTS} <= set(got["modules"])


def test_cli_import_executes_only_what_the_parser_needs():
    got = fresh("import primecf.cli\nreport()")
    assert sorted(got["ran"]) == ["primecf", "primecf.cli", "primecf.errors"]
    assert got["mpmath"] is False
    assert got["numpy"] is False


@pytest.mark.parametrize("argv", [
    ["eb-build", "--B", "4", "--ell", "3", "--s", "0.6", "--delta", "0.01", "--depth", "1"],
    ["luczak-dim", "--b", "2", "--c", "2", "--kmax", "5", "--sieve", "1000"],
    ["box-dim", "--b", "2", "--c", "2", "--kmax", "2", "--sieve", "1000"],
    ["pressure-dim", "--ell", "1", "--B", "2", "--M", "20", "--n", "8"],
    ["interval-measure", "--ell", "2", "--threshold", "50", "--cutoff", "1000"],
    ["cf-expand", "--rational", "0.3183", "--bits", "40"],
], ids=lambda argv: argv[0])
def test_commands_without_mpf_values_never_import_mpmath(argv):
    got = run_main(argv)
    assert got["rc"] == 0
    assert got["mpmath"] is False


@pytest.mark.parametrize("argv", [
    ["cf-expand", "--rational", "113/355"],
    ["cf-expand", "--rational", "0.3183", "--bits", "40"],
    # the README's example: the line fit needs neither numpy nor a sieve
    ["box-dim", "--covers", "0.333,0.333;0.111,0.111,0.111,0.111"],
], ids=lambda argv: argv[-2])
def test_cf_expand_never_imports_numpy(argv):
    got = run_main(argv)
    assert got["rc"] == 0
    assert got["numpy"] is False


@pytest.mark.parametrize("argv", [
    ["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1000"],
    ["mc-zero-one", "--ell", "1", "--phi", "n*n", "--window", "2,5", "--samples", "10",
     "--sieve", "1000"],
    ["hwx-dim", "--ell", "1", "--phi", "2**(2**n)", "--window", "10,20"],
    ["bb-series", "--ell", "1", "--phi", "n*n", "--window", "2,5"],
], ids=lambda argv: argv[0])
def test_commands_that_need_mpmath_load_it_and_run(argv):
    got = run_main(argv)
    assert got["rc"] == 0
    assert got["mpmath"] is True


# ---------------------------------------------------------------------------
# BLAS threads

PRESSURE_DIM = ["pressure-dim", "--ell", "1", "--B", "2", "--M", "20", "--n", "8"]


@pytest.mark.parametrize("caller", [None, ""], ids=["unset", "empty"])
def test_a_command_runs_blas_on_one_thread(caller):
    # an empty value, like none, would start an OpenBLAS thread per core
    got = run_main(PRESSURE_DIM, OPENBLAS_NUM_THREADS=caller)
    assert got["rc"] == 0
    assert got["numpy"] is True
    assert got["blas"] == "1"
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert got["threads"] == 1


def test_a_callers_blas_thread_count_is_kept():
    got = run_main(PRESSURE_DIM, OPENBLAS_NUM_THREADS="2")
    assert got["rc"] == 0
    assert got["blas"] == "2"


def test_main_after_numpy_loads_leaves_the_environment(monkeypatch, capsys):
    # numpy's thread pool already runs in this process, as set by its caller
    from primecf import cli

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert cli.main(PRESSURE_DIM) == 0
    assert dict(os.environ) == before
