import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from primecf import cantor, cli, errors, measure, primes, zeta
from primecf.cantor import eb_prefix_tree, make_eb_params
from primecf.cli import COMMANDS, main, parse_phi, schema_for
from primecf.contfrac import expand_rational
from primecf.measure import level_set_measure
from primecf.primes import PrimeSieve
from primecf.zeta import pzeta_tail

import argparse

import output_digests  # tests/output_digests.py; pytest puts tests/ on sys.path

README = Path(__file__).resolve().parents[1] / "README.md"
# stdout, stderr and exit code, by sha256, of every argv in
# `output_digests.corpus()`; `python tests/output_digests.py --write`
# rewrites them
DIGESTS = output_digests.stored()


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of main(), also when argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_digest(argv, code, out, err):
    assert output_digests.digest(code, out, err) == DIGESTS[shlex.join(argv)]


def parse_csv(out: str):
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if l and not l.startswith("#")]
    table = list(csv.reader(data))
    header, rows = table[0], table[1:]
    return comments, header, [dict(zip(header, r)) for r in rows]


def parse_summary(comment_line: str) -> dict:
    out = {}
    for token in comment_line[2:].split(" "):
        key, _, val = token.partition("=")
        out[key] = val
    return out


def _blank_or(value):
    return lambda v: v if v == "" else value(v)


# The JSON value of each kind's values, kept apart from the writer: the
# JSON output must hold what json.dumps(indent=2) prints for these.  Every
# enum is a string.
JSON_VALUE = {id(kind): value for kind, value in [
    (cli.NUMBER, float), (cli.MPF, float), (cli.INTEGER, int), (cli.STRING, str),
    (cli.BOOLEAN, bool), (cli.FRACTION, "{0[0]}/{0[1]}".format), (cli.DIGITS, list),
    (cli.BLANK_OR_INTEGER, _blank_or(int)), (cli.BLANK_OR_NUMBER, _blank_or(float))]}


def json_value(kind: cli.Kind, v):
    return str(v) if "enum" in kind.schema else JSON_VALUE[id(kind)](v)


# one cheap, deterministic invocation per subcommand
INVOCATIONS = {
    "pzeta-tail": ["--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1000"],
    "pzeta-asymptotic": ["--ell", "1", "--s", "2", "--grid", "10,100",
                         "--cutoff", "1000"],
    "cf-expand": ["--rational", "113/355"],
    "interval-measure": ["--ell", "1", "--threshold", "10", "--cutoff", "1000"],
    "pressure-dim": ["--ell", "1", "--B", "2", "--M", "5", "--n", "3"],
    "hwx-dim": ["--ell", "1", "--phi", "2**(2**n)", "--window", "10,20"],
    "mc-zero-one": ["--ell", "1", "--phi", "2", "--window", "1,2",
                    "--samples", "20", "--seed", "3", "--sieve", "100000"],
    "bb-series": ["--ell", "1", "--phi", "n*n", "--window", "2,10"],
    "luczak-dim": ["--b", "2", "--c", "2", "--kmax", "3", "--sieve", "100000"],
    "eb-build": ["--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01",
                 "--M", "3", "--sieve", "2000"],
    "box-dim": ["--covers", "0.5,0.5;0.25,0.25,0.25"],
}


def _cell_fits(cell: str, schema: dict) -> bool:
    """Whether a CSV cell reads back as a value of the declared kind whose
    JSON-schema fragment is `schema`; a blank fits only a blank-or-... kind."""
    types = schema["type"]
    if isinstance(types, list):
        return cell == "" or _cell_fits(cell, {"type": types[0]})
    if types == "number":
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False
    if types == "string":
        if "enum" in schema:
            return cell in schema["enum"]
        return re.search(schema.get("pattern", "."), cell) is not None
    pattern = {"integer": r"-?\d+", "boolean": "true|false", "array": r"\[(\d+(,\d+)*)?\]"}
    return re.fullmatch(pattern[types], cell) is not None


def _summary_line(comment: str) -> dict:
    """key=value pairs of a summary comment; a value may hold spaces."""
    return dict(kv.split("=", 1) for kv in re.split(r" (?=\w+=)", comment[2:]))


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
def test_reproducible_and_schema_valid(capsys, command):
    argv = [command, *INVOCATIONS[command]]
    code1, csv1, _ = run_cli(capsys, argv + ["--format", "csv"])
    code2, csv2, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code1 == code2 == 0
    assert csv1 == csv2
    sub = COMMANDS[command]
    comments, header, rows = parse_csv(csv1)
    assert header == list(sub.columns)
    assert rows
    for row in rows:
        for name, cell in row.items():
            assert _cell_fits(cell, sub.columns[name].schema), (name, cell)
    if sub.summary is not None:
        summary = _summary_line(comments[1])
        assert list(summary) == list(sub.summary)
        for name, cell in summary.items():
            assert _cell_fits(cell, sub.summary[name].schema), (name, cell)
    code3, json1, _ = run_cli(capsys, argv + ["--format", "json"])
    code4, json2, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code3 == code4 == 0
    assert json1 == json2
    obj = json.loads(json1)
    assert obj["schema"] == f"{command}.schema.json"
    assert obj["command"] == command
    jsonschema.validate(instance=obj, schema=schema_for(command))


def _json_of_cell(cell: str, schema: dict):
    """A comment-line cell as the JSON value of its kind: a real at 20
    digits reads back as its double, an integer exactly, a string as is."""
    return {"number": float, "integer": int}.get(schema["type"], str)(cell)


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
def test_csv_comment_lines_are_the_declared_rows(capsys, command):
    # after the echo, each comment line is one row: the summary's, then
    # each extra block's in declared order, led by its key, as `key=value`
    # cells of the declared fields in declared order, holding the values
    # of the JSON output
    sub = COMMANDS[command]
    argv = [command, *INVOCATIONS[command]]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    comments = parse_csv(out)[0]
    assert comments[0].startswith(f"# {command} ")
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    obj = json.loads(out)
    declared = [("#", sub.summary, [obj["summary"]])] if sub.summary is not None else []
    declared += [(f"# {key}", fields, obj[key]) for key, fields in (sub.extra or {}).items()]
    lines = iter(comments[1:])
    for lead, fields, rows in declared:
        pattern = re.escape(lead) + "".join(f" {re.escape(name)}=(.*?)" for name in fields)
        for row in rows:
            cells = re.fullmatch(pattern, next(lines)).groups()
            assert [_json_of_cell(cell, fields[name].schema)
                    for cell, name in zip(cells, fields)] == list(row.values())
    assert next(lines, None) is None


def _workloads():
    """perfbench/workloads.py, loaded by path as it stands."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_workloads_parse(seed):
    # every argv the benchmark runs parses, so no flag it uses is dropped
    workloads = _workloads()
    parser = cli.build_parser()
    argvs = [cmd.argv for make in workloads.WORKLOADS.values() for cmd in make(seed)]
    assert len(argvs) == 14
    for argv in argvs:
        assert parser.parse_args(list(argv)).command == argv[0]


def test_readme_examples_verbatim(capsys):
    examples = re.findall(r"```\n\$ primecf (.*?)\n(.*?)```", README.read_text(), re.DOTALL)
    assert [shlex.split(line)[0] for line, _ in examples] == [
        "cf-expand", "pzeta-tail", "hwx-dim"]
    for line, shown in examples:
        code, out, _ = run_cli(capsys, shlex.split(line))
        assert code == 0
        assert out == shown


def test_readme_output_digests():
    examples = output_digests.compute(output_digests.readme_examples())
    assert {line: DIGESTS.get(line) for line in examples} == examples


def test_output_digests_cover_the_corpus():
    # one stored digest per argv of the corpus, none for an argv outside it
    assert list(DIGESTS) == list(dict.fromkeys(map(shlex.join, output_digests.corpus())))


# Environment settings under which numpy, OpenBLAS and glibc's libm take the
# code paths of another CPU: OpenBLAS's Sandybridge kernels, numpy's loops
# without AVX-512 or AVX2 (its X86_V2 baseline), and libm without its AVX2
# and FMA variants (of pow and exp, among others); and OpenBLAS on two
# threads, where `main` would otherwise ask for one.  They act only on the child.
LIBM_MASK = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}
OTHER_DISPATCH = [{"OPENBLAS_CORETYPE": "Sandybridge"},
                  {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
                  LIBM_MASK,
                  {"OPENBLAS_NUM_THREADS": "2"}]
# 616 ** -1.2 as glibc 2.36's pow computes it without FMA; with FMA it is
# 0x1.d716cf7826f85p-12
LIBM_CANARY = "0x1.d716cf7826f84p-12"


def test_output_digests_hold_under_other_cpu_dispatch():
    # every argv of the corpus prints the stored bytes whichever BLAS kernel,
    # numpy SIMD loop or libm variant the CPU selects, and on any number of
    # BLAS threads: no printed digit comes from LAPACK, BLAS or a dispatched
    # transcendental loop, and none from a libm result that an FMA variant
    # rounds otherwise
    script = Path(output_digests.__file__)
    src = str(script.parents[1] / "src")
    for setting in OTHER_DISPATCH:
        env = {**os.environ, **setting,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=env)
        assert (run.returncode, run.stdout, run.stderr) == (0, "", ""), setting
    # the libm mask must move libm where this host's pow takes an FMA path,
    # or the run under it would repeat the default one
    canary = (616 ** -1.2).hex()
    if canary != LIBM_CANARY:
        masked = subprocess.run([sys.executable, "-c", "print((616 ** -1.2).hex())"],
                                capture_output=True, text=True, check=True,
                                env={**os.environ, **LIBM_MASK}).stdout.strip()
        assert masked != canary


# sha256 of the exact or correctly rounded columns (depth, word, diam, lo,
# hi) of every row plus gap_min; mu, and holder_max from it, come from
# numpy's vectorized np.log and np.exp loops, whose last bits follow the
# CPU's SIMD dispatch.
# EB_JSON_PIN hashes the same in JSON: the raw "rows" block without its
# "mu" lines, then the raw "gap_min" line.  EB3_PIN, of the benchmark's
# 44,530-row ell = 3 tree, was computed when each endpoint was a Fraction
# and gap_check sorted every level by it.
EB_PIN = "1be1ecba7a0182c55f038d3c646f37c0290ee76acd7580720187d32a7ffe8249"
EB_JSON_PIN = "e475bb21814ddae7760135e43ff54c5bb58a4f4f33c07eabbd9d3245e4149ad7"
EB3_PIN = "ff63c15ecdce76b307e4b827bd5a3f5b9c73a6c87fe9af11bbdcfca6320b135d"
EB_PIN_ARGV = ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01",
               "--M", "3", "--depth", "6"]
EB3_PIN_ARGV = ["eb-build", "--B", "4", "--ell", "3", "--s", "0.6", "--delta", "0.01"]


def _exact_columns_digest(out: str) -> tuple[int, str]:
    """Row count and sha256 of a CSV eb-build's exact columns plus gap_min."""
    lines = out.splitlines(keepends=True)
    summary = dict(kv.split("=", 1) for kv in lines[1][2:].split())
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    digest = hashlib.sha256()
    for row in rows:
        cells = ",".join(row[k] for k in ("depth", "word", "diam", "lo", "hi"))
        digest.update(cells.encode() + b"\n")
    digest.update(f"gap_min={summary['gap_min']}".encode())
    return len(rows), digest.hexdigest()


def test_eb_build_exact_columns_pinned(capsys):
    code, out, _ = run_cli(capsys, EB_PIN_ARGV + ["--format", "json"])
    assert code == 0
    lines = out.splitlines(keepends=True)
    start = lines.index('  "rows": [\n')
    kept = [line for line in lines[start:lines.index("  ],\n", start) + 1]
            if '"mu":' not in line]
    kept += [line for line in lines if line.lstrip().startswith('"gap_min":')]
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == EB_JSON_PIN
    code, out, _ = run_cli(capsys, EB_PIN_ARGV)
    assert code == 0
    assert _exact_columns_digest(out) == (489, EB_PIN)
    code, out, _ = run_cli(capsys, EB3_PIN_ARGV)
    assert code == 0
    assert _exact_columns_digest(out) == (44_530, EB3_PIN)


def _mass_recurrence(params, tree):
    """mu of a word by the mass recurrence along its positions, in the
    tree's arithmetic: each prime position splits uniformly, each completed
    sub-block multiplies in its weight, and the unfinished sub-block's
    closure comes last."""
    M = params.M
    _, sigma = cantor._block_masses(M, params.N, params.alphas[0], params.s)
    roles, completes = params.position_roles(len(tree.levels))

    def mass(word) -> float:
        k, i, carried = 0, 0, 1.0
        for (role, _, _), done, d, digits in zip(roles, completes, word, tree.digit_sets):
            if role == "prime":
                k, i, carried = 0, 0, carried / len(digits)
            elif done:
                k, i, carried = 0, 0, carried * sigma[-1][i * M + d - 1]
            else:
                k, i = k + 1, i * M + d - 1
        return carried * sigma[k][i]

    return mass


def _row_at_a_time(argv: list[str]) -> str:
    """The stdout of `argv` rendered one row at a time: each row's values
    through the declared `Kind.cell` into csv.writer, or as their JSON
    values (`json_value`) into json.dumps(indent=2).  eb-build's rows are
    read node by node from `EBTree.records`, with mu recomputed word by word
    (`_mass_recurrence`) and holder_max from those rows; the echo, the
    extra blocks (a CSV comment line of each row) and the other rows and
    summary fields are the handler's."""
    args = cli.build_parser().parse_args(argv)
    sub = COMMANDS[args.command]
    out = sub.handler(args)
    rows = [dict(zip(block, values)) for block in out.blocks
            for values in zip(*block.values())]
    summary = out.summary
    if args.command == "eb-build":
        sv = PrimeSieve(args.sieve)
        params = make_eb_params(args.B, args.ell, args.s, args.delta, sv, M=args.M, N=args.N)
        tree = eb_prefix_tree(params, out.inputs["depth"], sv)
        rows = [dict(zip(sub.columns, record)) for record in tree.records()]
        mass = _mass_recurrence(params, tree)
        for r in rows:
            r["mu"] = mass(r["word"])
        exponent = args.s * (1 - args.delta) - args.delta
        summary = {**summary,
                   "holder_max": max(r["mu"] / r["diam"] ** exponent for r in rows)}
    inputs = {cli._dest(flag): getattr(args, cli._dest(flag)) for flag, _ in sub.args}
    inputs = {k: v for k, v in (inputs | out.inputs).items() if v is not None}
    extra = {key: [{k: json_value(sub.extra[key][k], v) for k, v in r.items()} for r in block]
             for key, block in (out.extra or {}).items()}
    if args.format == "json":
        obj = {"schema": f"{sub.name}.schema.json", "command": sub.name, "inputs": inputs,
               "rows": [{k: json_value(sub.columns[k], v) for k, v in r.items()} for r in rows]}
        if summary is not None:
            obj["summary"] = {k: json_value(sub.summary[k], v) for k, v in summary.items()}
        return json.dumps(obj | extra, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(f"# {sub.name} " + " ".join(f"{k}={cli._echo(v)}" for k, v in inputs.items())
              + "\n")
    if summary is not None:
        buf.write("# " + " ".join(f"{k}={sub.summary[k].cell(v)}" for k, v in summary.items())
                  + "\n")
    for key, block in (out.extra or {}).items():
        buf.writelines(f"# {key} " + " ".join(f"{k}={sub.extra[key][k].cell(v)}"
                                              for k, v in r.items()) + "\n" for r in block)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sub.columns)
    for r in rows:
        writer.writerow([sub.columns[k].cell(v) for k, v in r.items()])
    return buf.getvalue()


REFERENCE_RENDER_ARGVS = [
    *(argv + ["--format", fmt] for argv in (EB_PIN_ARGV, EB3_PIN_ARGV)
      for fmt in ("csv", "json")),
    *(["luczak-dim", "--b", "2", "--c", "2", "--kmax", "20", "--format", fmt]
      for fmt in ("csv", "json")),
]


@pytest.mark.parametrize("argv", REFERENCE_RENDER_ARGVS,
                         ids=[" ".join(argv) for argv in REFERENCE_RENDER_ARGVS])
def test_column_render_matches_row_at_a_time(capsys, argv):
    # the whole stdout, mu and holder_max included, which the exact-column
    # pins skip; luczak-dim's deep levels print blank cells
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    # compared line by line: pytest reports the first differing line, where
    # a diff of the whole text would take minutes
    assert out.splitlines(keepends=True) == _row_at_a_time(argv).splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refusal_names_the_first_value_in_row_order(fmt):
    # row 0's second field and row 1's first field have no finite double; a
    # row-at-a-time render meets row 0's first, and so must a check that
    # scans column by column
    sub = cli.Subcommand("two", "", lambda args: None, args=(),
                         columns={"a": cli.NUMBER, "b": cli.NUMBER})
    block = {"a": [1.0, math.inf], "b": [-math.inf, 2.0]}
    with pytest.raises(errors.OutOfRangeError, match=r"^b = -inf has no finite double$"):
        "".join(cli._emit(sub, fmt, {}, cli.Output([{"a": [0.0], "b": [0.5]}, block])))
    # a blank or a zero passes; a later block is checked in its turn
    blank = cli.Subcommand("blank", "", lambda args: None, args=(),
                           columns={"a": cli.BLANK_OR_NUMBER, "b": cli.NUMBER})
    good = {"a": ["", 0.0, -0.0], "b": [0, 1e308, 5e-324]}
    assert "".join(cli._emit(blank, fmt, {}, cli.Output([good])))
    with pytest.raises(errors.OutOfRangeError, match=r"^a = inf has no finite double$"):
        "".join(cli._emit(blank, fmt, {},
                          cli.Output([good, {"a": ["", math.inf], "b": [1.0, 2.0]}])))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refusal_in_a_late_block_prints_nothing(capsys, monkeypatch, fmt):
    # only the last of three blocks holds a non-finite value; with one row a
    # chunk, an output that wrote before checking every block would print
    # the first two
    blocks = [{"a": [1.0, 2.0]}, {"a": [3.0]}, {"a": [4.0, math.inf]}]
    stub = cli.Subcommand("stub", "", lambda args: cli.Output(iter(blocks)), args=(),
                          columns={"a": cli.NUMBER})
    monkeypatch.setitem(COMMANDS, "stub", stub)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 1)
    code, out, err = run_cli(capsys, ["stub", "--format", fmt])
    assert (code, out, err) == (3, "", "OutOfRangeError: a = inf has no finite double\n")


EDGE = cli.Subcommand(
    "edge", "", lambda args: None, args=(),
    columns={"x": cli.NUMBER, "m": cli.MPF, "i": cli.INTEGER, "s": cli.STRING,
             "b": cli.BOOLEAN, "f": cli.FRACTION, "d": cli.DIGITS,
             "bi": cli.BLANK_OR_INTEGER, "bx": cli.BLANK_OR_NUMBER,
             "e": cli.enum("ok", "caf\u00e9 \"x\"")},
    summary={"x": cli.NUMBER, "s": cli.STRING},
    extra={"more": {"s": cli.STRING, "i": cli.INTEGER},
           "less": {"s": cli.STRING, "i": cli.INTEGER}})
EDGE_ROWS = [
    {"x": -0.0, "m": mp.mpf("1e308"), "i": 2**63, "s": "caf\u00e9 \"quoted\" \\", "b": True,
     "f": (-3, 7), "d": (), "bi": "", "bx": "", "e": "ok"},
    {"x": 5e-324, "m": mp.mpf(-1) / 3, "i": -(2**70) - 1, "s": "\u65e5\u672c \U0001f600\n\t",
     "b": False, "f": (10**40 + 1, 3**90), "d": (1, 2, 1013), "bi": 0, "bx": -0.0,
     "e": "caf\u00e9 \"x\""},
    {"x": np.float64(1e308), "m": mp.mpf(0), "i": 0, "s": "", "b": False, "f": (0, 1),
     "d": (7,), "bi": 2**64, "bx": 1e-300, "e": "ok"},
]


def _edge_output(rows: list[dict]) -> cli.Output:
    # the rows split into blocks of one and two rows, or no block at all
    blocks = [cli._columns(rows[:1]), cli._columns(rows[1:])]
    return cli.Output([block[0] for block in blocks if block],
                      {"x": 1e308, "s": 'the "rows" key: []'},
                      extra={"more": [{"s": "\u00fc", "i": 2**65}], "less": []})


@pytest.mark.parametrize("chunk_rows", [1, 2, cli.CHUNK_ROWS])
@pytest.mark.parametrize("rows", [EDGE_ROWS, EDGE_ROWS[:1], []],
                         ids=["three rows", "one row", "no rows"])
def test_json_rows_match_json_dumps(monkeypatch, rows, chunk_rows):
    # every kind's JSON text against json.dumps(indent=2) of its JSON value,
    # at chunk sizes that split the rows and that do not; inputs that look
    # like the frame's own "rows" key stay in the head
    inputs = {"phi": '\n  "rows": []', "window": (10, 20), "n": 2**64}
    out = _edge_output(rows)
    want = {"schema": "edge.schema.json", "command": "edge", "inputs": inputs,
            "rows": [{k: json_value(EDGE.columns[k], v) for k, v in row.items()} for row in rows],
            "summary": {k: json_value(EDGE.summary[k], v) for k, v in out.summary.items()},
            "more": [{"s": "\u00fc", "i": 2**65}], "less": []}
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    got = "".join(cli._emit(EDGE, "json", inputs, out))
    assert got == json.dumps(want, indent=2) + "\n"
    if not rows:
        assert '\n  "rows": [],\n' in got


def _row_field_text(value) -> str:
    """The text json.dumps(indent=2) prints for `value` as a field of an
    item of the frame's rows."""
    head, tail = '{\n  "rows": [\n    {\n      "k": ', "\n    }\n  ]\n}"
    text = json.dumps({"rows": [{"k": value}]}, indent=2)
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head):-len(tail)]


def test_edge_rows_cover_every_kind():
    kinds = [v for v in vars(cli).values() if isinstance(v, cli.Kind)]
    assert all(any(kind is k for k in EDGE.columns.values()) for kind in kinds)
    assert any("enum" in kind.schema for kind in EDGE.columns.values())


@pytest.mark.parametrize("name", list(EDGE.columns))
def test_kind_json_is_json_dumps_of_its_value(name):
    kind = EDGE.columns[name]
    for row in EDGE_ROWS:
        assert kind.json(row[name]) == _row_field_text(json_value(kind, row[name])), row[name]


def test_only_rows_declare_an_array_kind():
    # DIGITS, the one array kind, writes its JSON text at a row field's
    # indent; a schema type is a name or a list of names, and no other JSON
    # type name holds "array"
    for sub in COMMANDS.values():
        for fields in [sub.summary or {}, *(sub.extra or {}).values()]:
            assert all("array" not in kind.schema["type"] for kind in fields.values()), sub.name


def test_empty_block_prints_no_rows():
    # a block of no rows prints the CSV header but no row, and "rows": [] in JSON
    sub = cli.Subcommand("empty", "", lambda args: None, args=(),
                         columns={"a": cli.NUMBER, "d": cli.DIGITS})
    out = cli.Output([{"a": [], "d": []}])
    assert "".join(cli._emit(sub, "csv", {}, out)) == "# empty \na,d\n"
    text = "".join(cli._emit(sub, "json", {}, out))
    assert json.loads(text)["rows"] == [] and '"rows": []' in text


def test_eb_tree_is_written_in_bounded_chunks_within_a_memory_bound(monkeypatch):
    # the ell = 3 tree (44,530 rows, 4.4 MB of CSV) built, checked and
    # written: a Python-side peak of about 16.4 MB, where a tree with word
    # and numerator columns and the output held as one string took 24.7 MB
    # (numpy, which the CLI imports on first use, is imported here already)
    class Stdout:
        def __init__(self):
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))

        def flush(self):
            pass

    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        assert main(EB3_PIN_ARGV) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert sum(stdout.sizes) == 4_438_670
    assert len(stdout.sizes) > 1 and max(stdout.sizes) < 2**20


def test_a_reader_that_leaves_early_gets_no_traceback():
    # the ell = 3 tree is 4.4 MB of CSV, far more than a pipe holds: the
    # reader takes one line and closes, and the next write meets a broken pipe
    src = str(Path(cli.__file__).parents[1])
    code = "import sys; from primecf.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen([sys.executable, "-c", code, *EB3_PIN_ARGV],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141  # 128 + SIGPIPE, as a shell reports a writer SIGPIPE ends
    assert first.startswith(b"# eb-build B=4.0 ell=3 ")
    assert err == b""


@pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                               1 / 3, np.float64(0.1), np.float64(-7.5e-310),
                               np.float64(1e308), 0, 7, -12, 10**25])
def test_number_cell_is_twenty_digit_format(v):
    assert cli.NUMBER.cell(v) == format(v, ".20g")


@pytest.mark.parametrize("n, d", [(0, 1), (-3, 7), (113, 355), (10**40 + 1, 3**90)])
def test_fraction_cell_is_num_den(n, d):
    assert cli.FRACTION.cell((n, d)) == f"{n}/{d}"
    assert cli.FRACTION.json((n, d)) == json.dumps(f"{n}/{d}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_ignores_the_hash_seed(fmt):
    # str and bytes hashes vary with PYTHONHASHSEED; no printed order may
    # follow them
    argv = [sys.executable, "-m", "primecf.cli", *EB_PIN_ARGV, "--format", fmt]
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(argv, capture_output=True, env=env, check=True)
        digests.add(hashlib.sha256(run.stdout).hexdigest())
    assert len(digests) == 1


# Whole stdout, stderr and exit code, held to their digests in the corpus,
# beside INVOCATIONS in both formats.
OUTPUT_PINS = [
    # The cf-expand stdout was pinned when expand_real still certified each
    # digit by an interval-containment test, a route independent of the
    # current common prefix of two Euclid streams, and re-pinned when its echo
    # line alone changed (`input=` became `real=`, then `rational=` when
    # --real, which parsed the same text, was folded into --rational); the
    # mc-zero-one stdout fixes the counter-based word stream of the exact
    # conditional-law sampler.
    ["mc-zero-one", "--ell", "2", "--phi", "n*log(n)**2", "--window", "10,200",
     "--samples", "200", "--seed", "1"],
    ["cf-expand", "--rational", "0.318309886183790671537767526745", "--bits", "80"],
    # Whole stdout pinned when box-dim still listed every digit word of a
    # level and measured each word's cylinder, and re-pinned when the line
    # fit became exact in Fractions.
    ["box-dim", "--b", "2", "--c", "2", "--kmax", "3", "--sieve", "1000000"],
    ["box-dim", "--b", "2", "--c", "2", "--kmax", "3", "--sieve", "1000000",
     "--format", "json"],
    ["box-dim", "--b", "2", "--c", "1.1", "--kmax", "4", "--sieve", "100000"],
    ["box-dim", "--b", "2", "--c", "1.1", "--kmax", "4", "--sieve", "100000",
     "--format", "json"],
    # The benchmark's integer-exponent zeta tails at cutoff 10^6, whose half a
    # million terms mostly take the limb division, in CSV.  Then the dimension
    # workload's pressure roots at seed 1 (the M = 1000 collocation root, the
    # enumerated root, the hwx-dim root) and one root bisected down to 1e-15,
    # whose digests predate the Illinois search in `dimensional_number`.  Last
    # a tail on the mpf power route of `zeta._unit_sum` (s = 2.3 has no exact
    # root), 9,567 terms; the segment-edge pins below hold other s = 2.3 tails.
    ["pzeta-tail", "--ell", "3", "--s", "2", "--M", "100", "--cutoff", "1000000"],
    ["pzeta-asymptotic", "--ell", "2", "--s", "2", "--grid", "1e3,1e4,1e5",
     "--cutoff", "1000000"],
    ["pressure-dim", "--ell", "1", "--B", "2.814168", "--M", "1000", "--n", "30"],
    ["pressure-dim", "--ell", "2", "--B", "10.005893", "--M", "6", "--n", "6",
     "--method", "enumerate"],
    ["hwx-dim", "--ell", "1", "--phi", "2.149**n", "--window", "10,300"],
    ["pressure-dim", "--ell", "3", "--B", "2", "--M", "100", "--n", "30", "--tol", "1e-15"],
    ["pzeta-tail", "--ell", "1", "--s", "2.3", "--M", "100", "--cutoff", "100000"],
    # Branches no other corpus argv enters: the `exactly` mask of
    # almost_primes; the plain-digit series for ell >= 2; the B = 1 case of
    # hwx-dim, and entries it skips because phi(n) <= 1; the pressure root
    # clamped to S_FLOOR; an ell = 2 measure with no pair above 2^12; an
    # empty prime window (lower = 0); an empty power sum (value = 0.0); and a
    # bb-series that skips every entry, whose CSV is its header alone and
    # whose JSON rows are an empty list.
    ["pzeta-tail", "--ell", "2", "--mode", "exactly", "--s", "2", "--M", "10",
     "--cutoff", "10000"],
    ["bb-series", "--ell", "2", "--phi", "n*n", "--window", "2,20"],
    ["hwx-dim", "--ell", "1", "--phi", "n", "--window", "10,1000"],
    ["hwx-dim", "--ell", "1", "--phi", "n-5", "--window", "5,300"],
    ["pressure-dim", "--ell", "1", "--B", "1000000", "--M", "2", "--n", "3"],
    ["interval-measure", "--ell", "2", "--threshold", "3", "--cutoff", "50"],
    ["interval-measure", "--ell", "1", "--threshold", "1000", "--cutoff", "500"],
    ["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "1e4", "--cutoff", "10000"],
    ["bb-series", "--ell", "2", "--phi", "1", "--window", "1,3"],
    ["bb-series", "--ell", "2", "--phi", "1", "--window", "1,3", "--format", "json"],
    # Almost primes are enumerated in segments of 2^17 integers, and the
    # tails summed as each segment arrives: thresholds and cutoffs on and next
    # to the edges 131072 and 262144, on the limb, square-root and mpf routes,
    # the last with a repeated threshold.  Pinned before the enumeration was
    # segmented.
    ["pzeta-tail", "--ell", "2", "--mode", "exactly", "--s", "2", "--M", "131072",
     "--cutoff", "262145"],
    ["pzeta-asymptotic", "--ell", "1", "--s", "2.5", "--grid", "131071,131073",
     "--cutoff", "262144"],
    ["pzeta-asymptotic", "--ell", "3", "--s", "2.3", "--grid", "131000,131072,131072",
     "--cutoff", "131200"],
    # The sampler walks each block's digit rows in groups and tests each
    # window as its last row arrives: a window deeper than 2^14 digits with
    # several samples, an ell longer than a group of rows, and ell = 3 windows
    # that straddle groups.  Pinned while each block still held every row.
    ["mc-zero-one", "--ell", "1", "--phi", "n", "--window", "1,20000", "--samples", "3",
     "--seed", "7"],
    ["mc-zero-one", "--ell", "40", "--phi", "2", "--window", "1,60", "--samples", "500",
     "--seed", "3"],
    ["mc-zero-one", "--ell", "3", "--phi", "8", "--window", "1,300", "--samples", "2000",
     "--seed", "5"],
    # Exact tails at dyadic s = a / 2^j, j = 1, 2, 3, whose terms are floors
    # of 2^j-th roots: the benchmark's s = 2.5 tail; s = 2.25 and 2.125;
    # s = 1.5 from k = 2, the widest span of k in one chunk; a = 63 with a
    # unit near 2^-790; and a three-threshold table at s = 3.5.  Pinned
    # while each term still took one Python division and j math.isqrt calls.
    ["pzeta-tail", "--ell", "1", "--s", "2.5", "--M", "100", "--cutoff", "3000000"],
    ["pzeta-tail", "--ell", "1", "--s", "2.25", "--M", "10", "--cutoff", "300000"],
    ["pzeta-tail", "--ell", "2", "--mode", "exactly", "--s", "2.125", "--M", "10",
     "--cutoff", "300000"],
    ["pzeta-tail", "--ell", "1", "--s", "1.5", "--M", "2", "--cutoff", "100000"],
    ["pzeta-tail", "--ell", "1", "--s", "31.5", "--M", "1000000", "--cutoff", "1100000"],
    ["pzeta-asymptotic", "--ell", "3", "--s", "3.5", "--grid", "10,1000,100000",
     "--cutoff", "300000"],
]


@pytest.mark.parametrize(
    "argv",
    [*([c, *INVOCATIONS[c], "--format", f] for c in sorted(INVOCATIONS) for f in ("csv", "json")),
     *OUTPUT_PINS],
    ids=[*(f"{c} {f}" for c in sorted(INVOCATIONS) for f in ("csv", "json")),
         *(" ".join(argv) for argv in OUTPUT_PINS)])
def test_output_layer_pinned(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert_digest(argv, code, out, err)


def test_cli_import_does_not_load_jsonschema():
    code = "import sys, primecf.cli; print('jsonschema' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


# -- per-command content ------------------------------------------------------

def test_pzeta_tail_cells(capsys):
    code, out, _ = run_cli(capsys, ["pzeta-tail", "--ell", "1", "--s", "2",
                                    "--M", "10", "--cutoff", "1000"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert comments[0].startswith("# pzeta-tail ell=1 mode=at-most s=2.0 M=10.0 cutoff=1000")
    assert header == ["value", "remainder_bound", "upper", "terms_used"]
    res = pzeta_tail(1, "at-most", 2, 10, 1000, PrimeSieve(1000))
    assert float(rows[0]["value"]) == pytest.approx(float(res.value), rel=1e-15)
    assert int(rows[0]["terms_used"]) == res.terms_used


def test_pzeta_asymptotic_stated_grid(capsys):
    code, out, _ = run_cli(capsys, ["pzeta-asymptotic", "--ell", "1", "--s", "2",
                                    "--grid", "1e3,1e4,1e5,1e6", "--cutoff", "10000000"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["M", "value", "ratio", "remainder_bound"]
    assert len(rows) == 4
    # criterion 02's band: every threshold, the largest too, sums real terms
    assert all(0.7 <= float(r["ratio"]) <= 1.5 for r in rows)
    assert all(float(r["value"]) > 0.0 for r in rows)


def test_cf_expand_rational(capsys):
    code, out, _ = run_cli(capsys, ["cf-expand", "--rational", "113/355"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows[0]["digits"] == "[3,7,16]"
    assert rows[0]["length"] == "3"
    assert rows[0]["reconstructed"] == "113/355"


def test_cf_expand_real_paths(capsys):
    # a decimal or num/den is exact without --bits, and the left end of a
    # 2^-bits ball with it
    want = "[" + ",".join(str(d) for d in expand_rational(21, 50)) + "]"
    for text in ("0.42", "21/50"):
        code, out, _ = run_cli(capsys, ["cf-expand", "--rational", text])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["digits"] == want
        code, out, _ = run_cli(capsys, ["cf-expand", "--rational", text, "--bits", "64"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["digits"].startswith("[2,2,1,1")
        assert want.startswith(rows[0]["digits"][:-1])
    # --rational is the one way to give the number
    code, out, err = run_cli(capsys, ["cf-expand", "--bits", "64"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("primecf cf-expand: error: the following arguments are"
                                    " required: --rational")


@pytest.mark.parametrize("flag, text", [
    ("--rational", "1" * 4301), ("--rational", "1/" + "1" * 4301),
    ("--rational", "0." + "0" * 4300 + "1"), ("--rational", "1e" + "0" * 4300 + "1"),
    ("--rational", "1e4300"), ("--rational", "-1e4300"),
])
def test_cf_expand_refuses_unprintable_rationals(capsys, flag, text):
    # a digit run int() will not read, or a numerator or denominator that
    # str() will not print, is refused before any digit is computed
    code, out, err = run_cli(capsys, ["cf-expand", f"{flag}={text}"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"ValueError: rational {text[:40]!r} needs more than 4300 decimal digits")


def test_cf_expand_prints_digits_at_the_limit(capsys):
    # 10^4299 has 4300 decimal digits, the most str() of an int prints
    code, out, _ = run_cli(capsys, ["cf-expand", "--rational", "1e-4299", "--max-len", "2"])
    assert code == 0
    row = parse_csv(out)[2][0]
    assert row["digits"] == "[1" + "0" * 4299 + "]"
    assert row["reconstructed"] == "1/1" + "0" * 4299


def test_interval_measure_cells(capsys):
    code, out, _ = run_cli(capsys, ["interval-measure", "--ell", "1",
                                    "--threshold", "10", "--cutoff", "1000"])
    assert code == 0
    _, header, rows = parse_csv(out)
    res = level_set_measure(1, 10, 1000, PrimeSieve(1000))
    assert rows[0]["lower"] == format(res.exact_lower, ".20g")
    assert rows[0]["upper"] == format(res.exact_upper, ".20g")
    assert int(rows[0]["terms"]) == res.terms


def test_pressure_dim_cell(capsys):
    code, out, _ = run_cli(capsys, ["pressure-dim", "--ell", "1", "--B", "2",
                                    "--M", "8", "--n", "4"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["t"]
    assert 0.5 < float(rows[0]["t"]) < 1.0


def test_hwx_dim_cases(capsys):
    code, out, _ = run_cli(capsys, ["hwx-dim", "--ell", "1",
                                    "--phi", "n*log(n)", "--window", "100,1200"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["case"] == "B=1"
    assert float(rows[0]["value"]) == 1.0
    code, out, _ = run_cli(capsys, ["hwx-dim", "--ell", "1",
                                    "--phi", "2**(2**n)", "--window", "10,40"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["case"] == "B=inf"
    logb = math.log(2) + math.log(math.log(2)) / 10  # window minimum at n = 10
    assert float(rows[0]["value"]) == pytest.approx(1 / (math.exp(logb) + 1), rel=1e-9)


def test_mc_zero_one_summary(capsys):
    code, out, _ = run_cli(capsys, ["mc-zero-one", "--ell", "1", "--phi", "2",
                                    "--window", "1,2", "--samples", "50",
                                    "--seed", "5", "--sieve", "100000"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["n", "hits", "fraction"]
    assert [r["n"] for r in rows] == ["1", "2"]
    summary = parse_summary(comments[1])
    assert int(summary["hit_count"]) <= 50
    assert float(summary["hit_fraction"]) == int(summary["hit_count"]) / 50


def test_bb_series_output(capsys):
    code, out, _ = run_cli(capsys, ["bb-series", "--ell", "2", "--phi", "n*n",
                                    "--window", "2,6", "--prime"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert "series=(log log phi)^(ell-1) / (phi log phi)" in comments[1]
    assert len(rows) == 5
    last = float(rows[-1]["partial"])
    assert last == pytest.approx(sum(float(r["term"]) for r in rows), rel=1e-12)


def test_csv_without_rows_prints_its_header(capsys):
    # phi = 1 skips every entry: the CSV still names its columns, as the
    # JSON prints "rows": []
    argv = ["bb-series", "--ell", "2", "--phi", "1", "--window", "1,3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert parse_summary(comments[1])["skipped"] == "3"
    assert (header, rows) == (["n", "term", "partial"], [])
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_luczak_dim_ratio_convergence(capsys):
    code, out, _ = run_cli(capsys, ["luczak-dim", "--b", "2", "--c", "2",
                                    "--kmax", "20"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert len(rows) == 20
    assert abs(float(rows[-1]["ratio"]) - 1 / 3) < 0.01
    summary = parse_summary(comments[1])
    assert summary["limit"] == "1/3"
    assert rows[0]["ratio"] == ""  # no ratio at k = 1
    # the default 10^6 table counts the primes of levels 1-4; level 5's
    # block, from 2^32, lies beyond it
    assert [r["true_count"] for r in rows[:5]] == ["3", "9", "81", "11162", ""]


def test_luczak_dim_sieved_blocks(capsys):
    code, out, _ = run_cli(capsys, ["luczak-dim", "--b", "2", "--c", "2",
                                    "--kmax", "4", "--sieve", "1000000"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[2]["block_lo"] == "256"
    assert rows[2]["block_hi"] == "768"
    assert rows[2]["true_count"] == "81"


def test_luczak_dim_blocks_at_the_table_edge(capsys):
    # floor(3 x) = 3 at k = 1 and 2 (x = 1.1^1.5, 1.1^2.25), so [2, 3] fits a
    # table to 3; at k = 3, 3 x = 4.14 passes it
    code, out, _ = run_cli(capsys, ["luczak-dim", "--b", "1.5", "--c", "1.1",
                                    "--kmax", "3", "--sieve", "3"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [(r["block_lo"], r["block_hi"], r["true_count"]) for r in rows] == [
        ("2", "3", "2"), ("2", "3", "2"), ("", "", "")]


@pytest.mark.parametrize("argv", [["luczak-dim", "--b", "2", "--c", "2", "--kmax", "4"],
                                  ["box-dim", "--b", "2", "--c", "2", "--kmax", "4"]])
def test_luczak_commands_read_each_block_once(monkeypatch, capsys, argv):
    # one walk of the levels, and every prime read inside it (cantor reads
    # its windows through primes.primes_in)
    calls, walking = [], []
    walk, read = cantor.luczak_levels, primes.primes_in

    def counted(*args, **kwargs):
        calls.append(args)
        walking.append(True)
        try:
            return walk(*args, **kwargs)
        finally:
            walking.pop()

    def window(*args):
        return read(*args) if walking else pytest.fail("cli read a window")

    monkeypatch.setattr(cantor, "luczak_levels", counted)
    monkeypatch.setattr(primes, "primes_in", window)
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == 1


def test_eb_build_output(capsys):
    code, out, _ = run_cli(capsys, ["eb-build", "--B", "4", "--ell", "2",
                                    "--s", "0.53", "--delta", "0.01",
                                    "--M", "3", "--sieve", "2000"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["depth", "word", "mu", "diam", "lo", "hi"]
    summary = parse_summary(comments[1])
    assert summary["M"] == "3" and summary["N"] == "1"
    assert float(summary["t"]) == pytest.approx(0.6139828, abs=1e-6)
    assert float(summary["gap_min"]) >= 1.0
    assert math.isfinite(float(summary["holder_max"]))
    # one comment line per row of the JSON constraints block, in its order
    code, out_json, _ = run_cli(capsys, ["eb-build", "--B", "4", "--ell", "2",
                                         "--s", "0.53", "--delta", "0.01",
                                         "--M", "3", "--sieve", "2000", "--format", "json"])
    assert code == 0
    constraints = json.loads(out_json)["constraints"]
    assert len(constraints) == 11
    assert [c for c in comments if c.startswith("# constraints ")] == [
        f"# constraints name={c['name']} status={c['status']} detail={c['detail']}"
        for c in constraints]
    by_depth: dict[str, float] = {}
    for r in rows:
        by_depth[r["depth"]] = by_depth.get(r["depth"], 0.0) + float(r["mu"])
        assert Fraction(r["lo"]) < Fraction(r["hi"])
    assert sorted(by_depth) == ["1", "2", "3"]
    for total in by_depth.values():
        assert total == pytest.approx(1.0, abs=1e-10)


def test_eb_build_echoes_the_values_it_used(capsys):
    # M and N searched, the depth through the first prime run: the echo
    # shows the values the run used, as the summary does
    code, out, _ = run_cli(capsys, ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53",
                                    "--delta", "0.01"])
    assert code == 0
    comments, _, rows = parse_csv(out)
    assert comments[0] == ("# eb-build B=4.0 ell=2 s=0.53 delta=0.01 M=2 N=1 depth=3"
                           " sieve=1000000")
    summary = parse_summary(comments[1])
    assert (summary["M"], summary["N"]) == ("2", "1")
    assert max(int(r["depth"]) for r in rows) == 3


def test_box_dim_modes(capsys):
    code, out, _ = run_cli(capsys, ["box-dim", "--covers",
                                    "0.333333,0.333333;"
                                    "0.111111,0.111111,0.111111,0.111111"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0]["slope"]) == pytest.approx(math.log(2) / math.log(3), rel=1e-4)
    code, out, _ = run_cli(capsys, ["box-dim", "--b", "2", "--c", "1.1",
                                    "--kmax", "4", "--sieve", "100000"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[0]["slope"]) - 1 / 3) < 0.1
    # each length is checked before a level shrinks to (count, largest)
    for covers in ("0.5;0,0.1", "0.5;", "0.5,-1;0.25", "0.5,nan;0.25"):
        code, out, err = run_cli(capsys, ["box-dim", "--covers", covers])
        assert (code, out) == (2, "")
        assert err.startswith("ValueError:")


# -- failure surface -----------------------------------------------------------

def test_unknown_command_and_missing_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "5",
              "--samples", "10"])
    assert exc.value.code == 2


def test_value_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, ["pzeta-tail", "--ell", "1", "--s", "2",
                                    "--M", "1", "--cutoff", "1000"])
    assert code == 2
    assert err.startswith("ValueError:")
    code, _, err = run_cli(capsys, ["hwx-dim", "--ell", "1",
                                    "--phi", "import os", "--window", "10,20"])
    assert code == 2
    assert err.startswith("ArgumentTypeError:")
    # naming neither mode is a usage error, as naming both is
    code, _, err = run_cli(capsys, ["box-dim"])
    assert code == 2
    assert err.startswith("ValueError:")


def test_guard_errors_exit_three(capsys):
    code, _, err = run_cli(capsys, ["pressure-dim", "--ell", "1", "--B", "2",
                                    "--M", "20", "--n", "8",
                                    "--method", "enumerate"])
    assert code == 3
    assert err.startswith("EnumerationGuardError:")
    code, _, err = run_cli(capsys, ["pzeta-tail", "--ell", "1", "--s", "1",
                                    "--M", "10", "--cutoff", "1000"])
    assert code == 3
    assert err.startswith("DivergentSeriesError:")
    code, _, err = run_cli(capsys, ["eb-build", "--B", "10000", "--ell", "2",
                                    "--s", "0.53", "--delta", "0.005",
                                    "--sieve", "2000"])
    assert code == 3
    assert err.startswith("ConstructionInfeasibleError:")
    code, _, err = run_cli(capsys, ["box-dim", "--b", "2", "--c", "2",
                                    "--kmax", "4", "--sieve", "100000"])
    assert code == 3
    assert err.startswith("OutOfRangeError:")


def test_sieve_ignores_the_environment(capsys, monkeypatch):
    # the output is a function of argv alone: pzeta-tail sieves to its
    # --cutoff, and --sieve is the one way to set eb-build's table
    runs = (["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1000"],
            ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01",
             "--M", "3", "--depth", "2"])
    for argv in runs:
        monkeypatch.delenv("PRIMECF_SIEVE_LIMIT", raising=False)
        want = run_cli(capsys, argv)
        assert want[0] == 0
        for value in ("123456", ""):
            monkeypatch.setenv("PRIMECF_SIEVE_LIMIT", value)
            assert run_cli(capsys, argv) == want


# The cutoff fixes the primes these commands read, so they take no --sieve
# and echo the limit they sieved to: the cutoff, or its square root plus one
# for an ell >= 2 zeta tail, whose Omega table needs only those primes.
SIEVED_TO_CUTOFF = [
    (["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1000"], 1000),
    (["pzeta-tail", "--ell", "3", "--s", "2", "--M", "10", "--cutoff", "1000"], 32),
    (["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "10,100", "--cutoff", "1000"],
     1000),
    (["pzeta-asymptotic", "--ell", "2", "--s", "2", "--grid", "10,100", "--cutoff", "100"], 11),
    (["interval-measure", "--ell", "1", "--threshold", "10", "--cutoff", "1000"], 1000),
    (["interval-measure", "--ell", "2", "--threshold", "10", "--cutoff", "1000"], 1000),
]


@pytest.mark.parametrize("argv, limit", SIEVED_TO_CUTOFF,
                         ids=[" ".join(case[0]) for case in SIEVED_TO_CUTOFF])
def test_cutoff_commands_sieve_to_their_cutoff(capsys, argv, limit):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines()[0].endswith(f" sieve={limit}")
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    assert list(json.loads(out)["inputs"].items())[-1] == ("sieve", limit)
    for value in (limit, 0, 10**6):
        code, out, err = run_cli(capsys, argv + ["--sieve", str(value)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"primecf: error: unrecognized arguments: --sieve {value}"


# On these commands the limit is a choice (how far table lookups reach, which
# prime windows an E_B search or a Luczak level may use, which levels get
# prime counts): --sieve is that limit, 10^6 when omitted, and a limit below
# 2 is refused, not replaced.
SIEVED_TO_FLAG = [
    ["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,2", "--samples", "5"],
    ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01", "--M", "3",
     "--depth", "2"],
    ["box-dim", "--b", "2", "--c", "2", "--kmax", "2"],
    ["luczak-dim", "--b", "2", "--c", "2", "--kmax", "3"],
]


@pytest.mark.parametrize("argv", SIEVED_TO_FLAG, ids=[argv[0] for argv in SIEVED_TO_FLAG])
def test_sieve_flag_is_the_limit(capsys, argv):
    for extra, limit in (([], 1_000_000), (["--sieve", "1000"], 1000)):
        code, out, _ = run_cli(capsys, argv + extra)
        assert code == 0
        assert out.splitlines()[0].endswith(f" sieve={limit}")
    for value in ("0", "1"):
        code, out, err = run_cli(capsys, argv + ["--sieve", value])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == _usage(argv[0], f"--sieve: must be >= 2, got {value}")


def _usage(command: str, message: str) -> str:
    """The last stderr line of an argument that its type callable rejected."""
    return f"primecf {command}: error: argument {message}"


# Every argv here once hung, printed NaN or a traceback, or passed silently:
# (argv, exit code, start of the last stderr line; None on success).
TOTALITY = [
    (["pressure-dim", "--ell", "1", "--B", "2", "--M", "5", "--n", "3", "--tol", "0"],
     0, None),
    (["pressure-dim", "--ell", "1", "--B", "2", "--M", "5", "--n", "3", "--tol", "-1"],
     0, None),
    (["pzeta-tail", "--ell", "1", "--s", "nan", "--M", "10", "--cutoff", "1000"],
     2, _usage("pzeta-tail", "--s: must be finite")),
    (["interval-measure", "--ell", "2", "--threshold", "nan", "--cutoff", "1000"],
     2, _usage("interval-measure", "--threshold: must be finite")),
    (["interval-measure", "--ell", "1", "--threshold", "inf", "--cutoff", "1000"],
     2, _usage("interval-measure", "--threshold: must be finite")),
    (["pressure-dim", "--ell", "1", "--B", "inf", "--M", "5", "--n", "3"],
     2, _usage("pressure-dim", "--B: must be finite")),
    (["hwx-dim", "--ell", "1", "--phi", "n", "--window", "10,20", "--tol", "nan"],
     2, _usage("hwx-dim", "--tol: must be finite")),
    (["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "10,-inf"],
     2, _usage("pzeta-asymptotic", "--grid: must be finite")),
    (["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "nan"],
     2, _usage("eb-build", "--delta: must be finite")),
    (["luczak-dim", "--b", "nan", "--c", "2", "--kmax", "3"],
     2, _usage("luczak-dim", "--b: must be finite")),
    (["box-dim", "--b", "2", "--c", "inf"],
     2, _usage("box-dim", "--c: must be finite")),
    (["cf-expand", "--rational", "0.5", "--bits", str(2**20 + 1)],
     2, _usage("cf-expand", "--bits: must lie in")),
    # every digit is drawn from whole 64-bit words; there is no width to set
    (["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,2", "--samples", "5",
      "--bits", "64"], 2, "primecf: error: unrecognized arguments: --bits 64"),
    (["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,1000001",
      "--samples", "5"], 2, _usage("mc-zero-one", "--window: window '1,1000001' spans")),
    (["bb-series", "--ell", "1", "--phi", "n", "--window", "1,1000001"],
     2, _usage("bb-series", "--window: window '1,1000001' spans")),
    (["cf-expand", "--rational", "1/0"], 2, "ValueError:"),
    (["luczak-dim", "--b", "2", "--c", "2", "--kmax", "2000"], 3, "OutOfRangeError:"),
    (["hwx-dim", "--ell", "1", "--phi", "n*log(n)**2", "--window", "0,10"],
     2, "ValueError:"),
    (["hwx-dim", "--ell", "1", "--phi", "n+2", "--window", "0,30"],
     2, "ValueError: window must satisfy 1 <= n1 <= n2"),
    # bb-series once printed rows for n <= 0
    *[(["bb-series", "--ell", "1", "--phi", *more],
       2, "ValueError: window must satisfy 1 <= n1 <= n2")
      for more in (["n*n", "--window=-2,2"], ["n+1", "--window", "0,2"])],
    # luczak-dim once refused --kmax 2, and blanked levels whose block [2, 3]
    # fits a table to 3, where box-dim exited 3
    (["luczak-dim", "--b", "2", "--c", "2", "--kmax", "2"], 0, None),
    (["luczak-dim", "--b", "1.5", "--c", "1.1", "--kmax", "3", "--sieve", "3"], 0, None),
    (["box-dim", "--b", "1.5", "--c", "1.1", "--kmax", "2", "--sieve", "3"], 0, None),
    *[(["eb-build", "--B", B, "--ell", "2", "--s", "0.53", "--delta", "0.01"],
       2, "ValueError: B must be finite and exceed 1") for B in ("-1", "0")],
    *[(["pzeta-asymptotic", "--ell", "400", "--s", "2", "--grid", "3", "--cutoff", "10",
        "--format", fmt], 3, "OutOfRangeError: ratio = 4.252e+409 has no finite double")
      for fmt in ("csv", "json")],
    (["bb-series", "--ell", "1", "--phi", "1/(n-3)", "--window", "1,10"],
     2, "ValueError:"),
    (["mc-zero-one", "--ell", "1", "--phi", "1/(n-3)", "--window", "1,10",
      "--samples", "5", "--sieve", "1000"], 2, "ValueError:"),
    (["hwx-dim", "--ell", "1", "--phi", "log(n-5)", "--window", "1,10"],
     2, "ValueError:"),
    (["bb-series", "--ell", "1", "--phi", "log(n-1)*0", "--window", "1,3"],
     2, "ValueError:"),
    (["box-dim", "--covers", "0.5,0.5;0.5,0.5"], 2, "ValueError:"),
    (["box-dim", "--covers", "0.5,nan;0.25"], 2, "ValueError:"),
    (["cf-expand", "--rational", "1e-2000000", "--max-len", "3"], 2,
     "ValueError: decimal exponent"),
    (["luczak-dim", "--b", "1.001", "--c", "2", "--kmax", "200000"],
     2, _usage("luczak-dim", "--kmax: must be at most 10000")),
    (["box-dim", "--b", "1.001", "--c", "2", "--kmax", "10001"],
     2, _usage("box-dim", "--kmax: must be at most 10000")),
    (["hwx-dim", "--ell", "1", "--phi", "exp(1000*n)", "--window", "10,20"], 0, None),
    (["hwx-dim", "--ell", "1", "--phi", "exp(1000*n)", "--window", "400,420"],
     3, "OutOfRangeError: estimated B"),
    (["hwx-dim", "--ell", "1", "--phi", "exp(exp(exp(n)))", "--window", "10,10"],
     3, "OutOfRangeError: log phi(n) at n = 10"),
    (["hwx-dim", "--ell", "1", "--phi", "exp(exp(n*200))", "--window", "10,12"],
     3, "OutOfRangeError: log phi(n) at n = 10"),
    *[([cmd, "--ell", "1", "--phi", phi, "--window", f"{n},{n}", *more],
       3, f"OutOfRangeError: log phi(n) at n = {n}")
      for phi, n in (("exp(exp(exp(n)))", 12), ("3**(3**(3**n))", 8))
      for cmd, more in (("hwx-dim", ()), ("bb-series", ()),
                        ("mc-zero-one", ("--samples", "5")))],
    (["bb-series", "--ell", "1", "--phi", "10.0**400*n", "--window", "1,2"], 0, None),
    (["hwx-dim", "--ell", "1", "--phi", "3**2**24*n", "--window", "10,20"], 0, None),
    (["bb-series", "--ell", "1", "--phi", "sqrt(-n)**2", "--window", "1,2"],
     2, "ValueError: phi 'sqrt(-n)**2' is not a real number at n = 1"),
    (["box-dim", "--b", "2", "--c", "2", "--kmax", "4", "--sieve", "1000000"], 0, None),
    (["box-dim", "--b", "1.001", "--c", "2", "--kmax", "1000", "--sieve", "1000000"],
     3, "OutOfRangeError:"),
    (["pressure-dim", "--ell", "1", "--B", "2", "--M", "10001", "--n", "8"],
     3, "OutOfRangeError: M = 10001 and n = 8 must both be at most 10000"),
    (["pressure-dim", "--ell", "1", "--B", "2", "--M", "5", "--n", "1000000000"],
     3, "OutOfRangeError: M = 5 and n = 1000000000 must both be at most 10000"),
    (["hwx-dim", "--ell", "1", "--phi", "2.5**n", "--window", "10,300", "--M", "20000"],
     3, "OutOfRangeError: M = 20000 and n = 8 must both be at most 10000"),
    (["hwx-dim", "--ell", "1", "--phi", "2.5**n", "--window", "10,300", "--n", "1000000000"],
     3, "OutOfRangeError: M = 20 and n = 1000000000 must both be at most 10000"),
    (["eb-build", "--ell", "2", "--B", "15.646926843825895", "--s", "0.5253252669063687",
      "--delta", "0.0014717595201200195", "--N", "3"], 3, "EnumerationGuardError: tree exceeds"),
    (["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01", "--M", "8",
      "--N", "1", "--depth", "7"], 3, "EnumerationGuardError: tree exceeds"),
    # --bits once applied to a decimal alone; 1/3 is a cylinder end, so no
    # digit holds on all of [1/3, 1/3 + 2^-80]
    (["cf-expand", "--rational", "1/3", "--bits", "80"], 0, None),
    # 6,161,936,004 prime pairs, summed as seven power sums over 78,498 primes
    *[(["interval-measure", "--ell", "2", "--threshold", "3", "--cutoff", "1000000",
        "--format", fmt], 0, None)
      for fmt in ("csv", "json")],
    # more mpf powers (s = 2.3 has no exact root) than MPF_TERM_CAP, and an
    # Omega table past OMEGA_CAP, refused before any is computed
    *[(argv + ["--format", fmt], 3, f"EnumerationGuardError: {terms} terms on the mpf power")
      for argv, terms in (
          (["pzeta-tail", "--ell", "1", "--s", "2.3", "--M", "2", "--cutoff", "5000000"],
           348513),
          (["pzeta-asymptotic", "--ell", "2", "--s", "2.3", "--grid", "3,100",
            "--cutoff", "1200000"], 342791))
      for fmt in ("csv", "json")],
    *[([cmd, "--ell", "2", "--s", "2", *grid, "--cutoff", "1000000000", "--format", fmt],
       3, "OutOfRangeError: omega_table bound 1000000000 exceeds OMEGA_CAP")
      for cmd, grid in (("pzeta-tail", ("--M", "10")), ("pzeta-asymptotic", ("--grid", "10")))
      for fmt in ("csv", "json")],
    # digits past (limit+1)^2 - 1 = 120 in several samples of one block, at
    # different rows: the refusal names the one a loop over (sample, n)
    # reaches first, for ell = 1 and for windows of 40 digits
    (["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,200", "--samples", "20",
      "--seed", "1", "--sieve", "10"],
     3, "OutOfRangeError: primes_in upper end 21 exceeds sieve limit 10"),
    (["mc-zero-one", "--ell", "40", "--phi", "2", "--window", "1,60", "--samples", "500",
      "--seed", "3", "--sieve", "10"],
     3, "OutOfRangeError: primes_in upper end 12 exceeds sieve limit 10"),
    # 5000-digit blocks, each window product 4999 multiplies
    (["mc-zero-one", "--ell", "5000", "--phi", "2", "--window", "1,2000", "--samples", "2"],
     0, None),
    # draws (samples times n2 + ell) past DRAW_CAP, refused before any
    *[(["mc-zero-one", "--ell", ell, "--phi", "2", "--window", "1,1", "--samples", samples,
        "--format", fmt], 3, f"EnumerationGuardError: {draws} draws ({samples} samples x")
      for ell, samples, draws in (("1", "1000000000", 2000000000),
                                  ("1000000000", "1", 1000000001))
      for fmt in ("csv", "json")],
    # a seed outside the word function's 64-bit counter
    *[(["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,2", "--samples", "5",
        "--seed", seed], 2, f"ValueError: seed must lie in [0, 2^64), got {seed}")
      for seed in ("-5", "99999999999999999999999999")],
    *[(argv + ["--sieve", "-4"], 2, _usage(argv[0], "--sieve: must be >= 2, got -4"))
      for argv in (["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01"],
                   ["luczak-dim", "--b", "2", "--c", "2", "--kmax", "3"])],
    # a negative count once ran as its default, echoing the value it ignored;
    # a zero one once meant "search" or "derive"
    *[(["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01", flag, k],
       2, _usage("eb-build", f"{flag}: must be >= 1, got {k}"))
      for flag in ("--M", "--N", "--depth") for k in ("-3", "0")],
    *[(["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "10,100", "--cutoff", k],
       2, _usage("pzeta-asymptotic", f"--cutoff: must be >= 2, got {k}"))
      for k in ("-5", "0")],
    # a cutoff below 2 was once refused as a sieve limit, which these take no flag for
    (["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10", "--cutoff", "1"],
     2, _usage("pzeta-tail", "--cutoff: must be >= 2, got 1")),
    (["interval-measure", "--ell", "1", "--threshold", "3", "--cutoff", "0"],
     2, _usage("interval-measure", "--cutoff: must be >= 2, got 0")),
    # the cutoff once defaulted to the largest threshold, whose row summed nothing
    (["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "1e3,1e4,1e5,1e6"],
     2, "primecf pzeta-asymptotic: error: the following arguments are required: --cutoff"),
    # --bits 0 once meant "exact", which omitting --bits means
    (["cf-expand", "--rational", "0.5", "--bits", "0"],
     2, _usage("cf-expand", "--bits: must lie in [1, 1048576], got 0")),
    # the flags of a built construction were once ignored next to --covers
    *[(["box-dim", "--covers", "0.5,0.5;0.25,0.25,0.25", flag, value],
       2, f"ValueError: --covers takes no {flag}: they set a built construction")
      for flag, value in (("--b", "2"), ("--c", "2"), ("--kmax", "3"), ("--sieve", "1000"))],
    # M and n were once ignored when the growth gave B = inf or B = 1
    (["hwx-dim", "--ell", "1", "--phi", "2**(2**n)", "--window", "10,20", "--M", "0",
      "--n", "-3"], 2, "ValueError: alphabet bound M must be >= 1, got 0"),
    (["hwx-dim", "--ell", "1", "--phi", "n*log(n)", "--window", "100,1200", "--n", "-3"],
     2, "ValueError: word depth n must be >= 1, got -3"),
    # and so was ell
    (["hwx-dim", "--ell", "0", "--phi", "2**(2**n)", "--window", "10,20"],
     2, "ValueError: ell must be >= 1, got 0"),
    (["hwx-dim", "--ell", "-2", "--phi", "n*log(n)", "--window", "100,1200"],
     2, "ValueError: ell must be >= 1, got -2"),
    # the first digit, 10^4300, has more digits than str() of an int prints
    *[(["cf-expand", "--rational", text, "--max-len", "2", *fmt], 2,
       f"ValueError: rational {text!r} needs more than 4300 decimal digits")
      for text in ("1e-4300", "0.1e-4299") for fmt in ((), ("--format", "json"))],
    # with --bits, a negative --max-len once reached islice, which named its own argument
    (["cf-expand", "--rational", "0.5", "--bits", "3", "--max-len", "-1"],
     2, "ValueError: max_len must be >= 0, got -1"),
    # refusals that no other test reaches
    (["hwx-dim", "--ell", "1", "--phi", "n%2", "--window", "1,3"],
     2, "ArgumentTypeError: unsupported syntax in phi expression: Mod"),
    (["pzeta-asymptotic", "--ell", "1", "--s", "2", "--grid", "1e3,x", "--cutoff", "10000"],
     2, _usage("pzeta-asymptotic", "--grid: bad grid")),
    (["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01", "--M", "3",
      "--depth", "9", "--sieve", "100"], 3,
     "ConstructionInfeasibleError: prime window [171.3, 342.5] for slot (i=0, j=2)"
     " is beyond the sieve limit 100"),
    # b^(k+1) overflows a double at k = 1
    (["luczak-dim", "--b", "1e300", "--c", "2", "--kmax", "2"],
     3, "OutOfRangeError: level 1 leaves float range"),
]
def _non_finite_values(out: str) -> list[str]:
    """Every CSV cell, `key=value` value and list entry of a CSV output
    that reads as a NaN or infinite float; labels such as B=inf pass, and
    so do integers, which print exactly at any size."""
    values = []
    for line in out.splitlines():
        if line.startswith("#"):
            values += [kv.split("=", 1)[1] for kv in line[1:].split() if "=" in kv]
        else:
            values += next(csv.reader([line]))
    parts = [part for value in values for part in re.split(r"[\[\],;]", value)]
    bad = []
    for part in parts:
        if re.fullmatch(r"[-+]?\d+", part.strip()):
            continue
        try:
            x = float(part)
        except ValueError:
            continue
        if not math.isfinite(x):
            bad.append(part)
    return bad


# Every case is refused or answered at once; a slow one does work no cap limits.
TOTALITY_SECONDS = 0.5


@pytest.mark.parametrize("argv, code, err_start", TOTALITY,
                         ids=[" ".join(case[0]) for case in TOTALITY])
def test_cli_is_total(capsys, argv, code, err_start):
    start = time.perf_counter()
    got, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < TOTALITY_SECONDS
    assert_digest(argv, got, out, err)
    assert got == code
    assert "Traceback" not in err
    if err_start is None:
        assert err == ""
        assert _non_finite_values(out) == []
    else:
        assert out == ""
        assert err.splitlines()[-1].startswith(err_start)


@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_errors_ignore_the_terminal_width(capsys, monkeypatch, columns):
    # argparse once wrapped usage lines at the width in COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    argv = ["eb-build", "--B", "4", "--ell", "2", "--s", "0.53", "--delta", "0.01", "--M", "-3"]
    assert_digest(argv, *run_cli(capsys, argv))


def test_sieve_cap(capsys, monkeypatch):
    monkeypatch.setattr(primes, "SIEVE_CAP", 5000)
    tail = ["pzeta-tail", "--ell", "1", "--s", "2", "--M", "10"]
    mc = ["mc-zero-one", "--ell", "1", "--phi", "2", "--window", "1,2", "--samples", "5"]
    assert run_cli(capsys, tail + ["--cutoff", "5000"])[0] == 0
    for argv in (tail + ["--cutoff", "5001"], mc + ["--sieve", "5001"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert err.startswith("OutOfRangeError: sieve limit 5001 exceeds SIEVE_CAP")


def test_enumeration_cap(capsys, monkeypatch):
    # ell >= 2 sieves only to sqrt(cutoff), but its Omega table spans the cutoff
    monkeypatch.setattr(primes, "OMEGA_CAP", 5000)
    tail = ["pzeta-tail", "--ell", "2", "--s", "2", "--M", "10"]
    table = ["pzeta-asymptotic", "--ell", "3", "--s", "2", "--grid", "10,100"]
    assert run_cli(capsys, tail + ["--cutoff", "5000"])[0] == 0
    assert run_cli(capsys, table + ["--cutoff", "5000"])[0] == 0
    for argv in (tail + ["--cutoff", "5001"], table + ["--cutoff", "5001"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("OutOfRangeError: omega_table bound 5001 exceeds OMEGA_CAP")


def test_level_two_cost_follows_primes_not_pairs(capsys):
    # 6,161,936,004 pairs below the larger cutoff; its bracket nests in the
    # smaller cutoff's, and CSV and JSON print the same one
    brackets = []
    for cutoff in ("100000", "1000000"):
        argv = ["interval-measure", "--ell", "2", "--threshold", "3", "--cutoff", cutoff]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        code_json, out_json, err_json = run_cli(capsys, argv + ["--format", "json"])
        assert time.perf_counter() - start < 5
        assert (code, err, code_json, err_json) == (0, "", 0, "")
        row = parse_csv(out)[2][0]
        bracket = float(row["lower"]), float(row["upper"])
        assert bracket == tuple(json.loads(out_json)["rows"][0][k] for k in ("lower", "upper"))
        brackets.append(bracket)
    (lower, upper), (inner_lower, inner_upper) = brackets
    assert lower < inner_lower < inner_upper < upper
    assert row["terms"] == "6161936004"


def test_draw_cap(capsys, monkeypatch):
    argv = ["mc-zero-one", "--ell", "2", "--phi", "n", "--window", "3,40", "--samples", "30"]
    draws = 30 * (40 + 2)
    code, want, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setattr(measure, "DRAW_CAP", draws)
    assert run_cli(capsys, argv) == (0, want, "")
    monkeypatch.setattr(measure, "DRAW_CAP", draws - 1)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (f"EnumerationGuardError: {draws} draws (30 samples x 42 digits)"
                   f" exceed DRAW_CAP = {draws - 1}\n")


def test_mpf_term_cap(capsys, monkeypatch):
    # s = 2.3 has no exact root, so every term is an mpf power
    tail = ["pzeta-tail", "--ell", "2", "--s", "2.3", "--M", "100", "--cutoff", "3000"]
    table = ["pzeta-asymptotic", "--ell", "2", "--s", "2.3", "--grid", "100,1000",
             "--cutoff", "3000"]
    code, want, _ = run_cli(capsys, tail)
    assert code == 0
    terms = int(want.splitlines()[-1].split(",")[-1])
    code, want_table, _ = run_cli(capsys, table)
    assert code == 0
    monkeypatch.setattr(zeta, "MPF_TERM_CAP", terms)
    assert run_cli(capsys, tail) == (0, want, "")
    assert run_cli(capsys, table) == (0, want_table, "")
    monkeypatch.setattr(zeta, "MPF_TERM_CAP", terms - 1)
    for argv in (tail, table):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"EnumerationGuardError: {terms} terms on the mpf power route"
                              f" exceed MPF_TERM_CAP = {terms - 1}")


def test_guard_errors_share_a_base():
    for name, base in (("OutOfRangeError", ValueError),
                       ("DivergentSeriesError", ValueError),
                       ("UndefinedExponentError", ValueError),
                       ("EnumerationGuardError", RuntimeError),
                       ("BracketError", RuntimeError),
                       ("ConstructionInfeasibleError", RuntimeError)):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.GuardError)
        assert issubclass(cls, base)


# -- growth expression parser ----------------------------------------------------

def test_phi_parser_accepts_growth_expressions():
    phi = parse_phi("2**(2**n)")
    assert mp.isfinite(phi(40))
    assert phi(3) == 256
    phi = parse_phi("n*log(n)**2")
    assert phi(100) == pytest.approx(100 * math.log(100) ** 2, rel=1e-12)
    assert parse_phi("-n + 4")(1) == 3


@pytest.mark.parametrize("expr", [
    "import os",
    "__import__('os')",
    "n.bit_length()",
    "'abc'",
    "max(n, 2)",
    "(lambda: 1)()",
    "m + 1",
    "log(n, base=2)",
])
def test_phi_parser_rejects_non_arithmetic(expr):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_phi(expr)


# -- totality under generated arguments ----------------------------------------

# Bounded so every call is cheap when it succeeds; the edges include windows
# from n = 0, B <= 0 and ell up to 500, where a ratio can pass double range.
PHIS = ("2", "n", "n+2", "n*n", "n*log(n)", "n*log(n)**2", "2**n", "2.5**n",
        "2**(2**n)", "exp(n*n)", "1/(n-3)", "log(n-5)", "sqrt(-n)**2", "10.0**400*n",
        "exp(exp(exp(n)))")
FUZZ_SECONDS = 5.0


def _flags(command: str, **flags) -> st.SearchStrategy:
    """argv for `command` from one strategy per flag: None leaves the flag
    out, True gives it bare, a tuple joins with commas.  Values ride in
    `--flag=value`, so argparse takes a negative number as a value."""
    def render(values: dict) -> list[str]:
        argv = [command]
        for flag, v in values.items():
            name = "--" + flag.replace("_", "-")
            if v is True:
                argv.append(name)
            elif v is not None and v is not False:
                text = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
                argv.append(f"{name}={text}")
        return argv
    return st.fixed_dictionaries(flags).map(render)


def _opt(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | strategy


_ELL = st.integers(1, 4)
_BIG_ELL = st.integers(1, 500)
_S = st.floats(0.5, 6)
_CUTOFF = st.integers(0, 10**4)
# interval-measure's cost grows with the primes below the cutoff, not the pairs
_MEASURE_CUTOFF = st.integers(0, 10**6)
_SIEVE = _opt(st.sampled_from((0, 1000, 100_000)))
_PHI = st.sampled_from(PHIS)
_WINDOW = st.tuples(st.integers(0, 20), st.integers(-1, 50)).map(lambda w: (w[0], w[0] + w[1]))
_FORMAT = st.sampled_from(("csv", "json"))
_REAL = st.floats(-1, 1e4)
_BASE = st.floats(0.9, 4)
_B = st.floats(-2, 1) | st.floats(1.5, 20)

FUZZ_ARGV = st.one_of(
    _flags("pzeta-tail", ell=_BIG_ELL, mode=_opt(st.sampled_from(("at-most", "exactly"))),
           s=_S, M=_REAL, cutoff=_CUTOFF, format=_FORMAT),
    _flags("pzeta-asymptotic", ell=_BIG_ELL, s=_S,
           grid=st.lists(st.floats(3, 1e4), min_size=1, max_size=3).map(tuple),
           cutoff=_CUTOFF, format=_FORMAT),
    _flags("cf-expand", rational=st.tuples(st.integers(-5, 10**6), st.integers(-5, 10**6))
           .map(lambda f: f"{f[0]}/{f[1]}") | st.floats(-1, 2).map(repr),
           bits=_opt(st.integers(0, 256)), max_len=_opt(st.integers(-1, 64)), format=_FORMAT),
    _flags("interval-measure", ell=_ELL, threshold=_REAL, cutoff=_MEASURE_CUTOFF,
           format=_FORMAT),
    _flags("pressure-dim", ell=_ELL, B=_B, M=st.integers(0, 8),
           n=st.integers(0, 6), tol=_opt(st.floats(-1, 0.1)),
           method=_opt(st.sampled_from(("auto", "enumerate", "collocate"))), format=_FORMAT),
    _flags("hwx-dim", ell=_ELL, phi=_PHI, window=_WINDOW, M=_opt(st.integers(0, 8)),
           n=_opt(st.integers(0, 6)), format=_FORMAT),
    _flags("mc-zero-one", ell=_ELL, phi=_PHI, window=_WINDOW, samples=st.integers(0, 20),
           seed=st.integers(0, 9), sieve=_SIEVE, format=_FORMAT),
    _flags("bb-series", ell=_ELL, phi=_PHI, prime=st.booleans(), window=_WINDOW,
           format=_FORMAT),
    _flags("luczak-dim", b=_BASE, c=_BASE, kmax=st.integers(0, 10), sieve=_SIEVE,
           format=_FORMAT),
    # the node guard holds every tree to 10^5 nodes; a tree near it, such as
    # --B=9.68 --ell=2 --s=0.531 --delta=0.00384 --N=4 --depth=5, takes
    # 2.1-2.3 s in CSV and 3.1-3.3 s in JSON (medians of 3 in-process runs,
    # two rounds, on a 2-vCPU host), under FUZZ_SECONDS
    _flags("eb-build", B=_B, ell=st.integers(2, 3), s=st.floats(0.52, 0.9),
           delta=st.floats(0.001, 0.01), M=_opt(st.integers(0, 4)), N=_opt(st.integers(0, 4)),
           depth=_opt(st.integers(0, 6)), sieve=_SIEVE, format=_FORMAT),
    _flags("box-dim", covers=_opt(st.lists(st.lists(st.floats(-0.1, 1), min_size=1, max_size=4)
                                           .map(lambda xs: ",".join(map(repr, xs))),
                                           min_size=1, max_size=4).map(";".join)),
           b=_opt(_BASE), c=_opt(_BASE), kmax=_opt(st.integers(0, 10)), sieve=_SIEVE,
           format=_FORMAT),
)


def _strict_json(out: str):
    def refuse(constant):
        raise ValueError(f"non-finite JSON number {constant}")
    return json.loads(out, parse_constant=refuse)


@settings(derandomize=True, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=FUZZ_ARGV)
@example(argv=["hwx-dim", "--ell=1", "--phi=n+2", "--window=0,30"])
@example(argv=["eb-build", "--B=-1", "--ell=2", "--s=0.53", "--delta=0.01"])
@example(argv=["pzeta-asymptotic", "--ell=400", "--s=2", "--grid=3", "--cutoff=10",
               "--format=json"])
def test_cli_total_on_generated_argv(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < FUZZ_SECONDS
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        if "--format=json" in argv:
            _strict_json(out)
        else:
            assert _non_finite_values(out) == []
