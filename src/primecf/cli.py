"""Command-line surface: every experiment as one reproducible subcommand.

Output goes to stdout as CSV (leading `#` comment lines echo the inputs,
then a header row, then data rows) or as a schema-tagged JSON object,
written in chunks of rows as it is rendered, never held whole.  The JSON
bytes are those of json.dumps(indent=2), but json.dumps writes only the
head; every value is written by its column's kind, as a cell or as JSON
text.  Identical invocations produce identical bytes.  Numbers in CSV
cells use 20 significant digits; exact rationals are "num/den" strings.
Errors raised by guards print their class name to stderr and exit nonzero.

Each subcommand is declared once, in COMMANDS: its arguments (the keyword
arguments of `add_argument`, whose `type` callables carry the range and
finiteness checks), its handler, and the kind of each column of its rows
and summary.  The parser, the input echo, the JSON schema of the output
(`schema_for`) and every printed cell and JSON value are all built from
that table.
"""
from __future__ import annotations

import argparse
import ast
import copy
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import cantor, contfrac, measure, pressure, primes, zeta
from .errors import GuardError, OutOfRangeError

if TYPE_CHECKING:
    from mpmath import mp

# The digits cf-expand certifies for a 2^-bits ball grow with bits, and
# every entry of a window is evaluated and tabulated, so both are capped.
BITS_CAP = 1 << 20
WINDOW_CAP = 10**6
# Fraction builds 10**e for a decimal exponent e before any check can run;
# exponents are held to Python's default int/str digit limit, and so are
# the digit runs int() reads and the numerator and denominator of the
# result, which bound every digit and convergent cf-expand prints.
EXPONENT_CAP = 4300
# luczak_levels keeps one level per k until b^(k+1) leaves float range,
# which for b near 1 is millions of levels.
KMAX_CAP = 10**4
DEFAULT_SIEVE = 10**6  # the prime table limit when --sieve is omitted
# rows per chunk of printed text; each chunk is one write to stdout
CHUNK_ROWS = 1 << 12
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*$")
_DIGIT_RUN = re.compile(r"\d[\d_]*")


# ---------------------------------------------------------------------------
# formatting


def _echo(v) -> str:
    """Input echo for the comment line; str of a float round-trips."""
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def _nstr(v, digits: int) -> str:
    """`v` at `digits` significant digits, as mpmath prints it.  mpmath is
    imported here, on first use, so commands that print no mpf skip it."""
    from mpmath import mp
    return mp.nstr(v, digits)


def _columns(rows: list[dict]) -> list[dict[str, list]]:
    """Row dicts as one column block, or no block for no rows."""
    return [{name: [row[name] for row in rows] for name in rows[0]}] if rows else []


def _refuse_nonfinite(fields: dict[str, Kind], block: dict) -> None:
    """Refuse the first real of a block, in row order, whose double is not
    finite: neither format can print it as a number."""
    reals = [name for name, kind in fields.items() if kind.finite]
    # one pass per column; a blank "" is falsy, and so is a zero, which is finite
    if all(all(map(math.isfinite, filter(None, block[name]))) for name in reals):
        return
    for row in zip(*(block[name] for name in reals)):
        for name, v in zip(reals, row):
            if v != "" and not math.isfinite(v):
                raise OutOfRangeError(f"{name} = {_nstr(v, 5)} has no finite double")


def _render(fields: dict[str, Kind], blocks: Iterable[dict], attr: str) -> Iterator[tuple]:
    """The rows of `blocks`, block after block, as tuples of each value
    through its kind's `attr` (`cell` or `json`), the declared fields in
    declared order, each kind's function mapped once over its column."""
    render = [getattr(kind, attr) for kind in fields.values()]
    return itertools.chain.from_iterable(
        zip(*(map(f, block[name]) for f, name in zip(render, fields))) for block in blocks)


def _json_string(v) -> str:
    return json.encoder.encode_basestring_ascii(str(v))


def _json_digits(v: tuple[int, ...]) -> str:
    # a digit word as a row field: one int a line, at the next indent; DIGITS
    # is the one array kind, and only rows declare it
    return "[\n        " + ",\n        ".join(map(int.__repr__, v)) + "\n      ]" if v else "[]"


class _Text(list):
    """Pieces of text, written as to a file (by csv.writer, say)."""

    write = list.append


def _chunks(rows: Iterator) -> Iterator[list]:
    """`rows` in lists of CHUNK_ROWS, the last one shorter."""
    return iter(lambda: list(itertools.islice(rows, CHUNK_ROWS)), [])


def _json_objects(fields: dict[str, Kind], blocks: Iterable[dict], pad: str) -> Iterator[str]:
    """Each row of `blocks` as json.dumps(indent=2) prints it as an object
    `pad` deep, from the opening brace, which follows a key or the pad, to
    the closing brace: one template, built once, of each field's key and a
    slot for its JSON text."""
    slots = ",\n".join(pad + "  " + key.replace("{", "{{").replace("}", "}}") + ": {}"
                       for key in map(_json_string, fields))
    template = "{{\n" + slots + "\n" + pad + "}}"
    return itertools.starmap(template.format, _render(fields, blocks, "json"))


def _json_list(key: str, fields: dict[str, Kind], blocks: Iterable[dict]) -> Iterator[str]:
    """The frame's field `key`, a list of the rows of `blocks`, after the
    comma that ends the field before it, CHUNK_ROWS rows a chunk."""
    item = ",\n    "
    chunks = _chunks(_json_objects(fields, blocks, "    "))
    first = next(chunks, None)
    head = ",\n  " + _json_string(key) + ": ["
    if first is None:
        yield head + "]"
        return
    yield head + "\n    " + item.join(first)
    yield from (item + item.join(rows) for rows in chunks)
    yield "\n  ]"


def _emit(sub: Subcommand, fmt: str, inputs: dict, out: Output) -> Iterator[str]:
    """Render one run as chunks of text, every value through the kind
    declared for it, the rows CHUNK_ROWS rows a chunk.  Every block's reals
    are checked before the first chunk, so a refused value leaves no output.
    CSV output puts the echo in a comment line before the rows, then each
    row of the summary and of the `extra` blocks, as `key=value` cells of
    its kinds in declared order, one comment line a row, an extra block's
    led by its key.  JSON output is the bytes of json.dumps(indent=2) of the
    whole object, but json.dumps writes only its head (schema, command,
    inputs); the rows, the summary and the `extra` blocks follow, written
    from their kinds' JSON text."""
    blocks = list(out.blocks)
    # (key, fields, column blocks) of the summary, whose key is "", then of
    # each extra block
    declared = [("", sub.summary or {}, [] if out.summary is None else _columns([out.summary])),
                *((key, sub.extra[key], _columns(rows)) for key, rows in (out.extra or {}).items())]
    for _, fields, checked in [*declared, ("", sub.columns, blocks)]:
        for block in checked:
            _refuse_nonfinite(fields, block)
    if fmt == "json":
        # the head without its closing "\n}"
        yield json.dumps({"schema": f"{sub.name}.schema.json", "command": sub.name,
                          "inputs": inputs}, indent=2)[:-2]
        yield from _json_list("rows", sub.columns, blocks)
        (_, fields, summary), *extra = declared
        if summary:
            yield ',\n  "summary": ' + next(_json_objects(fields, summary, "  "))
        for key, fields, block in extra:
            yield from _json_list(key, fields, block)
        yield "\n}\n"
        return
    lines = _Text()
    lines.write("# " + sub.name + " "
                + " ".join(f"{k}={_echo(v)}" for k, v in inputs.items()) + "\n")
    for key, fields, block in declared:
        lead = "# " + key if key else "#"
        for cells in _render(fields, block, "cell"):
            lines.write(lead + "".join(map(" {}={}".format, fields, cells)) + "\n")
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(sub.columns)
    for rows in _chunks(_render(sub.columns, blocks, "cell")):
        writer.writerows(rows)
        yield "".join(lines)
        lines.clear()
    if lines:
        yield "".join(lines)


# ---------------------------------------------------------------------------
# argument types: each rejects what no handler can use


def real(text: str) -> float:
    """A finite float."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def real_text(text: str) -> str:
    """A finite real, kept as typed so it can be read exactly downstream."""
    real(text)
    return text


def _fraction(text: str) -> Fraction:
    """The rational a decimal or num/den string denotes."""
    too_long = ValueError(f"rational {text[:40]!r} needs more than {EXPONENT_CAP} decimal digits")
    if any(len(run.replace("_", "")) > EXPONENT_CAP for run in _DIGIT_RUN.findall(text)):
        raise too_long
    m = _EXPONENT.search(text)
    if m:
        if int(m.group(1)) > EXPONENT_CAP:
            raise ValueError(f"decimal exponent of {text[:40]!r} exceeds {EXPONENT_CAP}")
    try:
        x = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None
    if max(abs(x.numerator), x.denominator) >= 10 ** EXPONENT_CAP:
        raise too_long
    return x


def precision_bits(text: str) -> int:
    k = int(text)
    if not 1 <= k <= BITS_CAP:
        raise argparse.ArgumentTypeError(f"must lie in [1, {BITS_CAP}], got {k}")
    return k


def positive(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def integer_limit(text: str) -> int:
    """The largest integer a prime table or a sum reaches: at least 2."""
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {k}")
    return k


def kmax(text: str) -> int:
    k = int(text)
    if k > KMAX_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {KMAX_CAP}, got {k}")
    return k


def window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be 'n1,n2', got {text!r}")
    n1, n2 = int(parts[0]), int(parts[1])
    if n2 - n1 >= WINDOW_CAP:
        raise argparse.ArgumentTypeError(
            f"window {text!r} spans more than {WINDOW_CAP} entries")
    return n1, n2


def grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(real(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None


_PHI_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
)


class _PowCalls(ast.NodeTransformer):
    """Turns each x ** y into _pow(x, y), so its size is checked first."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])


def parse_phi(expr: str) -> Callable[[int], mp.mpf]:
    """A growth function n -> phi(n) from an arithmetic expression in n.

    Allowed: numbers, n, + - * / **, unary sign, and log/exp/sqrt calls.
    Evaluation runs in mpmath, powers of literals too, so doubly exponential
    expressions like 2**(2**n) stay finite.  An evaluation that divides
    by zero or leaves the reals raises ValueError naming n; an exp or **
    whose log would pass float range is refused unevaluated (OutOfRangeError).
    """
    from mpmath import mp  # imported here: only the phi commands need it

    funcs = {"log": mp.log, "exp": mp.exp, "sqrt": mp.sqrt}
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise argparse.ArgumentTypeError(f"bad phi expression {expr!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _PHI_NODES):
            raise argparse.ArgumentTypeError(
                f"unsupported syntax in phi expression: {type(node).__name__}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise argparse.ArgumentTypeError(f"non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name) and node.id != "n" and node.id not in funcs:
            raise argparse.ArgumentTypeError(f"unknown name {node.id!r} in phi")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name) or node.func.id not in funcs
                    or node.keywords):
                raise argparse.ArgumentTypeError("phi may only call log/exp/sqrt")
    code = compile(ast.fix_missing_locations(_PowCalls().visit(tree)), "<phi>", "eval")

    def phi(n: int) -> mp.mpf:
        def guard(log_size) -> None:
            # a term costs time growing with its log; an infinite log costs nothing
            if sys.float_info.max < log_size < mp.inf:
                raise OutOfRangeError(f"log phi(n) at n = {n} exceeds float range")

        # guard(...) returns None, so `guard(...) or term` evaluates to the term
        namespace = {"__builtins__": {}, **funcs, "n": mp.mpf(n),
                     "exp": lambda x: guard(mp.re(x)) or mp.exp(x),
                     "_pow": lambda x, y: guard(mp.re(y) * mp.log(abs(x))) or mp.power(x, y)}
        try:
            value = eval(code, namespace)
        except ZeroDivisionError:
            raise ValueError(f"phi {expr!r} divides by zero at n = {n}") from None
        if isinstance(value, mp.mpc) or mp.isnan(value):
            raise ValueError(f"phi {expr!r} is not a real number at n = {n}: {value}")
        return value

    return phi


# ---------------------------------------------------------------------------
# subcommands


@dataclass(frozen=True)
class Output:
    """What a handler computed.  `blocks` holds its rows, in order, as
    column blocks: dicts from column name to that column's values
    (`_columns` makes one of row dicts).  The blocks are listed before
    anything prints, and every column of reals is checked then, so such a
    column must be a sequence; the others are read once, as their rows
    are written, and may be iterators.  `inputs` holds the values the
    handler resolved itself (a sieve limit, a searched M or N, a default
    depth or kmax), which replace the parsed ones in the echo."""

    blocks: Iterable[dict[str, Iterable]]
    summary: dict | None = None
    inputs: dict = field(default_factory=dict)
    extra: dict[str, list[dict]] | None = None


def _zeta_sieve(ell: int, cutoff: int) -> primes.PrimeSieve:
    """The prime table a zeta tail to `cutoff` reads: to the cutoff for
    ell = 1; for ell >= 2 only its Omega table reads primes, to the root."""
    return primes.PrimeSieve(cutoff if ell == 1 else math.isqrt(cutoff) + 1)


def cmd_pzeta_tail(args) -> Output:
    sv = _zeta_sieve(args.ell, args.cutoff)
    res = zeta.pzeta_tail(args.ell, args.mode, args.s, args.M, args.cutoff, sv)
    rows = [{"value": res.value, "remainder_bound": res.remainder_bound,
             "upper": res.upper, "terms_used": res.terms_used}]
    return Output(_columns(rows), inputs={"sieve": sv.limit})


def cmd_pzeta_asymptotic(args) -> Output:
    sv = _zeta_sieve(args.ell, args.cutoff)
    table = zeta.asymptotic_table(args.ell, args.s, list(args.grid), args.cutoff, sv,
                                  mode=args.mode)
    rows = [{"M": r.M, "value": r.value, "ratio": r.ratio,
             "remainder_bound": r.remainder_bound} for r in table]
    return Output(_columns(rows), inputs={"sieve": sv.limit})


def cmd_cf_expand(args) -> Output:
    word = contfrac.expand_real(_fraction(args.rational), args.bits, args.max_len)
    rows = [{"digits": word, "length": len(word),
             "reconstructed": contfrac.continuants(word).value.as_integer_ratio()}]
    return Output(_columns(rows))


def cmd_interval_measure(args) -> Output:
    sv = primes.PrimeSieve(args.cutoff)
    res = measure.level_set_measure(args.ell, args.threshold, args.cutoff, sv)
    rows = [{"lower": res.exact_lower, "upper": res.exact_upper,
             "width": res.width, "terms": res.terms}]
    return Output(_columns(rows), inputs={"sieve": sv.limit})


def cmd_pressure_dim(args) -> Output:
    problem = pressure.PressureProblem(ell=args.ell, B=args.B, M=args.M, n=args.n)
    t = pressure.dimensional_number(problem, tol=args.tol, method=args.method)
    return Output(_columns([{"t": t}]))


def cmd_hwx_dim(args) -> Output:
    phi = parse_phi(args.phi)
    rep = pressure.hwx_dimension(args.ell, phi, args.window, M=args.M, n=args.n, tol=args.tol)
    rows = [{"value": rep.value, "case": rep.case,
             "logB": rep.exponents.logB, "logb": rep.exponents.logb,
             "skipped": len(rep.exponents.skipped)}]
    return Output(_columns(rows))


def cmd_mc_zero_one(args) -> Output:
    sv = primes.PrimeSieve(args.sieve)
    phi = parse_phi(args.phi)
    cfg = measure.MCExperiment(
        sample_count=args.samples, window=args.window,
        phi=lambda n: float(phi(n)), ell=args.ell, seed=args.seed)
    rep = measure.run_zero_one_experiment(cfg, sv)
    rows = [{"n": n, "hits": c, "fraction": c / args.samples}
            for n, c in rep.per_n]
    summary = {"hit_fraction": rep.hit_fraction, "hit_count": rep.hit_count,
               "refinements": rep.refinements, "max_bits_used": rep.max_bits_used}
    return Output(_columns(rows), summary)


def cmd_bb_series(args) -> Output:
    phi = parse_phi(args.phi)
    rep = measure.borel_bernstein_table(phi, args.ell, args.prime, args.window)
    rows = [{"n": r.n, "term": r.term, "partial": r.partial} for r in rep.rows]
    return Output(_columns(rows), {"series": rep.series, "skipped": len(rep.skipped)})


def cmd_luczak_dim(args) -> Output:
    params = cantor.LuczakParams(b=float(args.b), c=float(args.c))
    levels = cantor.luczak_levels(params, args.kmax, primes.PrimeSieve(args.sieve))
    ratios = cantor.falconer_lower_bound(levels)
    limit = cantor.falconer_limit(Fraction(args.b))
    rows = [{"k": lv.k, "log_m": lv.log_m, "log_eps": lv.log_eps, "rosser_ok": lv.rosser_ok,
             "block_lo": "" if lv.block is None else lv.block[0],
             "block_hi": "" if lv.block is None else lv.block[1],
             "true_count": "" if lv.true_count is None else lv.true_count,
             "ratio": ratios.get(lv.k, "")} for lv in levels]
    return Output(_columns(rows), {"limit": limit.as_integer_ratio(), "limit_float": float(limit)})


def cmd_eb_build(args) -> Output:
    sv = primes.PrimeSieve(args.sieve)
    params = cantor.make_eb_params(args.B, args.ell, args.s, args.delta, sv, M=args.M, N=args.N)
    depth = params.N + params.ell if args.depth is None else args.depth
    tree = cantor.eb_prefix_tree(params, depth, sv)
    hold = cantor.holder_check(tree)
    summary = {
        "M": params.M, "N": params.N, "t": params.t_value, "u": tree.u,
        "last_base": params.last_base,
        "alphas": "[" + ",".join(format(a, ".20g") for a in params.alphas) + "]",
        "gap_min": cantor.gap_check(tree), "holder_exponent": hold.exponent,
        "holder_max": hold.max_ratio,
    }
    # one block per tree level, whose columns are the tree's own
    blocks = ({"depth": itertools.repeat(level.depth, len(level)),
               "word": tree.words(level.depth),
               "mu": level.mu, "diam": level.diam, "lo": zip(*level.lo), "hi": zip(*level.hi)}
              for level in tree.levels)
    return Output(
        blocks, summary, inputs={"M": params.M, "N": params.N, "depth": depth},
        extra={"constraints": [{"name": n, "status": s, "detail": d}
                               for n, s, d in params.constraints]},
    )


def cmd_box_dim(args) -> Output:
    covers, inputs = [], {}
    if args.covers is not None:
        built = [f"--{k}" for k in ("b", "c", "kmax", "sieve") if getattr(args, k) is not None]
        if built:
            raise ValueError(f"--covers takes no {'/'.join(built)}: they set a built construction")
        for level in args.covers.split(";"):
            lengths = [float(x) for x in level.split(",")]
            if not all(0 < x < math.inf for x in lengths):
                raise ValueError("each cover level needs positive finite lengths")
            covers.append((len(lengths), max(lengths)))
    else:
        if args.b is None or args.c is None:
            raise ValueError("give --covers, or --b/--c/--kmax for a built construction")
        inputs = {"kmax": 3 if args.kmax is None else args.kmax,
                  "sieve": DEFAULT_SIEVE if args.sieve is None else args.sieve}
        sv = primes.PrimeSieve(inputs["sieve"])
        params = cantor.LuczakParams(b=float(args.b), c=float(args.c))
        # continuants grow in every digit, so of a level's words (digit j a prime
        # of block j) the one of least primes has the largest cylinder 1/(q (q + q'))
        count, q, q_prev = 1, 1, 0
        for lv in cantor.luczak_levels(params, inputs["kmax"], sv):
            if lv.block is None:
                raise OutOfRangeError(
                    f"level {lv.k} lies beyond the sieve; lower --kmax or raise --sieve")
            count *= lv.true_count
            q, q_prev = lv.least_prime * q + q_prev, q
            largest = 1 / (q * (q + q_prev))
            if largest == 0.0:
                raise OutOfRangeError(f"level {lv.k}: largest cylinder underflows; lower --kmax")
            covers.append((count, largest))
    est = cantor.box_dimension_estimate(covers)
    rows = [{"slope": est.slope, "residual": est.residual, "levels": est.levels}]
    return Output(_columns(rows), inputs=inputs)


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Kind:
    """A column type: its JSON-schema fragment, how a value prints as a CSV
    cell and as JSON text, and whether its values need a finite double.
    The JSON text is what json.dumps(indent=2) prints for the value as a
    field of a list item, as a row's fields are."""

    schema: dict
    cell: Callable[[object], str]
    json: Callable[[object], str]
    finite: bool = False


def _blank_or(kind: Kind) -> Kind:
    """`kind`, or a blank ("") where a row has no value."""
    return Kind({"type": [kind.schema["type"], "string"]},
                lambda v: v if v == "" else kind.cell(v),
                lambda v: '""' if v == "" else kind.json(v), kind.finite)


def _true_false(v) -> str:
    return "true" if v else "false"


# reals at 20 significant digits, rationals exact as num/den from a
# (numerator, denominator) pair
NUMBER = Kind({"type": "number"}, "{:.20g}".format, lambda v: repr(float(v)), finite=True)
MPF = Kind({"type": "number"}, lambda v: _nstr(v, 20), lambda v: repr(float(v)), finite=True)
INTEGER = Kind({"type": "integer"}, str, lambda v: repr(int(v)))
STRING = Kind({"type": "string"}, str, _json_string)
BOOLEAN = Kind({"type": "boolean"}, _true_false, _true_false)
FRACTION = Kind({"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"},
                "{0[0]}/{0[1]}".format, '"{0[0]}/{0[1]}"'.format)
DIGITS = Kind({"type": "array", "items": {"type": "integer", "minimum": 1}},
              lambda v: "[" + ",".join(map(str, v)) + "]", _json_digits)
BLANK_OR_INTEGER = _blank_or(INTEGER)
BLANK_OR_NUMBER = _blank_or(NUMBER)


def enum(*values: str) -> Kind:
    return Kind({"type": "string", "enum": list(values)}, str, _json_string)


@dataclass(frozen=True)
class Subcommand:
    """One subcommand.  `args` pairs each flag with its `add_argument`
    keyword arguments, in echo order; `columns`, `summary` and `extra`
    give the kind of each field of the rows, of the summary and of each
    further JSON block, in output order."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], Output]
    args: tuple[tuple[str, dict], ...]
    columns: dict[str, Kind]
    summary: dict[str, Kind] | None = None
    extra: dict[str, dict[str, Kind]] | None = None


def _required(type_) -> dict:
    return {"type": type_, "required": True}


ELL = ("--ell", _required(int))
MODE = ("--mode", {"choices": ("at-most", "exactly"), "default": "at-most"})
PHI = ("--phi", {"type": str, "required": True,
                 "help": "expression in n, e.g. 'n*log(n)' or '2**(2**n)'"})
WINDOW = ("--window", _required(window))
TOL = ("--tol", {"type": real, "default": 1e-9})
CUTOFF = ("--cutoff", _required(integer_limit))
SIEVE = ("--sieve", {"type": integer_limit, "default": DEFAULT_SIEVE,
                     "help": "largest integer the prime table covers (default %(default)s)"})

COMMANDS: dict[str, Subcommand] = {c.name: c for c in (
    Subcommand(
        "pzeta-tail", "truncated almost-prime zeta tail with bound", cmd_pzeta_tail,
        args=(ELL, MODE, ("--s", _required(real)), ("--M", _required(real)), CUTOFF),
        columns={"value": MPF, "remainder_bound": MPF, "upper": MPF,
                 "terms_used": INTEGER},
    ),
    Subcommand(
        "pzeta-asymptotic", "normalized tail ratios along a threshold grid",
        cmd_pzeta_asymptotic,
        args=(ELL, MODE, ("--s", _required(real)), ("--grid", _required(grid)), CUTOFF),
        columns={"M": NUMBER, "value": MPF, "ratio": MPF, "remainder_bound": MPF},
    ),
    Subcommand(
        "cf-expand", "continued-fraction digits of a rational", cmd_cf_expand,
        args=(("--rational", {"type": str, "required": True,
                              "help": "num/den or a decimal in [0,1)"}),
              ("--bits", {"type": precision_bits,
                          "help": "certify the digits of [x, x + 2^-bits]; exact when omitted"}),
              ("--max-len", {"type": int, "default": 64})),
        columns={"digits": DIGITS, "length": INTEGER, "reconstructed": FRACTION},
    ),
    Subcommand(
        "interval-measure", "exact Lebesgue-measure bracket of a prime level set",
        cmd_interval_measure,
        args=(ELL, ("--threshold", _required(real)), CUTOFF),
        columns={"lower": NUMBER, "upper": NUMBER, "width": NUMBER, "terms": INTEGER},
    ),
    Subcommand(
        "pressure-dim", "dimensional number by bisection on the partition sum",
        cmd_pressure_dim,
        args=(ELL, ("--B", _required(real)), ("--M", _required(int)),
              ("--n", _required(int)), TOL,
              ("--method", {"choices": ("auto", "enumerate", "collocate"),
                            "default": "auto"})),
        columns={"t": NUMBER},
    ),
    Subcommand(
        "hwx-dim", "dimension of the growth level set, with case", cmd_hwx_dim,
        args=(ELL, PHI, WINDOW, ("--M", {"type": int, "default": 20}),
              ("--n", {"type": int, "default": 8}), TOL),
        columns={"value": NUMBER, "case": enum("B=1", "1<B<inf", "B=inf"),
                 "logB": NUMBER, "logb": NUMBER, "skipped": INTEGER},
    ),
    Subcommand(
        "mc-zero-one", "Monte Carlo hit rates for the level sets", cmd_mc_zero_one,
        args=(ELL, PHI, WINDOW, ("--samples", _required(int)),
              ("--seed", {"type": int, "default": 0}), SIEVE),
        columns={"n": INTEGER, "hits": INTEGER, "fraction": NUMBER},
        summary={"hit_fraction": NUMBER, "hit_count": INTEGER,
                 "refinements": INTEGER, "max_bits_used": INTEGER},
    ),
    Subcommand(
        "bb-series", "partial sums of the criterion series", cmd_bb_series,
        args=(ELL, PHI,
              ("--prime", {"action": "store_true",
                           "help": "prime-digit series instead of plain digits"}),
              WINDOW),
        columns={"n": INTEGER, "term": NUMBER, "partial": NUMBER},
        summary={"series": STRING, "skipped": INTEGER},
    ),
    Subcommand(
        "luczak-dim", "doubly exponential construction levels and dimension ratios",
        cmd_luczak_dim,
        args=(("--b", _required(real_text)), ("--c", _required(real_text)),
              ("--kmax", _required(kmax)), SIEVE),
        columns={"k": INTEGER, "log_m": NUMBER, "log_eps": NUMBER, "rosser_ok": BOOLEAN,
                 "block_lo": BLANK_OR_INTEGER, "block_hi": BLANK_OR_INTEGER,
                 "true_count": BLANK_OR_INTEGER, "ratio": BLANK_OR_NUMBER},
        summary={"limit": FRACTION, "limit_float": NUMBER},
    ),
    Subcommand(
        "eb-build", "bounded-alphabet prime-run set with mass", cmd_eb_build,
        args=(("--B", _required(real)), ELL, ("--s", _required(real)),
              ("--delta", _required(real)),
              ("--M", {"type": positive, "help": "searched when omitted"}),
              ("--N", {"type": positive, "help": "searched when omitted"}),
              ("--depth", {"type": positive, "help": "through the first prime run when omitted"}),
              SIEVE),
        columns={"depth": INTEGER, "word": DIGITS, "mu": NUMBER, "diam": NUMBER,
                 "lo": FRACTION, "hi": FRACTION},
        summary={"M": INTEGER, "N": INTEGER, "t": NUMBER, "u": NUMBER,
                 "last_base": NUMBER, "alphas": STRING, "gap_min": NUMBER,
                 "holder_exponent": NUMBER, "holder_max": NUMBER},
        extra={"constraints": {"name": STRING, "status": enum("ok", "symbolic"),
                               "detail": STRING}},
    ),
    Subcommand(
        "box-dim", "box-counting slope from cover lengths", cmd_box_dim,
        args=(("--covers", {"type": str,
                            "help": "semicolon-separated levels of comma-separated lengths"}),
              ("--b", {"type": real_text}), ("--c", {"type": real_text}),
              ("--kmax", {"type": kmax, "help": "built construction only (default 3)"}),
              ("--sieve", {"type": integer_limit, "help": "largest integer the prime table of a "
                           f"built construction covers (default {DEFAULT_SIEVE})"})),
        columns={"slope": NUMBER, "residual": NUMBER, "levels": INTEGER},
    ),
)}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _object(fields: dict[str, Kind]) -> dict:
    return {
        "type": "object",
        "properties": {name: copy.deepcopy(kind.schema) for name, kind in fields.items()},
        "required": sorted(fields),
        "additionalProperties": False,
    }


def schema_for(command: str) -> dict:
    """The draft-07 JSON schema that `primecf <command> --format json` output
    validates against, built from the command's declared columns."""
    sub = COMMANDS[command]
    properties = {
        "schema": {"const": f"{command}.schema.json"},
        "command": {"const": command},
        "inputs": {"type": "object"},
        "rows": {"type": "array", "items": _object(sub.columns)},
    }
    if sub.summary is not None:
        properties["summary"] = _object(sub.summary)
    for key, fields in (sub.extra or {}).items():
        properties[key] = {"type": "array", "items": _object(fields)}
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": f"{command}.schema.json",
        "title": f"primecf {command} output",
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def build_parser() -> argparse.ArgumentParser:
    # usage lines wrap at 78 columns, argparse's width at COLUMNS=80, not at
    # the terminal's, so an error prints the same bytes in any terminal
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="primecf",
        description="Continued fractions with large prime partial quotients: "
                    "zeta tails, interval measures, dimensions, constructions.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help, formatter_class=formatter)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag, kwargs in cmd.args:
            p.add_argument(flag, **kwargs)
    return parser


def _run(args: argparse.Namespace) -> Iterator[str]:
    """The rendered output of one parsed invocation, in chunks (see
    `_emit`).  Its echo holds each declared flag as parsed, or as the
    handler resolved it, unless unset."""
    cmd = COMMANDS[args.command]
    out = cmd.handler(args)
    inputs = {_dest(flag): getattr(args, _dest(flag)) for flag, _ in cmd.args} | out.inputs
    return _emit(cmd, args.format, {k: v for k, v in inputs.items() if v is not None}, out)


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a spin-waiting worker per extra core when it
    # loads, and BLAS here only multiplies 61 x 61 matrices: one thread,
    # unless the caller set a count (an empty value still means one per
    # core).  A process that already loaded numpy keeps its pool.
    if "numpy" not in sys.modules and not os.environ.get("OPENBLAS_NUM_THREADS"):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser().parse_args(argv)
    try:
        # _emit checks every value before its first chunk: a refusal prints nothing
        for chunk in _run(args):
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except (GuardError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardError) else 2
    except BrokenPipeError:
        # the reader left: what stdout still buffers goes to os.devnull, so
        # the flush at exit cannot fail again; the exit code is that of a
        # writer killed by SIGPIPE (13), as a shell reports it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return 0


if __name__ == "__main__":
    sys.exit(main())
