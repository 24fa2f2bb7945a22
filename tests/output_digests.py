"""Output digests of the command-line corpus.

`output_digests.json`, next to this file, maps each argv of the corpus
(as one shell-quoted line) to the sha256 of its stdout, the sha256 of its
stderr and its exit code.  The corpus is every `primecf` example of
README.md (the three shown with their output, then the eight listed under
"More:"), each `INVOCATIONS` command of `tests/test_cli.py` in CSV and in
JSON, every `TOTALITY` argv there, and the argvs of its `OUTPUT_PINS`.
The tests that run those argvs compare their output with the stored
digests, and the README examples are recomputed by
`test_readme_output_digests`.

    python tests/output_digests.py            # print the argvs that changed
    python tests/output_digests.py --write    # and rewrite the file

Each changed argv prints on one line with what moved: `stdout`, `stderr`
and `exit` as they differ, or `new` or `gone`.  Nothing prints when nothing
changed.  Without --write the script exits 1 when a digest changed.  The
digests must not depend on the CPU: `test_output_digests_hold_under_other_cpu_dispatch`
runs the script, from the repository root, under each environment setting
of `OTHER_DISPATCH` in `tests/test_cli.py` (other OpenBLAS kernels, numpy
loops and libm variants, and two BLAS threads), and each run must exit 0
with no output, as in

    OPENBLAS_CORETYPE=Sandybridge python tests/output_digests.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DIGESTS = Path(__file__).with_name("output_digests.json")


def readme_examples() -> list[list[str]]:
    """Every `primecf` argv of the README, in order."""
    text = README.read_text()
    shown = re.findall(r"```\n\$ primecf (.*?)\n", text)
    more = re.search(r"More:\n\n```sh\n(.*?)```", text, re.DOTALL).group(1)
    listed = shlex.split(more.replace("\\\n", " "), comments=True)
    starts = [i for i, word in enumerate(listed) if word == "primecf"] + [len(listed)]
    return [shlex.split(line) for line in shown] + [
        listed[a + 1:b] for a, b in zip(starts, starts[1:])]


def corpus() -> list[list[str]]:
    """Every argv with a stored digest: the README examples, then
    `INVOCATIONS` in CSV and in JSON, then `TOTALITY`, then `OUTPUT_PINS`."""
    import test_cli  # the argv tables of tests/test_cli.py

    return [*readme_examples(),
            *([cmd, *args, "--format", fmt]
              for cmd, args in test_cli.INVOCATIONS.items() for fmt in ("csv", "json")),
            *(argv for argv, _, _ in test_cli.TOTALITY),
            *test_cli.OUTPUT_PINS]


def digest(code: int, out: str, err: str) -> dict:
    """sha256 of stdout and of stderr, and the exit code."""
    return {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
            "exit": code}


def run(argv: list[str]) -> dict:
    """The digest of one in-process run."""
    from primecf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return digest(code, out.getvalue(), err.getvalue())


def compute(argvs: list[list[str]]) -> dict[str, dict]:
    return {shlex.join(argv): run(argv) for argv in argvs}


def stored() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def changed(new: dict[str, dict], old: dict[str, dict]) -> list[tuple[str, str]]:
    """The argvs whose digests differ, are new, or are gone, in file order,
    each with what moved: its differing fields, comma-separated, or "new"
    or "gone"."""
    moved = []
    for line in {**old, **new}:
        a, b = old.get(line), new.get(line)
        if a != b:
            moved.append((line, "new" if a is None else "gone" if b is None
                          else ",".join(key for key in b if a.get(key) != b[key])))
    return moved


def main(args: list[str]) -> int:
    new = compute(corpus())
    lines = changed(new, stored())
    for line, what in lines:
        print(line, what, sep="  ")
    if "--write" in args:
        DIGESTS.write_text(json.dumps(new, indent=2) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
