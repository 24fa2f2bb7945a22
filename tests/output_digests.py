"""Output digests of the README's command-line examples.

`output_digests.json`, next to this file, maps each example (the argv as
one shell-quoted line) to the sha256 of its stdout, the sha256 of its
stderr and its exit code.  The examples are read from README.md: the
three shown with their output, then the eight listed under "More:".
`tests/test_cli.py` recomputes every digest in-process and compares.

    python tests/output_digests.py            # print the argvs that changed
    python tests/output_digests.py --write    # and rewrite the file

Without --write the script exits 1 when a digest changed.
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


def run(argv: list[str]) -> dict:
    """sha256 of stdout and of stderr, and the exit code, of one in-process run."""
    from primecf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def compute() -> dict[str, dict]:
    return {shlex.join(argv): run(argv) for argv in readme_examples()}


def stored() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def changed(new: dict[str, dict], old: dict[str, dict]) -> list[str]:
    """The argvs whose digests differ, are new, or are gone, in file order."""
    return [line for line in {**old, **new} if new.get(line) != old.get(line)]


def main(args: list[str]) -> int:
    new = compute()
    lines = changed(new, stored())
    for line in lines:
        print(line)
    if "--write" in args:
        DIGESTS.write_text(json.dumps(new, indent=2) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
