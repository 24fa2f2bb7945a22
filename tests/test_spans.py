"""The benchmark tracer wraps primecf functions by name; each must exist.

perfbench/tracer.py is read as text, not imported, so this suite does not
depend on the benchmark package.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS tuple in {TRACER}")


def test_every_traced_span_resolves():
    spans = _spans()
    assert spans
    missing = []
    for span in spans:
        module, name = span.split(".")
        if not callable(getattr(importlib.import_module(f"primecf.{module}"), name, None)):
            missing.append(span)
    assert missing == []


def test_cli_import_registers_every_traced_module():
    # The tracer indexes sys.modules after `import primecf.cli` and before any
    # command runs, so every module it wraps must be registered by then, even
    # if not yet executed.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, primecf.cli; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {f"primecf.{span.split('.')[0]}" for span in _spans()} - loaded == set()
