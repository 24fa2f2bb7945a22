"""The benchmark tracer wraps primecf functions by name; each must exist.

perfbench/tracer.py is read as text, not imported, so this suite does not
depend on the benchmark package.
"""
import ast
import importlib
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
