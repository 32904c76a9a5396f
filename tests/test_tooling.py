"""The benchmark's tracer (perfbench/spans.py) wraps cdskit functions by
(module, attribute) name, so every name it lists must still resolve: a
name lost in an import cleanup would otherwise only show when a traced
benchmark run fails."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped_names() -> dict:
    """The WRAPPED table, read from the source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


def test_every_wrapped_name_resolves():
    wrapped = wrapped_names()
    assert wrapped
    missing = [
        (module, attr)
        for module, attr in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
