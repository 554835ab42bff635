"""The package's self-audits raise explicitly, because `python -O` strips `assert`.

They share one convention: `raise AssertionError("internal error: ...")`,
with no subclass of their own.
"""

import ast
from pathlib import Path

import crnextinct


def _package_trees():
    for path in sorted(Path(crnextinct.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _message_prefix(call: ast.Call) -> str | None:
    """The literal text a raise's message starts with, or None when it has none."""
    if len(call.args) != 1 or call.keywords:
        return None
    message = call.args[0]
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    return None


def test_package_has_no_assert_statement():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_internal_fault_is_a_plain_assertion_error_saying_so():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if any(isinstance(b, ast.Name) and b.id == "AssertionError" for b in node.bases):
                    found.append(f"{name}:{node.lineno}: class {node.name}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if not (isinstance(target, ast.Name) and target.id == "AssertionError"):
                    continue
                prefix = _message_prefix(exc) if isinstance(exc, ast.Call) else None
                if prefix is None or not prefix.startswith("internal error:"):
                    found.append(f"{name}:{node.lineno}: raise without 'internal error:'")
    assert found == []
