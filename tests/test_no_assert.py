"""The package's self-audits raise explicitly, because `python -O` strips `assert`."""

import ast
from pathlib import Path

import crnextinct


def test_package_has_no_assert_statement():
    found = []
    for path in sorted(Path(crnextinct.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
