"""The package's import graph is one-way: no module hides an import under TYPE_CHECKING."""

import ast
from pathlib import Path

import crnextinct

PACKAGE = Path(crnextinct.__file__).parent


def _imports(module: str) -> set[str]:
    """The package modules a package module imports, by their name inside the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("crnextinct."):
                found.add(node.module.split(".")[1])
            elif node.module == "crnextinct":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("crnextinct."):
                    found.add(alias.name.split(".")[1])
    return found


def test_imports_are_one_way_and_none_is_under_type_checking():
    hidden = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in getattr(node, "names", ())]
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "TYPE_CHECKING" in names:
                hidden.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
                hidden.append(f"{path.name}:{node.lineno}")
    assert hidden == []
    # model imports graphs (a network holds its reaction graph), never the reverse
    assert "graphs" in _imports("model")
    assert "model" not in _imports("graphs")
