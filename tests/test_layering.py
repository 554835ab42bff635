"""The package's import graph is one-way: no module hides an import under TYPE_CHECKING.

Every name a module imports from the package is read in that module, but
for the two that other code looks up on the module.
"""

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


def _type_checking_lines(source: str) -> list[int]:
    """The lines that import TYPE_CHECKING or read it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        # only an import's names are aliases: global and nonlocal keep plain strings
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "TYPE_CHECKING" in [alias.name for alias in node.names]:
                lines.append(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            lines.append(node.lineno)
    return lines


def test_type_checking_scan_reads_names_only_from_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import typing\n"
        "count = 0\n"
        "def bump():\n"
        "    global count\n"
        "    count += 1\n"
        "    total = 0\n"
        "    def inner():\n"
        "        nonlocal total\n"
        "        total += typing.TYPE_CHECKING\n"
        "    inner()\n"
    )
    assert _type_checking_lines(source) == [1, 10]


def test_imports_are_one_way_and_none_is_under_type_checking():
    hidden = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _type_checking_lines(path.read_text(encoding="utf-8"))
    ]
    assert hidden == []
    # model imports graphs (a network holds its reaction graph), never the reverse
    assert "graphs" in _imports("model")
    assert "model" not in _imports("graphs")


# imported and never read: each is looked up on its module from outside it
_REEXPORTED = {
    ("engine", "decide_balance"),  # bench/test_bench.py reads it off the engine
    ("oracle", "StateCapExceeded"),  # the CLI catches it as oracle.StateCapExceeded
}


def test_every_name_imported_from_the_package_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "crnextinct")
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in imported - read)
    assert unused == _REEXPORTED


def test_every_dataclass_validates_and_has_a_docstring():
    # dataclasses generate and compile their methods at import, and one with
    # no docstring also has inspect.signature build one; a plain record is a
    # NamedTuple, so a dataclass is only worth its import cost when its
    # __post_init__ checks what it is given
    found, offending = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            names = {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}
            if "dataclass" not in names:
                continue
            found.append(node.name)
            methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            if "__post_init__" not in methods or ast.get_docstring(node) is None:
                offending.append(f"{path.name}:{node.name}")
    assert {"Complex", "LinearSystem", "ReactionGraph", "SearchConfig"} <= set(found)
    assert offending == []
