"""List each statement of the package that the test suite never executes.

Runs pytest in this process under a line tracer (sys.settrace, and
threading.settrace for threads that tests start) and prints every statement
of src/crnextinct whose own lines never ran, one per line as
`module.py:LINE: source`, then a count.  The tracer is set again before each
test, since a test or a plugin may replace it: set only once, it listed over
100 statements of this package that the tests do run.  Lines that run only
in a subprocess a test starts are not seen, so such statements are listed
too.  Needs pytest; stdlib otherwise:

    python tools/untested_lines.py [PYTEST_ARGS...]

PYTEST_ARGS default to the tier-1 suite, this checkout's tests/.  A traced
run takes about three times as long as an untraced one.  The exit code is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

from code_lines import docstring_lines  # the sibling tool, on the path when run as a script

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crnextinct"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> list[tuple[int, int]]:
    """The first and last of each statement's own lines, in line order.

    A statement is an ast.stmt other than a def, a class, an import or a
    docstring.  Its own lines end before its first nested statement (a
    compound statement's header) or at its end.
    """
    docstrings = docstring_lines(source)
    spans = []
    for node in ast.walk(ast.parse(source)):
        docstring = isinstance(node, ast.Expr) and node.lineno in docstrings
        if isinstance(node, ast.stmt) and not isinstance(node, _NOT_RUN) and not docstring:
            inner = [n.lineno for n in ast.walk(node) if isinstance(n, ast.stmt) and n is not node]
            last = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
            spans.append((node.lineno, last))
    return sorted(spans)


def untested(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement none of whose own lines is in `ran`."""
    return [first for first, last in statements(source) if ran.isdisjoint(range(first, last + 1))]


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer: its exit code, and the lines run in each package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    class Retrace:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(trace)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv or TIER1)
    total = listed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        total += len(statements(source))
        for first in untested(source, ran.get(str(path), set())):
            listed += 1
            print(f"{path.name}:{first}: {text[first - 1].strip()}")
    print(f"{listed} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
