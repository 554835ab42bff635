"""tools/code_lines.py counts what the ROADMAP calls code lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring,
over two lines."""
# a comment

import os


class Box:
    """A class docstring."""

    text = """a string that is no docstring,
over two lines"""  # counts twice

    def size(self):
        \'\'\'A function docstring.\'\'\'
        # a comment in a body

        return (1,
                2)
'''


def test_counts_only_lines_that_hold_code():
    # import, class, both lines of text, def, both lines of the return
    assert _tool().code_lines(SNIPPET) == 7


def test_prints_each_module_and_a_total_that_sums_them(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["a.py", "7"],
        ["b.py", "1"],
        ["total", "8"],
    ]
