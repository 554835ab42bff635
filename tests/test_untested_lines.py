"""tools/untested_lines.py lists the package statements that tests never run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))  # it imports code_lines beside it
    spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring."""
import os
from sys import path


class Box:
    """A class docstring."""

    size = 2

    def grow(self, by):
        \'\'\'A function docstring.\'\'\'
        if (by
                > 0):
            self.size += by
        else:
            pass
        try:
            total = (self.size,
                     by)
        except ValueError:
            raise
        return total
'''


def test_finds_each_statement_and_its_own_lines(tool):
    # the class body's assignment, the if header over two lines and its two
    # branches, the try header and its body over two lines, the raise and the
    # return; no def, class, import or docstring
    assert tool.statements(SNIPPET) == [
        (9, 9), (13, 14), (15, 15), (17, 17), (18, 18), (19, 20), (22, 22), (23, 23),
    ]


def test_a_statement_ran_when_any_of_its_own_lines_did(tool):
    # the if header ran on its second line only, the try body on its second
    assert tool.untested(SNIPPET, {9, 14, 15, 18, 20, 23}) == [17, 22]


def test_the_tracer_is_set_again_before_each_test(tmp_path):
    # the first test drops the tracer; the second one's lines are still seen
    (tmp_path / "test_pair.py").write_text(
        "import sys\n"
        "from crnextinct.model import parse_int\n\n"
        "def test_drop():\n    sys.settrace(None)\n\n"
        "def test_read():\n    assert parse_int('12') == 12\n",
        encoding="utf-8",
    )
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tmp_path)]
    done = subprocess.run(
        [sys.executable, str(TOOL), *args],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    listed = done.stdout.splitlines()
    # parse_int's first path ran; its path past the digit limit did not
    assert not any(line.endswith(": return int(text)") for line in listed)
    assert any(line.endswith(': digits = text.lstrip("-")') for line in listed)
    assert listed[-1].endswith("statements never ran")
