"""Every package module is written in the syntax of the oldest Python that pyproject.toml allows."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crnextinct"
PYPROJECT = ROOT / "pyproject.toml"
SMOKE = ROOT / "tools" / "smoke.py"


def _floor() -> tuple[int, int]:
    """(major, minor) of the requires-python lower bound."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_python_floor(path):
    # feature_version refuses syntax newer than the floor, such as except*
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())


def test_the_floor_check_refuses_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=_floor())


def test_the_stdlib_smoke_run_passes():
    # tools/smoke.py is what an interpreter without pytest runs; it needs no PYTHONPATH
    done = subprocess.run(
        [sys.executable, str(SMOKE)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(list((ROOT / "fixtures").glob("*.crn"))) + 1
    assert lines.count("envz: GuaranteedExtinction, report verifies") == 1
    assert lines[-1].startswith("oracle: ")
