"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib

from conftest import bench_module


def test_every_traced_name_exists():
    spans = bench_module("spans")
    targets = spans._targets()
    assert "exactlp.solve_feasibility" in targets and "exactlp.minimize" in targets
    for name in targets:
        home, attr = name.split(".")
        module = importlib.import_module(f"{spans.PACKAGE}.{home}")
        assert callable(getattr(module, attr, None)), name
