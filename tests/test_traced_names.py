"""The benchmark wraps and looks up package functions by name; each must exist."""

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


def test_every_name_the_bench_reads_off_the_engine_exists():
    # bench/test_bench.py checks that these names on crnextinct.engine are
    # unwrapped after a traced pass, so each must stay importable from there
    from crnextinct import engine

    for name in ("analyze", "decide_balance", "enumerate_forests", "is_subconservative"):
        assert callable(getattr(engine, name, None)), name
