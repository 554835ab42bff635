"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

assert run.use_checkout()


@pytest.fixture(scope="module")
def search_inputs():
    inputs, *_ = run.setup("search", 7)
    # the fixtures and the two smallest generated networks keep this test short
    keep = set(workloads.FIXTURES) | {"gen-3x5-0", "gen-3x5-2"}
    inputs.items = [i for i in inputs.items if i.key in keep]
    return inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_networks(workload):
    first = run.setup(workload, 11)[0]
    again = run.setup(workload, 11)[0]
    other = run.setup(workload, 12)[0]
    assert [i.text for i in first.items] == [i.text for i in again.items]
    assert first.digest == again.digest != other.digest


def test_traced_and_untraced_runs_agree(search_inputs):
    tracer = run.tracing.Tracer()
    untraced = [run.run_pass(search_inputs)]
    traced = [run.run_pass(search_inputs, tracer), run.run_pass(search_inputs, tracer)]
    run.mark_tracing_mismatches(search_inputs, untraced, traced)
    assert all(not e for p in untraced + traced for e in p["errors"])
    assert traced[0]["counts"]["forests.decided"] > 0
    engine = search_inputs.mods["engine"]
    for name in ("analyze", "decide_balance", "enumerate_forests", "is_subconservative"):
        assert not hasattr(getattr(engine, name), "__wrapped__"), name


def test_flipped_farkas_multiplier_is_a_failed_op():
    inputs, *_ = run.setup("certify", 3)
    inputs.items = [i for i in inputs.items if i.key == "intro"]
    report = inputs.mods["report"]

    def flipped(net, verdict, cfg):
        doc = json.loads(report.emit_report(net, verdict, cfg))
        ge = doc["balance_refutations"][0]["farkas"]["ge"]
        k = next(j for j, v in enumerate(ge) if v["num"] != "0")
        ge[k]["num"] = str(-int(ge[k]["num"]))
        return json.dumps(doc).encode("utf-8")

    inputs.mods = dict(
        inputs.mods,
        report=types.SimpleNamespace(emit_report=flipped, verify_report=report.verify_report),
    )
    errors = run.run_pass(inputs)["errors"]
    assert len(errors) == 1 and errors[0]
    assert "verify_report" in errors[0][0]


def test_oracle_run_makes_no_lp_calls():
    inputs, *_ = run.setup("oracle", 1)
    traced = run.run_pass(inputs, run.tracing.Tracer())
    assert all(not e for e in traced["errors"])
    counts = traced["counts"]
    assert counts["oracle.explore_calls"] > 0
    for name in run.PER_LAYER_COUNTS:
        if name.startswith("exactlp."):
            assert counts.get(name, 0) == 0, name
