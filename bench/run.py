"""crnextinct benchmark: end-to-end and per-layer timings of three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify|search|oracle --seed N --seconds S --trace 0|1

The run imports the package from `src/`, builds the workload's inputs from the
seed, then runs whole passes over them in one process, one network or oracle
query at a time (a closed loop, no threads), until S seconds have passed and
the tail percentile has enough samples.  It prints every metric by name with
its unit, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with nothing
wrapped.  With --trace 1 the run alternates untraced and traced passes and
reports the per-layer metrics of the traced ones; spans go to bench/out/.
The exit code is 1 when any operation failed its check, 2 on bad usage or a
checkout without the package.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("certify", "search", "oracle")
SETUP_REPEATS = 15
TAIL_PERCENTILE = 90
MODULES = ("parser", "model", "engine", "report", "oracle", "exactlp")
# What reference_loop takes on the machine the bounds were set on (a 2-vCPU
# x86-64 VM under Python 3.11.7) in its fast state.  End-to-end times are
# reported at that speed; see normalized().
REFERENCE_LOOP_S = 0.0084
clock = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_COUNTS = (
    "invariants.subconservative_calls",
    "exactlp.solve_calls",
    "exactlp.lexmin_calls",
    "exactlp.minimize_calls",
    "exactlp.tableau_cells",
    "engine.candidates",
    "engine.vacuous_skipped",
    "engine.truncated_verdicts",
    "forests.enumerated",
    "forests.decided",
    "forests.balanced",
    "forests.refutations",
    "report.bytes",
    "oracle.explore_calls",
    "oracle.states",
    "oracle.edges",
)


def use_checkout() -> bool:
    """Put the checkout's src/ on the import path; False when the checkout lacks the package."""
    if not (ROOT / "src" / "crnextinct").is_dir() or not (ROOT / "fixtures").is_dir():
        return False
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return True


def reference_loop() -> float:
    """Wall time of fixed exact rational arithmetic, like the package's own inner loops.

    Timed around every op and set-up: the machine's speed drifts by up to 1.6x
    for stretches of seconds to minutes, and the package slows with it.
    """
    t0 = clock()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 97, i % 13 + 1) * Fraction(3, i)
    return clock() - t0


def normalized(seconds: float, reference: float) -> float:
    """A wall time rescaled to the speed at which reference_loop takes REFERENCE_LOOP_S."""
    return seconds * REFERENCE_LOOP_S / reference


def import_package() -> dict:
    """A fresh import of the package from src/, so that set-up can be repeated and timed."""
    for key in [k for k in sys.modules if k == "crnextinct" or k.startswith("crnextinct.")]:
        del sys.modules[key]
    importlib.import_module("crnextinct")
    return {name: importlib.import_module(f"crnextinct.{name}") for name in MODULES}


def setup(workload: str, seed: int) -> tuple[workloads.Inputs, float, float]:
    """Import, parse and generate; returns the inputs, the wall time and the reference time."""
    before = reference_loop()
    t0 = clock()
    mods = import_package()
    inputs = workloads.build_inputs(workload, seed, mods, ROOT / "fixtures", clock)
    seconds = clock() - t0
    return inputs, seconds, (before + reference_loop()) / 2


def run_pass(inputs: workloads.Inputs, tracer: tracing.Tracer | None = None) -> dict:
    """One closed-loop pass over every input; checks run after the pass, untraced."""
    op = workloads.oracle_op if inputs.workload == "oracle" else workloads.network_op
    check = workloads.check_oracle if inputs.workload == "oracle" else workloads.check_network
    results: list = []
    gc.collect()  # every pass starts from the same heap, not from the last pass's garbage
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = clock()
    try:
        for item in inputs.items:
            before = reference_loop()
            try:
                result = op(inputs, item, clock)
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                results.append(exc)
                continue
            result.reference = (before + reference_loop()) / 2
            results.append(result)
    finally:
        wall = clock() - t0
        if tracer is not None:
            tracer.uninstall()
    errors: list[list[str]] = []
    for item, result in zip(inputs.items, results):
        if isinstance(result, Exception):
            errors.append([f"{item.key}: raised {type(result).__name__}: {result}"])
        else:
            errors.append(check(inputs, item, result))
    out = {"wall": wall, "results": results, "errors": errors}
    if tracer is not None:
        out["spans"] = list(tracer.spans)
        out["counts"] = dict(tracer.counts)
    return out


def tail_rank(n: int) -> int:
    """1-based nearest rank of the TAIL_PERCENTILE among n values."""
    return math.ceil(TAIL_PERCENTILE / 100 * n)


def min_passes(n_items: int) -> int:
    """Passes needed for ten calls beyond the tail: each input is called once a pass."""
    beyond = n_items - tail_rank(n_items)
    return math.ceil(10 / beyond) if beyond else 1


def main_call(result) -> float:
    return result.seconds.get("analyze", result.seconds.get("query"))


def per_input(passes: list[dict]) -> list[tuple[float, float, int]]:
    """Per input, the median over passes of its normalized call and op times, and its units.

    Each op's wall time is normalized by the reference loop run just before
    and after it; the median over passes keeps a slow stretch that hits a
    minority of passes out of every metric.
    """
    out = []
    for column in zip(*(p["results"] for p in passes)):
        done = [r for r in column if not isinstance(r, Exception)]
        if done:
            out.append((
                statistics.median(normalized(main_call(r), r.reference) for r in done),
                statistics.median(normalized(sum(r.seconds.values()), r.reference) for r in done),
                done[0].units,
            ))
    return out or [(0.0, 0.0, 0)]


def end_to_end(passes: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    per_item = per_input(passes)
    calls = sorted(c for c, _, _ in per_item)
    rank = tail_rank(len(calls))
    busy = sum(t for _, t, _ in per_item)
    values = {
        "setup_s": statistics.median(normalized(s, ref) for s, ref in setups),
        "call_p50_s": statistics.median(calls),
        "call_tail_s": calls[rank - 1],
        "items_per_s": sum(u for _, _, u in per_item) / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    done = [r for p in passes for r in p["results"] if not isinstance(r, Exception)]
    notes = [
        f"call_tail_s is p{TAIL_PERCENTILE} of the per-input medians of {len(calls)} inputs "
        f"over {len(passes)} passes ({(len(calls) - rank) * len(passes)} calls beyond it)",
        "pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in passes),
        f"reference loop: median {statistics.median(r.reference for r in done) if done else 0.0:.5f} s, "
        f"{REFERENCE_LOOP_S} s at the reference speed",
        f"unnormalized medians: setup {statistics.median(s for s, _ in setups):.5f} s, "
        f"call {statistics.median(main_call(r) for r in done) if done else 0.0:.5f} s",
    ]
    return values, notes


def per_layer(untraced: list[dict], traced: list[dict], parse_s: list[float]) -> tuple[dict, list[str]]:
    times = [tracing.layer_seconds(p["spans"]) for p in traced]
    selfs = [tracing.self_seconds(p["spans"]) for p in traced]
    values = {name: statistics.median(t[name] for t in times) for name in tracing.LAYERS}
    values["engine.self_s"] = statistics.median(s.get("engine.analyze", 0.0) for s in selfs)
    counts = traced[0]["counts"]
    for name in PER_LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    enumerated = values["forests.enumerated"]
    values["forests.decided_per_enumerated"] = (
        values["forests.decided"] / enumerated if enumerated else 0.0
    )
    values["parser.parse_s"] = statistics.median(parse_s)
    values["trace.overhead_s"] = sum(t for _, t, _ in per_input(traced)) - sum(
        t for _, t, _ in per_input(untraced)
    )
    notes = [
        f"forests.decided_per_enumerated: {values['forests.decided']} decided of {enumerated} enumerated",
        "untraced pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in untraced),
        "traced pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in traced),
    ]
    return values, notes


def mark_tracing_mismatches(inputs, untraced: list[dict], traced: list[dict]) -> None:
    """Fail every op whose verdict, search counts or report bytes differ from the first
    untraced pass, and every traced pass whose per-layer counts differ from the first."""
    def summary(result):
        return None if isinstance(result, Exception) else result.summary

    reference = [summary(r) for r in untraced[0]["results"]]
    for p in untraced[1:] + traced:
        for i, result in enumerate(p["results"]):
            if summary(result) != reference[i]:
                p["errors"][i].append(f"{inputs.items[i].key}: outcome differs between passes")
    for p in traced[1:]:
        if p["counts"] != traced[0]["counts"]:
            p["errors"][0].append("per-layer counts differ between traced passes")


def write_spans(workload: str, seed: int, traced: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    spans = traced["spans"]
    self_time = tracing.self_seconds(spans)
    doc = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, round(s, 9), round(e, 9), p] for n, s, e, p in spans],
        "self_s": dict(sorted(self_time.items())),
        "counts": traced["counts"],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not use_checkout():
        print(f"error: no src/crnextinct or fixtures/ under {ROOT}", file=sys.stderr)
        return 2

    setups, parse_s = [], []
    for _ in range(SETUP_REPEATS):
        inputs, seconds, reference = setup(args.workload, args.seed)
        setups.append((seconds, reference))
        parse_s.append(inputs.parse_s)
    print(f"workload {args.workload} seed {args.seed}: {len(inputs.items)} inputs, "
          f"sha256 {inputs.digest}")

    passes_needed = 1 if args.trace else min_passes(len(inputs.items))
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = tracing.Tracer(clock)
    deadline = clock() + args.seconds
    while True:
        if args.trace and len(traced) < len(untraced):
            traced.append(run_pass(inputs, tracer))
        else:
            untraced.append(run_pass(inputs))
        if clock() >= deadline and len(untraced) >= passes_needed and (not args.trace or traced):
            break

    if args.trace:
        mark_tracing_mismatches(inputs, untraced, traced)
    passes = untraced + traced
    attempted = sum(len(p["errors"]) for p in passes)
    failed = sum(1 for p in passes for e in p["errors"] if e)
    messages = sorted({m for p in passes for e in p["errors"] for m in e})
    if args.trace:
        metrics, notes = per_layer(untraced, traced, parse_s)
        notes.append(f"spans written to {write_spans(args.workload, args.seed, traced[0])}")
        units = {name: "count" for name in PER_LAYER_COUNTS}
        units["forests.decided_per_enumerated"] = "ratio"
    else:
        metrics, notes = end_to_end(untraced, setups)
        units = END_TO_END
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    for note in notes:
        print(note)
    print(f"ops_failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units.get(name, 's')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units.get(name, "s")} for name in sorted(metrics)
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
