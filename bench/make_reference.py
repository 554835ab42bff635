"""Regenerate bench/reference.json: the verdicts the benchmark checks against.

Usage, from the root of a checkout:  python3 bench/make_reference.py

It analyzes every generated network of the certify and search families in
their base labelling (species X1..Xm in index order), and the fixtures under
the widened search, and records each verdict's kind, absorbing set and
transient set by complex name.  Neither the truncated flag nor any
certificate is recorded.  Only regenerate when a verdict change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from crnextinct import engine, model, parser  # noqa: E402


def verdicts(workload: str) -> dict:
    cfg = workloads.search_config(engine, workload)
    texts = [
        (key, workloads.network_text(reactions, [f"X{i + 1}" for i in range(m)]))
        for key, m, reactions in workloads.family(workload)
    ]
    if workload == "search":
        fixture_dir = BENCH_DIR.parent / "fixtures"
        texts = [(n, workloads.fixture_text(fixture_dir, n)) for n in workloads.FIXTURES] + texts
    out = {}
    for key, text in texts:
        net = parser.parse_crn(text).network
        summary = workloads.verdict_summary(net, engine.analyze(net, cfg), model)
        summary.pop("stats", None)
        out[key] = summary
    return out


def main() -> None:
    reference = {
        "certify": verdicts("certify"),
        "search": verdicts("search"),
        "oracle": {"envz": True, "example100": True, "example101": True},
    }
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
