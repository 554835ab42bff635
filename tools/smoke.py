"""A smoke run of the package that needs only the standard library.

For an interpreter without pytest:

    python tools/smoke.py

Every fixture goes through analyze, emit_report, json.loads and
verify_report, and each guaranteed-extinction report must verify.  Then the
oracle sweeps intro's transient complexes, which must go extinct from every
root up to a small budget, and makes the benchmark's two extinction sweeps:
EnvZ's complexes but X4 up to total 3, and example100's X3 + X4 and X1 + X4
up to total 10.  Prints one line per fixture; exits 1 and names
the first failure, 0 when all pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crnextinct import GuaranteedExtinction, SearchConfig, analyze, guaranteed_extinction_on  # noqa: E402
from crnextinct.parser import parse_crn  # noqa: E402
from crnextinct.report import emit_report, verify_report  # noqa: E402


def main() -> int:
    cfg = SearchConfig()
    runs = {}
    for path in sorted((ROOT / "fixtures").glob("*.crn")):
        net = parse_crn(path.read_text(encoding="utf-8")).network
        verdict = analyze(net, cfg)
        runs[path.stem] = net, verdict
        verified = verify_report(net, json.loads(emit_report(net, verdict, cfg)))
        print(f"{path.stem}: {type(verdict).__name__}" + (", report verifies" if verified else ""))
        if isinstance(verdict, GuaranteedExtinction) and not verified:
            print(f"FAIL: the report of {path.stem} does not verify")
            return 1
    net, verdict = runs["intro"]
    extinct = isinstance(verdict, GuaranteedExtinction)
    if not extinct or not guaranteed_extinction_on(net, verdict.transient, budget=5):
        print("FAIL: intro has no extinction event that the oracle confirms up to total 5")
        return 1
    sweeps = (  # the bench's two extinction sweeps: network, listed complexes, budget
        ("envz", [name for name in runs["envz"][0].complex_names if name != "X4"], 3),
        ("example100", ["X3 + X4", "X1 + X4"], 10),
    )
    for stem, names, budget in sweeps:
        net = runs[stem][0]
        listed = list(map(net.complex_names.index, names))
        if not guaranteed_extinction_on(net, listed, budget=budget):
            print(f"FAIL: the oracle finds {stem}'s {', '.join(names)} recurrent up to total {budget}")
            return 1
    print(
        "oracle: intro's transient complexes go extinct from every root up to total 5, "
        "envz's (all but X4) up to total 3, and example100's X3 + X4, X1 + X4 up to total 10"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
