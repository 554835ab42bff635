"""The bench's certify and search families as tier-1 checks, loaded read-only.

Every verdict must match `bench/reference.json`, and the one-LP-per-forest
balance decision must agree with the per-candidate loop it replaced on the
forests of every fixture and family network.
"""

import json
from itertools import islice

import pytest

from conftest import BENCH_DIR, FIXTURE_DIR, bench_module
from crnextinct import engine, model
from crnextinct.domination import maximal_admissible
from crnextinct.exactlp import Farkas, check_farkas, check_feasible, lexmin, scale_to_integers
from crnextinct.forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    BalancingSystem,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
)
from crnextinct.parser import parse_crn

FOREST_CAP = 3  # forests per (expansion, absorbing set) candidate


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


def _networks(workloads, workload: str):
    """(key, network) in their base labelling, as bench/make_reference.py builds them."""
    texts = [
        (key, workloads.network_text(reactions, [f"X{i + 1}" for i in range(m)]))
        for key, m, reactions in workloads.family(workload)
    ]
    if workload == "search":
        texts = [(n, workloads.fixture_text(FIXTURE_DIR, n)) for n in workloads.FIXTURES] + texts
    return [(key, parse_crn(text).network) for key, text in texts]


@pytest.mark.parametrize("workload", ["certify", "search"])
def test_verdicts_match_bench_reference(workloads, workload):
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    cfg = workloads.search_config(engine, workload)
    got = {}
    for key, net in _networks(workloads, workload):
        summary = workloads.verdict_summary(net, engine.analyze(net, cfg), model)
        summary.pop("stats", None)
        got[key] = summary
    assert got == reference[workload]


def per_candidate_balance(system: BalancingSystem):
    """The balance decision as one lexmin per candidate, in ascending order."""
    refutations = []
    for cand in system.candidates:
        best = lexmin(system.linear_system((cand,)))
        if isinstance(best, Farkas):
            refutations.append(((cand,), best))
            continue
        return Balanced(alpha=tuple(scale_to_integers(best.witness)[0]), positive_edge=cand)
    return Unbalanced(tuple(refutations))


def _check_against_reference(system: BalancingSystem) -> type:
    """Assert that decide_balance agrees with the per-candidate loop; its kind."""
    got, want = decide_balance(system), per_candidate_balance(system)
    assert type(got) is type(want)
    if isinstance(got, Unbalanced):
        assert [c for c, _ in want.witnesses] == [(c,) for c in system.candidates]
        # one refutation, covering every candidate (none for no candidates)
        covering = [system.candidates] if system.candidates else []
        assert [c for c, _ in got.witnesses] == covering
        for cands, cert in got.witnesses:
            assert check_farkas(system.linear_system(cands), cert), cands
    else:
        assert check_feasible(system.linear_system((got.positive_edge,)), got.alpha)
        assert got.positive_edge == min(k for k in system.candidates if got.alpha[k] > 0)
    return type(got)


def test_one_lp_per_forest_matches_per_candidate_loop(workloads):
    # the widened search on both families: more expansions, absorbing sets and
    # forests than either bench workload decides
    cfg = workloads.search_config(engine, "search")
    kinds = set()
    for workload in ("certify", "search"):
        for _, net in _networks(workloads, workload):
            for dcrn in engine._candidate_pairs(net, cfg):
                for forest in islice(enumerate_forests(dcrn), FOREST_CAP):
                    for reading in (TRUE_REACTIONS, ANY_EDGE):
                        system = build_balancing_system(dcrn, forest, reading)
                        kinds.add(_check_against_reference(system))
    assert kinds == {Balanced, Unbalanced}


def test_caps_of_one_give_the_default_candidates(nets, workloads):
    # "maximal" is the first subset and "terminal" the first absorbing set
    ones = engine.SearchConfig(
        dom_strategy="all-subsets", dom_cap=1, absorbing_strategy="enumerate", absorbing_cap=1
    )
    family = [net for w in ("certify", "search") for _, net in _networks(workloads, w)]
    for net in list(nets.values()) + family:
        default = list(engine._candidate_pairs(net, engine.SearchConfig()))
        assert default == list(engine._candidate_pairs(net, ones))
        assert default == [maximal_admissible(net)]
