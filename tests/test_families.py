"""The bench's certify and search families as tier-1 checks, loaded read-only.

Every verdict must match `bench/reference.json`, and the one-LP-per-forest
balance decision must agree with the per-candidate loop it replaced on the
forests of every fixture and family network.  A reused balancing vector must
balance the forest it decides, also in another candidate of the network,
and the search that reuses them must agree with one balance LP per forest
(`search_reference`) while solving fewer, over the candidates that the
reference enumeration gives.
"""

import json
from collections import Counter
from dataclasses import replace
from itertools import combinations, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    BENCH_DIR,
    FIXTURE_DIR,
    bench_module,
    check_network_refutations,
)
from crnextinct import engine, exactlp, forests, model
from crnextinct.domination import maximal_admissible
from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    lexmin,
    scale_to_integers,
    solve_feasibility,
)
from crnextinct.forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    BalanceStore,
    BalancingSystem,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    decide_forests,
    enumerate_forests,
    subconservation_slack,
)
from crnextinct.invariants import is_subconservative
from crnextinct.parser import parse_crn
from crnextinct.report import emit_report, render_text, support_refutation, verify_report
from forests_reference import recursive_forests, verify_balance_outcome
from search_reference import analyze_per_forest, candidate_pairs
from fraction_lp import dense_system

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
        alpha = [0] * system.n_edges
        for v, a in zip(system.support, scale_to_integers(best.witness)[0]):
            alpha[v] = a
        return Balanced(alpha=tuple(alpha))
    return Unbalanced(tuple(refutations))


def _check_against_reference(dcrn, forest, reading) -> type:
    """Assert that decide_balance agrees with the per-candidate loop; its kind."""
    system = build_balancing_system(dcrn, forest, reading)
    got, want = decide_balance(system), per_candidate_balance(system)
    assert type(got) is type(want)
    assert verify_balance_outcome(dcrn, forest, got, reading)
    assert verify_balance_outcome(dcrn, forest, want, reading)
    if isinstance(got, Unbalanced):
        assert [c for c, _ in want.witnesses] == [(c,) for c in system.candidates]
        # one refutation, covering every candidate (none for no candidates)
        covering = [system.candidates] if system.candidates else []
        assert [c for c, _ in got.witnesses] == covering
    return type(got)


def _family_forests(workloads):
    """(expansion, forest, reading) over the widened search of both families.

    More expansions, absorbing sets and forests than either bench workload
    decides, each under both nontriviality readings.
    """
    cfg = workloads.search_config(engine, "search")
    for workload in ("certify", "search"):
        for _, net in _networks(workloads, workload):
            for dcrn in candidate_pairs(net, cfg):
                for forest in islice(enumerate_forests(dcrn), FOREST_CAP):
                    for reading in (TRUE_REACTIONS, ANY_EDGE):
                        yield dcrn, forest, reading


def test_one_lp_per_forest_matches_per_candidate_loop(workloads):
    kinds = {_check_against_reference(*case) for case in _family_forests(workloads)}
    assert kinds == {Balanced, Unbalanced}


def edge_layout_system(dcrn, forest, candidates) -> LinearSystem:
    """The balance LP as report versions 1-6 built it, a variable per edge.

    (C1) is one row x_v = 0 per edge off the support, ascending, ahead of the
    kernel rows; the flow rows and the candidate row follow.
    """
    net, n = dcrn.net, dcrn.net.r + dcrn.d
    support = set(forest.support)
    eq = [(tuple(int(j == v) for j in range(n)), 0) for v in range(n) if v not in support]
    eq += [(row + (0,) * dcrn.d, 0) for row in net.stoich]
    ge = []
    for y, out in forest.choices:
        coeffs = [0] * n
        coeffs[out] += 1
        for v in support:
            if dcrn.graph.edges[v].dst == y:
                coeffs[v] -= 1
        ge.append((tuple(coeffs), 0))
    ge.append((tuple(int(v in candidates) for v in range(n)), 1))
    return dense_system(n, eq, ge)


def test_support_system_matches_edge_layout(workloads):
    # the same kind from both layouts; the edge layout's refutation, moved to
    # the support as an old report's is, and its point both pass the audit
    kinds = set()
    for dcrn, forest, reading in _family_forests(workloads):
        system = build_balancing_system(dcrn, forest, reading)
        got = decide_balance(system)
        kinds.add(type(got))
        if not system.candidates:
            assert got == Unbalanced(())
            continue
        old = solve_feasibility(edge_layout_system(dcrn, forest, system.candidates))
        assert isinstance(old, Farkas) == isinstance(got, Unbalanced)
        if isinstance(old, Farkas):
            moved = support_refutation(dcrn.net, dcrn.d, forest, old)
            outcome = Unbalanced(((system.candidates, moved),))
        else:
            outcome = Balanced(tuple(scale_to_integers(old.witness)[0]))
        assert verify_balance_outcome(dcrn, forest, outcome, reading)
    assert kinds == {Balanced, Unbalanced}


def test_caps_of_one_give_the_default_candidates(nets, workloads):
    # "maximal" is the first subset and "terminal" the first absorbing set
    ones = engine.SearchConfig(
        dom_strategy="all-subsets", dom_cap=1, absorbing_strategy="enumerate", absorbing_cap=1
    )
    family = [net for w in ("certify", "search") for _, net in _networks(workloads, w)]
    for net in list(nets.values()) + family:
        default = list(candidate_pairs(net, engine.SearchConfig()))
        assert default == list(candidate_pairs(net, ones))
        assert default == [maximal_admissible(net)]
        if _witness(net) is not None:  # the search's own, for a network it searches
            assert _analyzed_pairs(net, engine.SearchConfig()) == _analyzed_pairs(net, ones) == default


def _fixtures_and_families(workloads):
    """The certify family, then the fixtures and the search family."""
    return _networks(workloads, "certify") + _networks(workloads, "search")


def _witness(net):
    sub = is_subconservative(net.stoich)
    return sub.witness if isinstance(sub, Feasible) else None


def test_reused_balancing_vectors_balance_their_forests(workloads, monkeypatch):
    # the widened search with more forests per candidate, so that more are
    # reused; one store serves every candidate of a network, as in analyze
    cfg = replace(workloads.search_config(engine, "search"), forest_cap=8)
    lp_decided = []

    def counted(system):
        lp_decided.append(system)
        return decide_balance(system)

    monkeypatch.setattr(forests, "decide_balance", counted)

    def reuses(decided):
        """The forests decided Balanced with no LP, with their outcomes."""
        for forest, outcome in decided:
            if not lp_decided and isinstance(outcome, Balanced):
                yield forest, outcome
            lp_decided.clear()

    reused = within = 0
    for _, net in _fixtures_and_families(workloads):
        witness = _witness(net)
        for reading in (TRUE_REACTIONS, ANY_EDGE):
            store = BalanceStore(net, witness)
            for dcrn in candidate_pairs(net, cfg):
                forests_of = list(islice(enumerate_forests(dcrn), cfg.forest_cap))
                # a store of this candidate's vectors alone reuses fewer
                own = decide_forests(dcrn, forests_of, reading, BalanceStore(net, witness))
                within += sum(1 for _ in reuses(own))
                for forest, outcome in reuses(decide_forests(dcrn, forests_of, reading, store)):
                    reused += 1
                    assert verify_balance_outcome(dcrn, forest, outcome, reading)
                    fresh = decide_balance(build_balancing_system(dcrn, forest, reading))
                    assert isinstance(fresh, Balanced)
    assert within >= 50 and reused > within


def _moved(old, alpha, new):
    """alpha over old's edges, moved to new's by edge identity; None when an edge it weighs is not in new."""
    r = new.net.r
    index = {e: r + j for j, e in enumerate(new.graph.edges[r:])}
    moved = [0] * (r + new.d)
    for v, a in enumerate(alpha):
        if a:
            w = v if v < r else index.get(old.graph.edges[v])
            if w is None:
                return None
            moved[w] = a
    return tuple(moved)


def test_the_store_answers_exactly_as_the_audit(workloads, monkeypatch):
    # the store's rules (i)-(iii) are the audit's: every answer it gives
    # passes the forest's audit, and whenever the balance LP runs, no vector
    # it keeps, moved to the forest by edge identity, passes that audit
    cfg = replace(workloads.search_config(engine, "search"), forest_cap=8)
    kept, checked, ran = [], [], []

    def audited(system):  # dcrn is the candidate being decided
        ran.append(system)
        for old, alpha in kept:
            moved = _moved(old, alpha, dcrn)
            if moved is not None:
                checked.append(moved)
                assert not system.audit(Balanced(moved))
        outcome = decide_balance(system)
        if isinstance(outcome, Balanced):
            kept.append((dcrn, outcome.alpha))
        return outcome

    monkeypatch.setattr(forests, "decide_balance", audited)
    hits = 0
    for _, net in _fixtures_and_families(workloads):
        witness = _witness(net)
        for reading in (TRUE_REACTIONS, ANY_EDGE):
            store = BalanceStore(net, witness)
            kept.clear()
            for dcrn in candidate_pairs(net, cfg):
                forests_of = islice(enumerate_forests(dcrn), cfg.forest_cap)
                for forest, outcome in decide_forests(dcrn, forests_of, reading, store):
                    if not ran and isinstance(outcome, Balanced):
                        hits += 1
                        assert build_balancing_system(dcrn, forest, reading).audit(outcome)
                    ran.clear()
    assert hits >= 100 and len(checked) >= 70


def test_a_search_pass_runs_at_most_31_balance_lps(workloads, monkeypatch):
    # the bench's search inputs under its widened search: a store shared by
    # every candidate of a network, and one absorbing-set enumeration per
    # distinct fixpoint; the per-candidate stores ran 44 balance LPs and
    # enumerated absorbing sets 56 times
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(forests, "decide_balance", counted("lp", decide_balance))
    enumerate_sets = engine.enumerate_absorbing_sets
    monkeypatch.setattr(engine, "enumerate_absorbing_sets", counted("absorbing", enumerate_sets))
    cfg = workloads.search_config(engine, "search")
    for key, net in _networks(workloads, "search"):
        before = calls["lp"]
        stats = getattr(engine.analyze(net, cfg), "stats", None)
        assert calls["lp"] - before <= (stats.forests if stats else 0), key
    assert calls["lp"] <= 31
    assert calls["absorbing"] <= 31


def test_a_search_pass_builds_no_candidate_through_build_dom_crn(workloads, monkeypatch):
    # seed 1's search inputs: the search tests each pair's absorbing set
    # directly, and build_dom_crn checks only certificates from outside (it
    # was called 13 times in this pass when the search ran its pairs through
    # it, 12 of them raising AdmissibilityError)
    calls = []
    build = engine.build_dom_crn

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(engine, "build_dom_crn", counted)
    cfg = workloads.search_config(engine, "search")
    for _, text, _ in workloads.network_texts("search", 1, FIXTURE_DIR):
        engine.analyze(parse_crn(text).network, cfg)
    assert calls == []


@pytest.mark.parametrize("workload, most", [("certify", 19), ("search", 21)])
def test_a_first_pass_condenses_each_network_graph_once(workloads, condense_calls, workload, most):
    # seed 1's inputs, parsed afresh so that no network graph is condensed
    # yet.  Every expansion shares its network graph's blocks and no
    # candidate is rechecked, so a pass condenses each searched network's
    # graph once (19 on certify, 21 on search) and nothing else
    cfg = workloads.search_config(engine, workload)
    for _, text, _ in workloads.network_texts(workload, 1, FIXTURE_DIR):
        engine.analyze(parse_crn(text).network, cfg)
    assert len(condense_calls) <= most


def _analyzed_pairs(net, cfg):
    """engine._candidate_pairs as analyze calls it, on a subconservative network.

    With the scaled witness, every seed shrinks on the network graph's
    blocks, and the reference condenses every graph afresh.
    """
    return list(engine._candidate_pairs(net, cfg, BalanceStore(net, _witness(net)).slack[0]))


@pytest.fixture(scope="module")
def family_networks(workloads):
    """The fixtures and family networks that analyze searches: all but example22."""
    return [net for _, net in _fixtures_and_families(workloads) if _witness(net) is not None]


def _explicit_configs(net):
    """A search given each set of one or two complexes, under domination caps 1 and 8."""
    return [
        engine.SearchConfig(
            dom_strategy="all-subsets",
            dom_cap=cap,
            absorbing_strategy="explicit",
            explicit_absorbing=frozenset(aset),
        )
        for size in (1, 2)
        for aset in combinations(range(net.n), size)
        for cap in (1, 8)
    ]


def test_candidate_pairs_match_reference(workloads, family_networks):
    # the default search, the bench's widened one, a wider one, and every
    # explicit set of one or two complexes; the reference sends each pair
    # that enumeration did not make absorbing through build_dom_crn
    configs = [workloads.search_config(engine, w) for w in ("certify", "search")]
    configs.append(
        engine.SearchConfig(
            dom_strategy="all-subsets", dom_cap=16, absorbing_strategy="enumerate", absorbing_cap=16
        )
    )
    explicit_pairs = 0
    for net in family_networks:
        for cfg in configs + _explicit_configs(net):
            want = list(candidate_pairs(net, cfg))
            got = _analyzed_pairs(net, cfg)
            assert got == want
            for dcrn, fresh in zip(got, want):
                assert dcrn.graph.condensation == fresh.graph.condensation
            explicit_pairs += len(got) if cfg.explicit_absorbing else 0
    assert explicit_pairs > 0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_candidate_pairs_match_reference_under_any_caps(family_networks, dom_cap, absorbing_cap, data):
    net = data.draw(st.sampled_from(family_networks))
    cfg = engine.SearchConfig(
        dom_strategy="all-subsets",
        dom_cap=dom_cap,
        absorbing_strategy="enumerate",
        absorbing_cap=absorbing_cap,
    )
    want = list(candidate_pairs(net, cfg))
    got = _analyzed_pairs(net, cfg)
    assert got == want
    for dcrn, fresh in zip(got, want):
        assert dcrn.graph.condensation == fresh.graph.condensation


def _refuted_by_witness(net, verdict) -> bool:
    """Whether the witness lowers each candidate of the reported forest by >= 1."""
    _, slack = subconservation_slack(net, verdict.certificate.subconservation)
    candidates = [v for cands, _ in verdict.certificate.outcome.witnesses for v in cands]
    return all(v < net.r and slack[v] >= 1 for v in candidates)


@pytest.mark.parametrize("config", ["certify", "search"])  # the default and widened searches
def test_reuse_keeps_verdicts_counts_and_report_bytes(workloads, config):
    # the verdict, counts and reported forest are always the LP search's; a
    # forest whose candidates the witness lowers by at least 1 each is
    # refuted by the witness, not by an LP, so only its report's multipliers
    # may differ, and both reports verify; every other report's bytes are
    # the LP search's
    refuted = {}
    for reading in (TRUE_REACTIONS, ANY_EDGE):
        cfg = replace(workloads.search_config(engine, config), nontriviality=reading)
        for key, net in _fixtures_and_families(workloads):
            got, want = engine.analyze(net, cfg), analyze_per_forest(net, cfg)
            assert type(got) is type(want), key
            assert getattr(got, "stats", None) == getattr(want, "stats", None), key
            if isinstance(got, engine.GuaranteedExtinction):
                assert got.certificate.forest == want.certificate.forest, key
                assert got.transient == want.transient, key
                if _refuted_by_witness(net, got):
                    refuted.setdefault(reading, []).append(key)
                    for verdict in (got, want):
                        assert verify_report(net, json.loads(emit_report(net, verdict, cfg))), key
                    continue
            assert emit_report(net, got, cfg) == emit_report(net, want, cfg), key
            assert render_text(net, got) == render_text(net, want), key
    # the certify family is strictly subconservative, and example23's
    # candidates are lowered too; under any-edge the reported forests of the
    # other certify networks have a domination candidate, and keep their LP
    certify = [key for key, _ in _networks(workloads, "certify")]
    assert refuted == {
        TRUE_REACTIONS: certify + ["example23"],
        ANY_EDGE: ["gen-4x8-4", "gen-6x12-0", "gen-8x16-0", "example23"],
    }


def test_reuse_solves_fewer_lps_and_no_balance_cost_stage(workloads, monkeypatch):
    net = dict(_networks(workloads, "search"))["gen-3x5-4"]
    phase1, solve = exactlp._phase1, exactlp._solve
    phase1_systems, staged_systems = [], []

    def counted_phase1(system):
        phase1_systems.append(system)
        return phase1(system)

    def recorded_solve(system, costs):
        costs = list(costs)
        if costs:
            staged_systems.append(system)
        return solve(system, costs)

    monkeypatch.setattr(exactlp, "_phase1", counted_phase1)
    monkeypatch.setattr(exactlp, "_solve", recorded_solve)
    stats = engine.analyze(net, workloads.search_config(engine, "search")).stats
    assert stats.balanced > 1
    # one phase 1 for subconservativity and one per forest an LP decided
    assert len(phase1_systems) < stats.forests
    # subconservativity is decided by phase 1 too, so no LP has a cost stage
    assert staged_systems == []


def test_forest_order_matches_recursive_reference(workloads):
    # the first forests of every default and widened candidate of both families
    configs = [workloads.search_config(engine, w) for w in ("certify", "search")]
    for workload in ("certify", "search"):
        for key, net in _networks(workloads, workload):
            for cfg in configs:
                for dcrn in candidate_pairs(net, cfg):
                    got = list(islice(enumerate_forests(dcrn), 200))
                    assert got == list(islice(recursive_forests(dcrn), 200)), key


def test_strict_vector_refutes_every_certify_forest(workloads):
    configs = [workloads.search_config(engine, w) for w in ("certify", "search")]
    nets = _networks(workloads, "certify")
    checked = [check_network_refutations(net, configs, FOREST_CAP) for _, net in nets]
    assert all(checked), checked  # every certify network is strictly subconservative
