import json
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crnextinct import engine, forests
from crnextinct.domination import build_dom_crn, maximal_admissible
from crnextinct.engine import (
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchConfig,
    analyze,
    audit_extinction,
    verify_verdict,
)
from crnextinct.exactlp import Farkas, check_farkas
from crnextinct.forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
)
from crnextinct.graphs import GraphEdge
from crnextinct.invariants import conservation_system, is_subconservative
from crnextinct.parser import parse_crn
from crnextinct.report import emit_report, report_certificate

from conftest import FIXTURE_DIR, chain_text, complex_names, name_to_index, strict_subconservation


def test_example21_extinction(nets):
    net = nets["example21"]
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction)
    assert complex_names(net, verdict.transient) == ["2 X2", "X1 + X2", "X2"]
    assert verify_verdict(net, verdict)
    assert isinstance(verdict.certificate.outcome, Unbalanced)


def test_intro_extinction(nets):
    net = nets["intro"]
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction)
    assert complex_names(net, verdict.transient) == ["2 X1", "X1 + X2"]
    assert verify_verdict(net, verdict)


def test_envz_extinction(nets):
    net = nets["envz"]
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction)
    names = name_to_index(net)
    assert verdict.transient == frozenset(range(net.n)) - {names["X4"]}
    assert verify_verdict(net, verdict)


def test_example999_extinction(nets):
    net = nets["example999"]
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction)
    assert complex_names(net, verdict.transient) == ["2 X1", "X1 + X2"]
    assert verify_verdict(net, verdict)


def test_example22_not_applicable(nets):
    net = nets["example22"]
    verdict = analyze(net)
    assert isinstance(verdict, NotApplicable)
    assert isinstance(verdict.refutation, Farkas)
    system = conservation_system(net.stoich, equality=False)
    assert check_farkas(system, verdict.refutation)


def test_example100_inconclusive(nets):
    verdict = analyze(nets["example100"])
    assert isinstance(verdict, Inconclusive)
    assert verdict.stats.forests == verdict.stats.balanced
    wide = analyze(
        nets["example100"],
        SearchConfig(
            dom_strategy="all-subsets",
            dom_cap=64,
            absorbing_strategy="enumerate",
            absorbing_cap=64,
        ),
    )
    assert isinstance(wide, Inconclusive)


def test_example101_inconclusive(nets):
    assert isinstance(analyze(nets["example101"]), Inconclusive)


def test_example001_inconclusive(nets):
    verdict = analyze(nets["example001"])
    assert isinstance(verdict, Inconclusive)
    # the only candidate is the trivial expansion whose absorbing set is
    # everything, which carries no extinction content
    assert verdict.stats.vacuous_skipped >= 1


def test_example000_needs_bigger_absorbing_set(nets):
    net = nets["example000"]
    assert isinstance(analyze(net), Inconclusive)
    names = name_to_index(net)
    explicit = frozenset(
        {names["X2 + X3"], names["2 X3"], names["2 X2"]}
    )
    verdict = analyze(
        net,
        SearchConfig(absorbing_strategy="explicit", explicit_absorbing=explicit),
    )
    assert isinstance(verdict, GuaranteedExtinction)
    assert complex_names(net, verdict.transient) == ["2 X1"]
    assert verify_verdict(net, verdict)
    enumerated = analyze(net, SearchConfig(absorbing_strategy="enumerate"))
    assert isinstance(enumerated, GuaranteedExtinction)


def test_determinism(nets):
    for name in ("example21", "envz", "example100"):
        net = nets[name]
        assert analyze(net) == analyze(net)


def test_stats_shape(nets):
    verdict = analyze(nets["example21"])
    stats = verdict.stats
    assert stats.candidates == 1
    assert stats.forests == 2  # first forest balanced, second unbalanced
    assert stats.balanced == 1
    assert not stats.truncated


def test_forest_cap_marks_truncated(nets):
    verdict = analyze(nets["example21"], SearchConfig(forest_cap=1))
    # the single examined forest is balanced, so the search ends inconclusive
    # but flags that it did not see everything
    assert isinstance(verdict, Inconclusive)
    assert verdict.stats.truncated
    # a verdict reached within the cap skipped nothing
    for name, cap in (("example21", 2), ("envz", 1)):
        verdict = analyze(nets[name], SearchConfig(forest_cap=cap))
        assert isinstance(verdict, GuaranteedExtinction), name
        assert not verdict.stats.truncated, name
        assert verdict.stats.forests == cap, name


def test_audit_names_failing_link(nets):
    net = nets["example21"]
    verdict = analyze(net)
    checks = audit_extinction(net, verdict)
    assert all(ok for _, ok in checks)
    names = [name for name, _ in checks]
    assert names == [
        "subconservativity-witness",
        "domination-edges",
        "absorbing-set",
        "transient-set",
        "forest",
        "unbalanced-certificates",
    ]


def test_audit_reads_a_link_it_could_not_check_as_false(nets):
    # without its first choice the forest is invalid, so its balance
    # certificates are never evaluated and must not read True
    net = nets["example21"]
    verdict = analyze(net)
    cert = verdict.certificate
    forest = cert.forest._replace(choices=cert.forest.choices[1:])
    checks = audit_extinction(net, verdict._replace(certificate=cert._replace(forest=forest)))
    assert checks[-2:] == [("forest", False), ("unbalanced-certificates", False)]


def test_audit_reads_an_out_of_range_edge_as_false(nets):
    # index -4 would alias complex 0 (X1 + X2), which does dominate X2
    net = nets["example21"]
    verdict = analyze(net)
    cert = verdict.certificate
    edges = (GraphEdge(-4, 2),) + cert.dom_edges[1:]
    checks = audit_extinction(net, verdict._replace(certificate=cert._replace(dom_edges=edges)))
    assert checks == [
        ("subconservativity-witness", True),
        ("domination-edges", False),
        ("absorbing-set", False),
        ("transient-set", True),
        ("forest", False),
        ("unbalanced-certificates", False),
    ]


def test_audit_reads_an_absorbing_index_past_the_complexes_as_false(nets):
    # build_dom_crn rejects the set; the audit reports it and raises nothing
    net = nets["envz"]
    verdict = analyze(net)
    cert = verdict.certificate
    absorbing = cert.absorbing | {net.n}
    checks = audit_extinction(net, verdict._replace(certificate=cert._replace(absorbing=absorbing)))
    assert checks == [
        ("subconservativity-witness", True),
        ("domination-edges", True),
        ("absorbing-set", False),
        ("transient-set", True),
        ("forest", False),
        ("unbalanced-certificates", False),
    ]


MALFORMED_OUTCOMES = {
    "alpha-none": lambda cands: Balanced(None),
    "alpha-int": lambda cands: Balanced(5),
    "witnesses-none": lambda cands: Unbalanced(None),
    "witness-of-nones": lambda cands: Unbalanced(((None, None),)),
    "farkas-none": lambda cands: Unbalanced(((cands, None),)),
}


@pytest.mark.parametrize("case", [*MALFORMED_OUTCOMES, "forest-none"])
def test_a_malformed_outcome_or_certificate_reads_false(nets, case):
    # fields that are not the documented shapes read False: the audit and
    # verify_verdict raise nothing (example21's candidates are (1, 2))
    net = nets["example21"]
    verdict = analyze(net)
    cert = verdict.certificate
    if case == "forest-none":
        assert verify_verdict(net, verdict._replace(certificate=cert._replace(forest=None))) is False
        return
    (cands, _), = cert.outcome.witnesses
    outcome = MALFORMED_OUTCOMES[case](cands)
    dcrn = build_dom_crn(net, cert.dom_edges, cert.absorbing)
    assert build_balancing_system(dcrn, cert.forest).audit(outcome) is False
    assert verify_verdict(net, verdict._replace(certificate=cert._replace(outcome=outcome))) is False


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_audit_validates_the_forest_once(nets, monkeypatch, name):
    # the forest link validates the forest; the certificate link audits the
    # outcome on the forest's balancing system without validating it again
    calls = []
    valid = forests.forest_is_valid

    def counted(dcrn, forest):
        calls.append(forest)
        return valid(dcrn, forest)

    monkeypatch.setattr(engine, "forest_is_valid", counted)
    monkeypatch.setattr(forests, "forest_is_valid", counted)
    net = nets[name]
    verdict = analyze(net)
    checks = audit_extinction(net, verdict)
    assert all(ok for _, ok in checks)
    assert calls == [verdict.certificate.forest]


def test_a_witness_that_does_not_order_the_expansion_raises(nets, monkeypatch):
    # every expansion shares the network graph's blocks only because the
    # witness lowers c.y along each domination edge; a forged one is caught
    net = nets["example21"]
    c, _ = forests.BalanceStore(net, analyze(net).certificate.subconservation).slack
    assert list(engine._candidate_pairs(net, SearchConfig(), c))
    for forged in ([0] * net.m, [-v for v in c]):
        with pytest.raises(AssertionError, match="internal error: the witness"):
            list(engine._candidate_pairs(net, SearchConfig(), forged))
    forged_slack = property(lambda store: ([0] * net.m, [0] * net.r))
    monkeypatch.setattr(forests.BalanceStore, "slack", forged_slack)
    with pytest.raises(AssertionError, match="internal error: the witness"):
        analyze(net)


def test_verify_verdict_rejects_wrong_kind(nets):
    with pytest.raises(ValueError):
        verify_verdict(nets["example100"], analyze(nets["example100"]))


def test_invalid_config():
    with pytest.raises(ValueError):
        SearchConfig(dom_strategy="bogus")
    with pytest.raises(ValueError):
        SearchConfig(absorbing_strategy="explicit")
    with pytest.raises(ValueError):
        SearchConfig(forest_cap=0)
    for cap in ("dom_cap", "absorbing_cap", "forest_cap"):
        with pytest.raises(ValueError):
            SearchConfig(**{cap: sys.maxsize + 1})
        SearchConfig(**{cap: sys.maxsize})


def test_config_rejects_unknown_nontriviality():
    # otherwise it fails deep in build_balancing_system, or enters the report
    with pytest.raises(ValueError, match="nontriviality"):
        SearchConfig(nontriviality="bogus")


def test_config_rejects_explicit_absorbing_without_its_strategy(nets):
    # otherwise the set is ignored, and example000 stays Inconclusive
    names = name_to_index(nets["example000"])
    explicit = frozenset({names["X2 + X3"], names["2 X3"], names["2 X2"]})
    for strategy in ("terminal", "enumerate"):
        with pytest.raises(ValueError, match="explicit_absorbing"):
            SearchConfig(absorbing_strategy=strategy, explicit_absorbing=explicit)


@pytest.mark.parametrize("name", ["example22", "intro"])
def test_analyze_refuses_an_absorbing_index_out_of_range(nets, name):
    # refused before the subconservativity LP, so also on example22, which
    # is not subconservative: its report cannot name an index out of range
    net = nets[name]
    for index in (net.n + 5, -1):
        cfg = SearchConfig(absorbing_strategy="explicit", explicit_absorbing=[index])
        with pytest.raises(ValueError, match="invalid complex index"):
            analyze(net, cfg)


@pytest.mark.parametrize(
    "fields",
    [
        {"forest_cap": True},
        {"forest_cap": 3.0},
        {"absorbing_strategy": "enumerate", "absorbing_cap": 2.0},
        {"dom_strategy": "all-subsets", "dom_cap": 1.5},
        {"absorbing_strategy": "explicit", "explicit_absorbing": frozenset({2.0})},
        {"absorbing_strategy": "explicit", "explicit_absorbing": frozenset({True})},
        {"absorbing_strategy": "explicit", "explicit_absorbing": frozenset({0, Fraction(2)})},
    ],
)
def test_config_rejects_caps_and_absorbing_members_that_are_not_ints(fields):
    # each passes the range checks, so it would surface later: in the report's
    # search block, in islice, or as a float index in emit_report
    with pytest.raises(ValueError, match="ints"):
        SearchConfig(**fields)


_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.floats(allow_nan=False), st.text(max_size=2)
)
_MEMBERS = st.one_of(st.integers(0, 2), _ANY)  # intro has complexes 0..2
_CONFIG_FIELDS = st.fixed_dictionaries(
    {},
    optional={
        "dom_strategy": st.one_of(st.sampled_from(["maximal", "all-subsets"]), _ANY),
        "dom_cap": st.one_of(st.integers(1, 4), _ANY),
        "absorbing_strategy": st.one_of(st.sampled_from(["terminal", "enumerate", "explicit"]), _ANY),
        "absorbing_cap": st.one_of(st.integers(1, 4), _ANY),
        "explicit_absorbing": st.one_of(
            st.lists(_MEMBERS, max_size=3),
            st.sets(_MEMBERS, max_size=3),
            st.lists(_MEMBERS, max_size=3).map(tuple),
            st.frozensets(_MEMBERS, max_size=3),
            st.lists(st.lists(st.integers(0, 2), max_size=2), min_size=1, max_size=2),
            _ANY,
        ),
        "forest_cap": st.one_of(st.integers(1, 4), _ANY),
        "nontriviality": st.one_of(st.sampled_from([TRUE_REACTIONS, ANY_EDGE]), _ANY),
    },
)


@given(_CONFIG_FIELDS)
@example({"absorbing_strategy": "explicit", "explicit_absorbing": [2]})
@example({"absorbing_strategy": "explicit", "explicit_absorbing": {2}})
@example({"absorbing_strategy": "explicit", "explicit_absorbing": [3]})
@example({"absorbing_strategy": "explicit", "explicit_absorbing": [-1]})
def test_every_config_is_refused_or_hashable_and_searchable(nets, fields):
    # a list or a set of members used to construct, and then analyze raised
    # TypeError (a set also made the frozen config unhashable); analyze
    # refuses exactly the sets with a member outside intro's complexes 0..2
    try:
        cfg = SearchConfig(**fields)
    except ValueError:
        return
    assert hash(cfg) == hash(replace(cfg))
    if cfg.explicit_absorbing is not None:
        assert cfg.explicit_absorbing == frozenset(fields["explicit_absorbing"])
    if any(v not in range(3) for v in cfg.explicit_absorbing or ()):
        with pytest.raises(ValueError, match="invalid complex index"):
            analyze(nets["intro"], cfg)
    else:
        assert isinstance(analyze(nets["intro"], cfg), (GuaranteedExtinction, Inconclusive))


def test_widened_search_claims_survive_oracle():
    from crnextinct.oracle import explore, recurrent_complexes, states_with_total

    from conftest import random_subconservative

    config = SearchConfig(
        dom_strategy="all-subsets",
        dom_cap=16,
        absorbing_strategy="enumerate",
        absorbing_cap=16,
    )
    for net in random_subconservative(424242, 40):
        verdict = analyze(net, config)
        if not isinstance(verdict, GuaranteedExtinction):
            continue
        assert verify_verdict(net, verdict)
        for total in range(5):
            for root in states_with_total(net.m, total):
                alive = recurrent_complexes(net, explore(net, root))
                assert not (alive & verdict.transient), (root, alive)


@pytest.mark.parametrize(
    "text, reading, lps",
    [
        (chain_text(6), "true-reactions", 0),
        # strict, but under any-edge its forest has a domination candidate,
        # whose x_v >= 0 multiplier the strict vector would make -1
        ("X1 -> 2 X2\nX2 -> 0\n2 X1 -> 2 X2\n", "true-reactions", 0),
        ("X1 -> 2 X2\nX2 -> 0\n2 X1 -> 2 X2\n", ANY_EDGE, 1),
    ],
)
def test_strict_networks_run_a_balance_lp_only_under_any_edge(text, reading, lps, monkeypatch):
    net = parse_crn(text).network
    assert strict_subconservation(net) is not None
    solved = []

    def counted(system):
        solved.append(system)
        return decide_balance(system)

    decide_balance = forests.decide_balance
    monkeypatch.setattr(forests, "decide_balance", counted)
    verdict = analyze(net, SearchConfig(nontriviality=reading))
    assert isinstance(verdict, GuaranteedExtinction)
    assert len(solved) == lps
    assert verify_verdict(net, verdict)
    candidates = verdict.certificate.outcome.witnesses[0][0]
    assert any(v >= net.r for v in candidates) == (reading == ANY_EDGE)


@pytest.mark.parametrize("reading", ["true-reactions", ANY_EDGE])
def test_a_forest_whose_candidates_the_witness_lowers_runs_no_balance_lp(reading, monkeypatch):
    # X2 <-> X3 is a T-invariant cycle, so no witness is strict, but the
    # witness lowers both reactions of X1, the forest's candidates, by at
    # least 1 each: it refutes the forest under either reading, with no LP
    net = parse_crn("2 X1 -> X1\nX1 -> 0\nX2 -> X3\nX3 -> X2\n").network
    assert strict_subconservation(net) is None
    solved = []

    def counted(system):
        solved.append(system)
        return decide_balance(system)

    decide_balance = forests.decide_balance
    monkeypatch.setattr(forests, "decide_balance", counted)
    verdict = analyze(net, SearchConfig(nontriviality=reading))
    assert isinstance(verdict, GuaranteedExtinction)
    assert solved == []
    assert verify_verdict(net, verdict)
    assert complex_names(net, verdict.transient) == ["2 X1", "X1"]


RECORD_TYPES = [
    "Feasible", "Farkas", "ExteriorForest", "Balanced", "Unbalanced", "BalancingSystem",
    "SearchStats", "ExtinctionCertificate", "GuaranteedExtinction", "Inconclusive",
    "NotApplicable", "DomCRN", "Reaction", "CrnDocument",
]


@pytest.fixture(scope="module")
def records(nets):
    """One instance of each plain record type, by type name, as the package hands them out."""
    doc = parse_crn((FIXTURE_DIR / "example21.crn").read_text(encoding="utf-8"))
    net = doc.network
    verdict = analyze(net)
    report = json.loads(emit_report(net, verdict, SearchConfig()))
    cert = report_certificate(net, report).certificate
    dcrn = build_dom_crn(net, cert.dom_edges, cert.absorbing)
    d000 = maximal_admissible(nets["example000"])
    found = [
        doc, net.reactions[0], verdict, verdict.stats, cert, cert.forest, cert.outcome,
        cert.outcome.witnesses[0][1], dcrn, build_balancing_system(dcrn, cert.forest),
        decide_balance(build_balancing_system(d000, next(enumerate_forests(d000)))),
        is_subconservative(net.stoich), analyze(nets["example000"]), analyze(nets["example22"]),
    ]
    return {type(x).__name__: x for x in found}


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_refuse_attribute_assignment(records, name):
    # a NamedTuple is immutable as the frozen dataclass it replaced was
    # (FrozenInstanceError is an AttributeError), and so is safe to share
    record = records[name]
    field = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
