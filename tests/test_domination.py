import json
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crnextinct import engine
from crnextinct.domination import (
    AdmissibilityError,
    build_dom_crn,
    check_slc_coincidence,
    dom_graph,
    domination_set,
    expansion_edges,
    maximal_admissible,
    shrink_to_terminal,
)
from crnextinct.exactlp import Farkas, Feasible
from crnextinct.graphs import (
    GraphEdge,
    strong_linkage_classes,
    terminal_complexes,
)
from crnextinct.invariants import is_subconservative
from crnextinct.model import ReactionNetwork, build_network
from crnextinct.parser import parse_crn
from crnextinct.report import emit_report, verify_report

from conftest import FIXTURE_DIR, FIXTURE_NAMES, bench_module, chain_text, complex_names, load_fixture
from domination_reference import all_pairs_domination_set, shrink_rounds


def test_domination_set_example21(nets):
    edges = domination_set(nets["example21"])
    assert [(e.src, e.dst) for e in edges] == [(0, 2), (0, 3), (1, 2)]


def test_domination_set_example22(nets):
    edges = domination_set(nets["example22"])
    # X1 <= 2X1 and X2 <= 2X2
    assert [(e.src, e.dst) for e in edges] == [(1, 2), (3, 0)]


def test_domination_set_example23(nets):
    edges = domination_set(nets["example23"])
    assert [(e.src, e.dst) for e in edges] == [(0, 1), (0, 2)]


def test_domination_set_incomparable():
    net = build_network(["A", "B"], [((1, 0), (0, 1))])
    assert domination_set(net) == []


def test_domination_edges_strict(nets):
    for net in nets.values():
        for e in domination_set(net):
            big = net.complexes[e.src].coeffs
            small = net.complexes[e.dst].coeffs
            assert all(s <= b for s, b in zip(small, big)) and small != big


def test_full_set_rejected_example33(nets):
    net = nets["example21"]
    with pytest.raises(AdmissibilityError) as err:
        build_dom_crn(net, domination_set(net), {3})
    assert err.value.condition == "targets-absorbing"
    assert (err.value.edge.src, err.value.edge.dst) == (0, 3)


def test_two_edge_expansion_accepted(nets):
    net = nets["example21"]
    dcrn = build_dom_crn(net, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})
    assert dcrn.absorbing == frozenset({3})
    assert dcrn.exterior_complexes() == [0, 1, 2]


def test_empty_expansion_always_valid(nets):
    for net in nets.values():
        terminals = terminal_complexes(net.graph)
        dcrn = build_dom_crn(net, [], terminals)
        assert dcrn.dom_edges == ()


def test_reaction_duplicate_rejected():
    # the single reaction X1+X2 -> X2 coincides with a domination relation
    net = build_network(["X1", "X2"], [((1, 1), (0, 1))])
    edges = domination_set(net)
    assert (0, 1) in [(e.src, e.dst) for e in edges]
    with pytest.raises(AdmissibilityError, match="duplicates a true reaction") as err:
        build_dom_crn(net, edges, {1})
    assert err.value.condition == "domination"
    assert (err.value.edge.src, err.value.edge.dst) == (0, 1)


def test_repeated_edge_rejected(nets):
    net = nets["example21"]
    edges = [GraphEdge(0, 2), GraphEdge(1, 2), GraphEdge(0, 2)]
    with pytest.raises(AdmissibilityError, match="an earlier edge") as err:
        build_dom_crn(net, edges, {3})
    assert err.value.condition == "domination"
    assert err.value.edge == GraphEdge(0, 2)


def test_non_domination_edge_rejected(nets):
    net = nets["example21"]
    with pytest.raises(AdmissibilityError, match="not a domination relation"):
        build_dom_crn(net, [GraphEdge(2, 0)], {3})
    # index -4 would alias complex 0 (X1 + X2), which does dominate X2
    with pytest.raises(AdmissibilityError, match="not a domination relation"):
        build_dom_crn(net, [GraphEdge(-4, 2)], {3})


def test_non_absorbing_set_rejected(nets):
    net = nets["example21"]
    with pytest.raises(AdmissibilityError, match="absorbing"):
        build_dom_crn(net, [], {2})


def test_maximal_admissible_example21(nets):
    dcrn = maximal_admissible(nets["example21"])
    assert [(e.src, e.dst) for e in dcrn.dom_edges] == [(0, 2), (1, 2)]
    assert dcrn.absorbing == frozenset({3})


def test_maximal_admissible_envz(nets):
    net = nets["envz"]
    dcrn = maximal_admissible(net)
    assert complex_names(net, dcrn.absorbing) == ["X4"]
    pairs = {
        (
            complex_names(net, {e.src})[0],
            complex_names(net, {e.dst})[0],
        )
        for e in dcrn.dom_edges
    }
    assert pairs == {
        ("X1 + X5", "X1"),
        ("X1 + X7", "X1"),
        ("X2 + X7", "X2"),
        ("X3 + X5", "X3"),
        ("X3 + X7", "X3"),
    }


def test_maximal_admissible_empty_domination(nets):
    net = nets["example999"]
    dcrn = maximal_admissible(net)
    assert dcrn.dom_edges == ()
    assert dcrn.absorbing == terminal_complexes(net.graph)


def test_maximal_admissible_revalidates(nets):
    for net in nets.values():
        dcrn = maximal_admissible(net)
        rebuilt = build_dom_crn(net, dcrn.dom_edges, dcrn.absorbing)
        assert rebuilt == dcrn


def test_slc_coincidence_example33(nets):
    net = nets["example21"]
    assert isinstance(is_subconservative(net.stoich), Feasible)
    expanded = dom_graph(net, (GraphEdge(0, 2), GraphEdge(1, 2)))
    assert check_slc_coincidence(net.graph, expanded) == ()


def test_slc_coincidence_needs_subconservativity_example22(nets):
    # example22 is not subconservative, and its full domination expansion
    # merges all four complexes into one strong linkage class
    net = nets["example22"]
    assert isinstance(is_subconservative(net.stoich), Farkas)
    expanded = dom_graph(net, domination_set(net))
    assert strong_linkage_classes(expanded) == [frozenset({0, 1, 2, 3})]
    assert check_slc_coincidence(net.graph, expanded) == (frozenset({0, 1, 2, 3}),)


def test_slc_coincidence_trivial_empty(nets):
    net = nets["example23"]
    assert isinstance(is_subconservative(net.stoich), Feasible)
    assert check_slc_coincidence(net.graph, dom_graph(net, ())) == ()


def test_slc_coincidence_all_subconservative_fixtures(nets):
    for name, net in nets.items():
        if isinstance(is_subconservative(net.stoich), Farkas):
            continue
        base = net.graph
        dcrn = maximal_admissible(net)
        assert check_slc_coincidence(base, dom_graph(net, dcrn.dom_edges)) == (), name
        # the full domination set also satisfies the coincidence property
        assert check_slc_coincidence(base, dom_graph(net, domination_set(net))) == (), name


@st.composite
def networks(draw, top=2):
    """Small networks with coefficients in 0..top; many are not subconservative."""
    m = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, top)] * m)
    reactions = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=5))
    return build_network([f"X{i + 1}" for i in range(m)], reactions)


@given(networks(), st.data())
@example(build_network(["X"], [((1,), (2,))]), None)  # X -> 2 X: X -> ... -> X closes a cycle
@example(build_network(["X", "Y"], [((1, 0), (0, 1)), ((0, 2), (1, 0))]), None)
def test_shrink_to_terminal_matches_the_round_by_round_loop(net, data):
    full = expansion_edges(net)
    seeds = [full]
    if data is not None:
        seeds.append(tuple(e for e in full if data.draw(st.booleans())))
    # condensed afresh, handed the expansion's own blocks, and, in a
    # subconservative network, handed the network graph's blocks
    shared = [net.graph.condensation] if isinstance(is_subconservative(net.stoich), Feasible) else []
    for seed in seeds:
        want = shrink_rounds(net, seed)
        for blocks in [None, dom_graph(net, seed).condensation] + shared:
            got = shrink_to_terminal(net, seed, blocks)
            assert got.graph.edges == want.graph.edges
            assert got.absorbing == want.absorbing
            got_c, want_c = got.graph.condensation, want.graph.condensation
            assert got_c.comp_of == want_c.comp_of
            assert got_c.sink == want_c.sink
            assert got_c.blocks == want_c.blocks
    assert maximal_admissible(net) == shrink_rounds(net, full)


def test_shrink_condenses_afresh_after_dropping_a_cycle_edge(condense_calls):
    # X -> 2 X is not subconservative: the domination edge 2 X -> X closes a
    # cycle, so the round that drops it cannot inherit the blocks
    net = build_network(["X"], [((1,), (2,))])
    dcrn = maximal_admissible(net)
    assert condense_calls == [[[1], [0]], [[1], []]]
    assert dcrn.dom_edges == ()
    assert dcrn.absorbing == frozenset({1})
    assert dcrn.graph.condensation.blocks == (frozenset({0}), frozenset({1}))


def _edge_cases():
    big = 1 << 20
    yield build_network(["A", "B"], [((big, 3), (big - 1, 3)), ((big, 2), (0, 0))])
    yield build_network(["A", "B"], [((big + 5, 0), (1, big + 5)), ((0, 0), (big + 5, big))])
    yield build_network(["A"], [((3,), (0,)), ((1,), (2,)), ((0,), (5,))])  # one species
    yield build_network(["A", "B", "C"], [((0, 0, 0), (1, 0, 2)), ((1, 1, 2), (0, 0, 0))])
    yield parse_crn(chain_text(60)).network  # no comparable pair


def test_domination_set_matches_all_pairs_on_edge_cases():
    for net in _edge_cases():
        assert domination_set(net) == all_pairs_domination_set(net), net
    assert domination_set(parse_crn(chain_text(60)).network) == []


@given(networks(top=(1 << 21) + 3))
def test_domination_set_matches_all_pairs_on_large_coefficients(net):
    assert domination_set(net) == all_pairs_domination_set(net)


@given(networks())
def test_domination_set_matches_all_pairs(net):
    got = domination_set(net)
    assert got == all_pairs_domination_set(net)
    assert got is not domination_set(net)  # a fresh list on every call


@given(networks(), st.data())
def test_admissibility_check_matches_the_all_pairs_reference(net, data):
    # the first offending edge decides the error; its message is pinned
    # word for word, since callers and reports show it to users
    ids = st.integers(-2, net.n + 1)
    relation, taken = set(all_pairs_domination_set(net)), set(net.graph.edges)
    edge = st.builds(GraphEdge, ids, ids)
    if relation:  # also relations, which may duplicate a reaction or each other
        edge |= st.sampled_from(sorted(relation))
    edges = data.draw(st.lists(edge, max_size=4))
    want = None
    for e in edges:
        if e not in relation:
            want = (f"edge {e.src}->{e.dst} is not a domination relation of the network", e)
        elif e in taken:
            want = (f"domination edge {e.src}->{e.dst} duplicates a true reaction or an earlier edge", e)
        if want:
            break
        taken.add(e)
    try:
        build_dom_crn(net, edges, terminal_complexes(net.graph))
    except AdmissibilityError as err:
        got = (str(err), err.edge) if err.condition == "domination" else None
    else:
        got = None
    assert got == want


def test_each_network_builds_its_domination_table_once(monkeypatch):
    builds = Counter()
    real = ReactionNetwork.domination.func

    def counted(net):
        builds[net] += 1
        return real(net)

    spy = cached_property(counted)
    spy.__set_name__(ReactionNetwork, "domination")
    monkeypatch.setattr(ReactionNetwork, "domination", spy)
    workloads = bench_module("workloads")
    nets = [load_fixture(name) for name in FIXTURE_NAMES]
    for workload in ("certify", "search"):
        nets += [parse_crn(text).network for _, text, _ in workloads.network_texts(workload, 1, FIXTURE_DIR)]
    for cfg in (engine.SearchConfig(), workloads.search_config(engine, "search")):
        for net in nets:
            verdict = engine.analyze(net, cfg)
            data = emit_report(net, verdict, cfg)
            if isinstance(verdict, engine.GuaranteedExtinction):
                assert verify_report(net, json.loads(data))
    for net in nets:
        got = domination_set(net)
        assert got == list(net.domination)
        assert got is not domination_set(net)  # a fresh list on every call
    assert builds == Counter(dict.fromkeys(nets, 1))
