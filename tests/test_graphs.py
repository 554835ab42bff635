import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crnextinct.domination import (
    build_dom_crn,
    check_slc_coincidence,
    dom_graph,
    domination_set,
    expansion_edges,
    maximal_admissible,
    shrink_to_terminal,
)
from crnextinct.engine import GuaranteedExtinction, SearchConfig, analyze
from crnextinct.forests import enumerate_forests
from crnextinct.graphs import (
    GraphEdge,
    ReactionGraph,
    StateCapExceeded,
    condense,
    enumerate_absorbing_sets,
    is_absorbing_set,
    linkage_classes,
    strong_linkage_classes,
    terminal_complexes,
    terminal_slcs,
)
from crnextinct.report import emit_report, verify_report

from conftest import complex_names, load_fixture
from graphs_reference import definition_is_absorbing_set, reach_set_sccs, reach_sets


def test_linkage_classes_example21(nets):
    g = nets["example21"].graph
    assert linkage_classes(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_linkage_classes_edgeless():
    g = ReactionGraph(4, ())
    assert linkage_classes(g) == [frozenset({i}) for i in range(4)]


def test_linkage_classes_example23(nets):
    g = nets["example23"].graph
    assert linkage_classes(g) == [frozenset({0, 1, 2})]


def test_slcs_example21(nets):
    g = nets["example21"].graph
    assert strong_linkage_classes(g) == [
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3}),
    ]


def test_slcs_example22(nets):
    g = nets["example22"].graph
    assert strong_linkage_classes(g) == [frozenset({i}) for i in range(4)]


def test_slcs_maximal_expansion_example22(nets):
    net = nets["example22"]
    g = dom_graph(net, domination_set(net))
    assert strong_linkage_classes(g) == [frozenset({0, 1, 2, 3})]


def test_terminal_slcs(nets):
    g21 = nets["example21"].graph
    assert terminal_slcs(g21) == [frozenset({0, 1}), frozenset({3})]
    g22 = nets["example22"].graph
    assert terminal_complexes(g22) == frozenset({1, 3})


def test_terminal_of_admissible_expansion(nets):
    net = nets["example21"]
    dcrn = build_dom_crn(net, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})
    assert terminal_slcs(dcrn.graph) == [frozenset({3})]


def test_is_absorbing_set(nets):
    g = nets["example22"].graph
    assert is_absorbing_set(g, {0, 1, 3})
    assert is_absorbing_set(g, {0, 1, 2, 3})
    assert not is_absorbing_set(g, {1})
    with pytest.raises(ValueError):
        is_absorbing_set(g, {9})


def test_an_edge_endpoint_outside_the_complexes_is_an_error():
    with pytest.raises(ValueError, match="outside 0..1"):
        ReactionGraph(2, (GraphEdge(0, 5),))


def test_enumerate_absorbing_sets_example22(nets):
    g = nets["example22"].graph
    sets = enumerate_absorbing_sets(g, 16)
    assert sets == [
        frozenset({1, 3}),
        frozenset({0, 1, 3}),
        frozenset({1, 2, 3}),
        frozenset({0, 1, 2, 3}),
    ]


def test_enumerate_absorbing_sets_all_terminal():
    # every complex terminal: the only absorbing set is everything
    g = ReactionGraph(3, (GraphEdge(0, 1), GraphEdge(1, 0)))
    assert enumerate_absorbing_sets(g, 8) == [frozenset({0, 1, 2})]


def test_enumerate_absorbing_sets_example000(nets):
    net = nets["example000"]
    g = net.graph
    sets = enumerate_absorbing_sets(g, 16)
    wanted = {complex_names(net, s) == ["2 X2", "2 X3", "X2 + X3"] for s in sets}
    assert True in wanted
    assert sets[0] == terminal_complexes(g)


def test_enumerate_cap_truncates(nets):
    g = nets["example22"].graph
    sets = enumerate_absorbing_sets(g, 2)
    assert len(sets) == 2
    assert sets[0] == frozenset({1, 3})
    with pytest.raises(ValueError):
        enumerate_absorbing_sets(g, 0)


def test_every_slc_inside_one_linkage_class(nets):
    for net in nets.values():
        g = net.graph
        lcs = linkage_classes(g)
        for slc in strong_linkage_classes(g):
            assert sum(1 for lc in lcs if slc <= lc) == 1


def test_terminal_set_is_minimal_absorbing(nets):
    for net in nets.values():
        g = net.graph
        terminals = terminal_complexes(g)
        if net.n == 0:
            continue
        assert is_absorbing_set(g, terminals)
        for s in enumerate_absorbing_sets(g, 64):
            assert terminals <= s


def test_condensation_acyclic(nets):
    for net in nets.values():
        g = net.graph
        sccs = strong_linkage_classes(g)
        block_of = {v: i for i, block in enumerate(sccs) for v in block}
        succ = {i: set() for i in range(len(sccs))}
        for e in g.edges:
            a, b = block_of[e.src], block_of[e.dst]
            if a != b:
                succ[a].add(b)
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for v in succ[u]:
                assert v not in seen or v in done, "cycle in condensation"
                if v not in seen:
                    dfs(v)
            done.add(u)

        for u in succ:
            if u not in seen:
                dfs(u)


# The counting tests parse their network afresh: the network graph is a table
# built once per network, so a session fixture's would already be condensed.


def test_one_condensation_per_graph(condense_calls):
    net = load_fixture("example21")
    g = net.graph
    strong_linkage_classes(g)
    terminal_slcs(g)
    assert is_absorbing_set(g, terminal_complexes(g))
    enumerate_absorbing_sets(g, 64)
    assert net.graph is g  # the network's own table
    strong_linkage_classes(net.graph)
    assert condense_calls == [g.successors()]


def test_one_graph_per_expansion(condense_calls):
    net = load_fixture("example21")
    dcrn = build_dom_crn(net, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})
    assert condense_calls == []  # the absorbing-set test reads no condensation
    expanded = dcrn.graph
    assert check_slc_coincidence(net.graph, dcrn.graph) == ()
    assert list(enumerate_forests(dcrn))
    assert dcrn.graph is expanded
    base = net.graph.successors()
    assert expanded.successors() != base
    # the SLC check condenses the network's own graph, then the expanded one
    assert condense_calls == [base, expanded.successors()]
    assert check_slc_coincidence(net.graph, dcrn.graph) == ()
    assert len(condense_calls) == 2


def test_one_condensation_per_shrink_round(condense_calls):
    # one condensation for all the rounds: a pass over the whole expansion's
    # blocks, each round dropping only edges between blocks
    net = load_fixture("example21")
    dcrn = maximal_admissible(net)
    whole = dom_graph(net, expansion_edges(net))
    assert dcrn.graph.edges != whole.edges  # the fixpoint took more than one round
    # the fixpoint's graph is the candidate's: no further condensation
    assert is_absorbing_set(dcrn.graph, dcrn.absorbing)
    assert list(enumerate_forests(dcrn))
    assert condense_calls == [whole.successors()]
    # on the network graph's blocks, which a subconservative network's
    # expansions share, the pass condenses only the network graph
    again = shrink_to_terminal(net, expansion_edges(net), net.graph.condensation)
    assert condense_calls == [whole.successors(), net.graph.successors()]
    assert again == dcrn
    assert again.graph.condensation == dcrn.graph.condensation
    assert dcrn.graph.condensation == ReactionGraph(net.n, dcrn.graph.edges).condensation


def test_analyze_condenses_the_network_graph_once(condense_calls):
    net = load_fixture("example21")
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction)
    # the network's own graph, whose blocks every expansion shares; no
    # expansion is condensed
    assert condense_calls == [net.graph.successors()]
    # the auditor's absorbing-set test reads no condensation, and a second
    # analyze finds the network graph condensed
    assert verify_report(net, json.loads(emit_report(net, verdict, SearchConfig())))
    assert analyze(net) == verdict
    assert len(condense_calls) == 1


@st.composite
def graphs_with_roots(draw):
    """Successor lists over 0..n-1 and a sequence of roots, repeats allowed."""
    n = draw(st.integers(0, 9))
    vertex = st.integers(0, max(n - 1, 0))
    succ = draw(st.lists(st.lists(vertex, max_size=4), min_size=n, max_size=n))
    return succ, draw(st.lists(vertex, max_size=6)) if n else []


@given(graphs_with_roots())
@example(([[1], [0, 2], [], [2, 3]], [2, 0, 3, 1]))  # later roots enter older components
def test_growing_root_by_root_is_one_condense_call(case):
    # the oracle's sweep grows its graph one root at a time, numbering the
    # new components on from the old ones
    succ, roots = case
    expanded = []

    def expand(v):
        expanded.append(v)
        return succ[v]

    index, keys, comp = stores = {}, [], []
    found = []
    for root in roots:
        found += condense((root,), expand, index, keys, comp, len(found))
    whole = {}, [], []
    assert condense(roots, succ.__getitem__, *whole) == found
    assert whole == stores
    # a cap of the vertices reached holds them; one fewer raises
    assert condense(roots, succ.__getitem__, {}, [], [], 0, len(keys)) == found
    if keys:
        with pytest.raises(StateCapExceeded) as raised:
            condense(roots, succ.__getitem__, {}, [], [], 0, len(keys) - 1)
        assert raised.value.cap == len(keys) - 1
    # against the reach-set reference: the reached vertices, each numbered
    # and expanded once when first met, so every one but a root has an
    # in-edge from a smaller id
    g = ReactionGraph(len(succ), tuple(GraphEdge(v, w) for v, out in enumerate(succ) for w in out))
    reach, scc = reach_sets(g), reach_set_sccs(g)
    assert set(keys) == set().union(*(reach[r] for r in roots))
    assert index == {v: i for i, v in enumerate(keys)}
    assert expanded == keys
    for i, v in enumerate(keys):
        assert v in roots or any(v in succ[keys[j]] for j in range(i))
    # each block is one SCC, its ids ascending; the ids are reverse
    # topological, and the exits are the other components its edges enter
    assert sorted(i for block, _ in found for i in block) == list(range(len(keys)))
    for c, (block, exits) in enumerate(found):
        assert block == sorted(block)
        assert {keys[i] for i in block} == scc[keys[block[0]]]
        assert all(comp[i] == c for i in block)
        assert set(exits) == {comp[index[w]] for i in block for w in succ[keys[i]]} - {c}
        assert all(d < c for d in exits)


@st.composite
def graphs_with_sets(draw):
    n = draw(st.integers(0, 7))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14)) if n else []
    chosen = draw(st.sets(vertex, max_size=n)) if n else set()
    return n, pairs, chosen


@given(graphs_with_sets())
@example((0, [], set()))  # the empty graph: the empty set is absorbing
@example((2, [(0, 1), (1, 0)], {0}))  # holds part of a terminal class
@example((3, [(0, 1), (1, 2), (2, 1)], {1, 2}))  # the terminal class, reached by all
def test_is_absorbing_set_matches_the_definition(case):
    n, pairs, chosen = case
    g = ReactionGraph(n, tuple(GraphEdge(a, b) for a, b in pairs))
    assert is_absorbing_set(g, chosen) == definition_is_absorbing_set(g, chosen)
    # the terminal set and the whole vertex set are always absorbing
    assert is_absorbing_set(g, terminal_complexes(g))
    assert is_absorbing_set(g, range(n))
    for bad in (-1, n):
        with pytest.raises(ValueError):
            is_absorbing_set(g, chosen | {bad})
