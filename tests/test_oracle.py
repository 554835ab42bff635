import inspect
from collections import deque
from fractions import Fraction
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnextinct import engine, oracle
from crnextinct.model import Complex, build_network, fire, is_charged
from crnextinct.parser import parse_crn
from crnextinct.oracle import (
    StateCapExceeded,
    complex_recurrent,
    explore,
    extinction_on,
    find_recurrent_witness,
    guaranteed_extinction_on,
    recurrent_complexes,
    recurrent_states,
    states_with_total,
)

from conftest import FIXTURE_NAMES, bench_module, name_to_index, state_of
from oracle_reference import slc_recurrence_report, subconservation_monotone, trace_to


def test_explore_intro(nets):
    g = explore(nets["intro"], (2, 0))
    assert set(g.states) == {(2, 0), (1, 1), (0, 2)}


def test_explore_zero_state(nets):
    g = explore(nets["intro"], (0, 0))
    assert g.states == [(0, 0)] and g.edges == []


def test_explore_example21(nets):
    g = explore(nets["example21"], (1, 1))
    assert set(g.states) == {(1, 1), (2, 0), (0, 2)}


def test_explore_closed_under_firing(nets):
    from crnextinct.model import fire

    for name in ("intro", "example21", "example23"):
        net = nets[name]
        g = explore(net, (2, 1))
        stored = set(g.states)
        for state in g.states:
            for k in range(net.r):
                nxt = fire(net, state, k)
                if nxt is not None:
                    assert nxt in stored


def test_explore_invalid_root(nets):
    with pytest.raises(ValueError):
        explore(nets["intro"], (1,))
    with pytest.raises(ValueError):
        explore(nets["intro"], (-1, 0))
    # no coercion: a float, a string or a bool is refused, not rounded or read
    for root in [(1.7, "2"), (True, 0)]:
        with pytest.raises(ValueError, match="int"):
            explore(nets["intro"], root)
    assert explore(nets["intro"], (1, 2)).root == (1, 2)


def test_cap_exceeded():
    growing = build_network(["A"], [((0,), (1,))])
    with pytest.raises(StateCapExceeded):
        explore(growing, (0,), hard_cap=10)


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "example22"])
def test_caps_are_honest_at_the_boundary(nets, name):
    # a closure of exactly N states fits a cap of N and not one of N - 1,
    # for one root's graph and for the sweep's shared graph
    net = nets[name]
    for root in [(1,) * net.m, (2,) + (0,) * (net.m - 1), (0,) * (net.m - 1) + (2,)]:
        size = len(explore(net, root).states)
        assert len(explore(net, root, hard_cap=size).states) == size
        if size > 1:  # a cap must be at least 1
            with pytest.raises(StateCapExceeded):
                explore(net, root, hard_cap=size - 1)
    budget = 3
    closure = {
        s for total in range(budget + 1) for root in states_with_total(net.m, total)
        for s in explore(net, root).states
    }
    size = len(closure)
    assert find_recurrent_witness(net, [], budget, hard_cap=size) is None  # sweeps every root
    with pytest.raises(StateCapExceeded):
        find_recurrent_witness(net, [], budget, hard_cap=size - 1)


def test_recurrent_states_intro(nets):
    g = explore(nets["intro"], (1, 1))
    labels = dict(zip(g.states, recurrent_states(g)))
    assert labels[(0, 2)] and not labels[(1, 1)] and not labels[(2, 0)]


def test_single_absorbing_state_recurrent(nets):
    g = explore(nets["intro"], (0, 2))
    assert recurrent_states(g) == [True]


def test_recurrent_states_example23(nets):
    g = explore(nets["example23"], (1, 1))
    labels = dict(zip(g.states, recurrent_states(g)))
    assert labels[(1, 0)] and labels[(0, 1)]
    assert not labels[(1, 1)] and not labels[(0, 2)] and not labels[(2, 0)]


def _definitional_recurrence(g):
    # brute-force pairwise reachability: X recurrent iff X ~> Y implies Y ~> X
    n = len(g.states)
    succ = [[] for _ in range(n)]
    for i, _, j in g.edges:
        succ[i].append(j)
    reach = []
    for i in range(n):
        seen = {i}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reach.append(seen)
    return [all(i in reach[j] for j in reach[i]) for i in range(n)]


def test_recurrence_matches_definition(nets):
    for name in ("intro", "example21", "example23", "example999", "example100"):
        net = nets[name]
        g = explore(net, tuple([2] * net.m))
        assert len(g.states) <= 200
        assert recurrent_states(g) == _definitional_recurrence(g)


def test_complex_recurrent_example23(nets):
    net = nets["example23"]
    g = explore(net, (1, 1))
    names = name_to_index(net)
    assert complex_recurrent(net, g, net.complexes[names["X1"]])
    assert complex_recurrent(net, g, net.complexes[names["X2"]])
    assert not complex_recurrent(net, g, net.complexes[names["X1 + X2"]])


def test_zero_complex_always_recurrent():
    net = build_network(["A"], [((1,), (0,))])
    g = explore(net, (3,))
    assert complex_recurrent(net, g, Complex((0,)))


def test_recurrent_complexes_agrees_with_definition(nets):
    for name in ("intro", "example21", "example23", "example100", "example101"):
        net = nets[name]
        g = explore(net, tuple([1] * net.m))
        fast = recurrent_complexes(net, g)
        slow = {
            i
            for i in range(net.n)
            if complex_recurrent(net, g, net.complexes[i])
        }
        assert fast == slow


def test_extinction_on_intro(nets):
    net = nets["intro"]
    names = name_to_index(net)
    for root in [(3, 1), (1, 1), (5, 0)]:
        g = explore(net, root)
        assert extinction_on(net, g, {names["2 X1"], names["X1 + X2"]})


def test_extinction_on_envz_small_root(nets):
    net = nets["envz"]
    names = name_to_index(net)
    g = explore(net, state_of(net, X1=1, X5=1))
    targets = set(range(net.n)) - {names["X4"]}
    assert extinction_on(net, g, targets)
    finals = [s for s, f in zip(g.states, recurrent_states(g)) if f]
    assert finals == [(0, 0, 0, 1, 0, 0, 1, 0, 0)]


def test_extinction_on_example101_false(nets):
    net = nets["example101"]
    names = name_to_index(net)
    g = explore(net, state_of(net, X1=1, X4=1, X5=1))
    nonterminal = {names["X1"], names["X2 + X4"]}
    assert not extinction_on(net, g, nonterminal)
    assert recurrent_complexes(net, g) == frozenset(range(net.n))


def test_guaranteed_extinction_example999(nets):
    net = nets["example999"]
    names = name_to_index(net)
    assert guaranteed_extinction_on(net, {names["X1 + X2"], names["2 X1"]}, budget=6)


def test_guaranteed_extinction_example100(nets):
    # extinction holds on the complexes needing the fourth species, from every
    # initial state, even though no forest certificate can affirm it
    net = nets["example100"]
    names = name_to_index(net)
    targets = {names["X3 + X4"], names["X1 + X4"]}
    assert guaranteed_extinction_on(net, targets, budget=6)
    # the base nonterminal complexes, by contrast, stay recurrent from a
    # state with no X4 but cycling X1/X2 material
    g = explore(net, state_of(net, X2=1, X3=1))
    assert not extinction_on(net, g, {names["X1"], names["X2 + X3"]})


def test_guaranteed_extinction_example101_false(nets):
    net = nets["example101"]
    names = name_to_index(net)
    nonterminal = {names["X1"], names["X2 + X4"]}
    assert not guaranteed_extinction_on(net, nonterminal, budget=6)
    witness = find_recurrent_witness(net, nonterminal, budget=6)
    assert witness is not None
    root, ci = witness
    g = explore(net, root)
    assert complex_recurrent(net, g, net.complexes[ci])


def _check_successors(net, g):
    """g.edges against firing computed from the reactions' coefficients.

    Every edge lands on a stored state: the states are closed under firing.
    """
    want = []
    for i, state in enumerate(g.states):
        for k, rxn in enumerate(net.reactions):
            src, tgt = rxn.source.coeffs, rxn.target.coeffs
            if all(x >= a for x, a in zip(state, src)):
                nxt = tuple(x - a + b for x, a, b in zip(state, src, tgt))
                assert nxt in g.index, (state, k, nxt)
                want.append((i, k, g.index[nxt]))
    assert g.edges == want


def _per_root_witnesses(net, budget, cap):
    """Per complex, the first (root, complex) hit of a per-root explore + complex_recurrent loop.

    Each root's graph has its edges checked on the way.
    """
    first = {}
    for total in range(budget + 1):
        for root in states_with_total(net.m, total):
            g = explore(net, root, hard_cap=cap)
            _check_successors(net, g)
            # complex_recurrent reads the states and the edges, which the
            # property fires anew on every read: fire them once per root
            fired = SimpleNamespace(states=g.states, edges=g.edges)
            for ci in range(net.n):
                if ci not in first and complex_recurrent(net, fired, net.complexes[ci]):
                    first[ci] = (root, ci)
    return first


def test_sweep_matches_per_root_definition(nets):
    # the shared sweep against explore + complex_recurrent, root by root, on
    # every fixture whose per-root closures stay under the reference cap
    swept = 0
    for name in FIXTURE_NAMES:
        net = nets[name]
        try:
            first = _per_root_witnesses(net, 3, cap=2000)
        except StateCapExceeded:
            continue
        swept += 1
        cap = 2000 * comb(net.m + 3, 3)  # per-root cap times the number of roots
        for ci in range(net.n):
            want = first.get(ci)
            assert find_recurrent_witness(net, {ci}, budget=3, hard_cap=cap) == want, (name, ci)
            assert guaranteed_extinction_on(net, {ci}, budget=3, hard_cap=cap) == (want is None)
    assert swept == len(FIXTURE_NAMES) - 1  # example22 grows without bound


@st.composite
def small_networks(draw):
    m = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 2)] * m)
    reactions = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=5))
    return build_network([f"X{i + 1}" for i in range(m)], reactions)


@settings(max_examples=150)
@given(net=small_networks(), data=st.data())
def test_sweep_matches_per_root_definition_random(net, data):
    targets = data.draw(st.sets(st.integers(0, net.n - 1), min_size=1))
    try:
        first = _per_root_witnesses(net, 3, cap=300)
    except StateCapExceeded:
        return
    hits = [first[ci] for ci in targets if ci in first]
    # roots in sweep order, then the least complex
    order = [root for total in range(4) for root in states_with_total(net.m, total)]
    want = min(hits, key=lambda h: (order.index(h[0]), h[1])) if hits else None
    cap = 300 * len(order)
    assert find_recurrent_witness(net, targets, budget=3, hard_cap=cap) == want


def _fired(net, state):
    """The successors `fire` gives, one per reaction the state fires, in reaction order."""
    return [t for k in range(net.r) if (t := fire(net, state, k)) is not None]


@given(net=small_networks(), data=st.data())
def test_next_states_matches_fire_random(net, data):
    assert net.next_states is net.next_states
    for _ in range(5):
        state = data.draw(st.tuples(*[st.integers(0, 4)] * net.m))
        assert list(net.next_states(state)) == _fired(net, state)


def test_next_states_matches_fire_edge_cases():
    big = 2**64
    cases = [
        # m = 0: the empty state fires every reaction of the empty complex
        (build_network([], [((), ()), ((), ())]), [()]),
        # m = 1: one-tuple successors
        (build_network(["A"], [((1,), (0,)), ((0,), (2,)), ((2,), (1,))]), [(0,), (1,), (3,)]),
        # a zero-vector reaction and one whose source is the empty complex
        (build_network(["A", "B"], [((1, 1), (1, 1)), ((0, 0), (1, 0)), ((0, 2), (0, 0))]),
         [(0, 0), (1, 1), (0, 2), (3, 3)]),
        # coefficients above 2**64
        (build_network(["A", "B"], [((big + 1, 0), (0, 2 * big)), ((0, 1), (big, 0))]),
         [(0, 0), (big, 1), (big + 1, 0), (big + 1, 5), (2**70, 0)]),
    ]
    for net, states in cases:
        for state in states:
            assert list(net.next_states(state)) == _fired(net, state), (net, state)
    net, _ = cases[2]
    assert list(net.next_states((1, 1))) == [(1, 1), (2, 1)]
    assert list(net.next_states((0, 0))) == [(1, 0)]
    net, _ = cases[3]
    assert list(net.next_states((big + 1, 0))) == [(0, 2 * big)]


def test_next_states_is_lazy_and_keeps_reaction_order():
    # A -> B and A -> C share one need, B -> A breaks the run, A -> 0 repeats
    # the first need: the successors still come in reaction order
    net = build_network(["A", "B", "C"], [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 0, 0)),
    ])
    assert inspect.isgenerator(net.next_states((1, 1, 0)))
    assert list(net.next_states((1, 1, 0))) == [(0, 2, 0), (0, 1, 1), (2, 0, 0), (0, 1, 0)]
    for total in range(4):
        for state in states_with_total(net.m, total):
            assert list(net.next_states(state)) == _fired(net, state), state
    # a network without reactions has a kernel that yields nothing
    bare = build_network(["A"], [])
    assert inspect.isgenerator(bare.next_states((3,)))
    assert list(bare.next_states((3,))) == []


def test_next_states_built_once_and_not_at_parse():
    net = parse_crn("X1 + X2 -> 2 X2\nX2 -> X1\n").network
    assert "next_states" not in vars(net)
    assert "next_states" not in vars(build_network(["A"], [((1,), (0,))]))
    kernel = net.next_states
    assert net.next_states is kernel
    assert list(kernel((1, 1))) == [(0, 2), (2, 0)]


def test_next_states_ignores_species_names():
    # names that would mean something inside the kernel's source never enter it
    names = ["x0", "state", "out", "__import__('os').getcwd()"]
    net = build_network(names, [
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 1, 1, 0), (0, 0, 0, 2)),
        ((0, 0, 0, 2), (1, 0, 1, 0)),
    ])
    for total in range(4):
        for state in states_with_total(net.m, total):
            assert list(net.next_states(state)) == _fired(net, state)
    g = explore(net, (2, 1, 1, 1))
    assert len(g.states) > 1
    _check_successors(net, g)


def _charged_by_definition(net, states):
    """OR over the states of 1 << ci for each complex ci the state charges."""
    return sum(
        1 << ci
        for ci, y in enumerate(net.complexes)
        if any(is_charged(y, state) for state in states)
    )


def _listings(net):
    """Every complex, none, and a proper subset: the listed complexes a mask is asked for."""
    return [list(range(net.n)), [], list(range(0, net.n, 2))]


def _bits(listed):
    """The mask with a bit set for each listed complex."""
    return sum(1 << ci for ci in set(listed))


def test_charged_mask_matches_definition(nets):
    for name in FIXTURE_NAMES:
        net = nets[name]
        states = [s for total in range(4) for s in states_with_total(net.m, total)]
        for listed in _listings(net):
            bits = _bits(listed)
            assert oracle._charged_mask(net, [], listed) == 0
            got = oracle._charged_mask(net, states, listed)
            assert got == _charged_by_definition(net, states) & bits, (name, listed)
            for state in states:
                got = oracle._charged_mask(net, [state], listed)
                assert got == _charged_by_definition(net, [state]) & bits, (name, state, listed)


@given(net=small_networks(), data=st.data())
def test_charged_mask_matches_definition_random(net, data):
    states = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * net.m), max_size=4))
    listed = data.draw(st.sampled_from(_listings(net)) | st.lists(st.integers(0, net.n - 1)))
    got = oracle._charged_mask(net, states, listed)
    assert got == _charged_by_definition(net, states) & _bits(listed)


def _count_grown(monkeypatch):
    """The states each `_grow` call adds to its graph, in order: the states it expands."""
    grown = []
    real = oracle._grow

    def counted(g, start, hard_cap):
        before = len(g.states)
        real(g, start, hard_cap)
        grown.extend(g.states[before:])

    monkeypatch.setattr(oracle, "_grow", counted)
    return grown


def test_sweep_expands_each_state_once(nets, monkeypatch):
    net = nets["envz"]
    names = name_to_index(net)
    distinct = {
        s for total in range(4) for root in states_with_total(net.m, total)
        for s in explore(net, root).states
    }
    grown = _count_grown(monkeypatch)
    assert guaranteed_extinction_on(net, set(range(net.n)) - {names["X4"]}, budget=3)
    assert len(distinct) == 720
    assert len(grown) == len(distinct) and set(grown) == distinct


def test_witness_search_stops_at_first_hit(nets, monkeypatch):
    net = nets["example101"]
    names = name_to_index(net)
    nonterminal = {names["X1"], names["X2 + X4"]}
    grown = _count_grown(monkeypatch)
    found = find_recurrent_witness(net, nonterminal, budget=2)
    at_two = list(grown)
    grown.clear()
    assert find_recurrent_witness(net, nonterminal, budget=6) == found
    assert found[0] == (0, 1, 1, 0, 0)
    assert grown == at_two


def test_sweep_successors_match_reaction_coefficients(nets, monkeypatch):
    # the shared sweep graph of every fixture; _per_root_witnesses checks per-root graphs
    graphs = []
    real = oracle._grow

    def kept(g, start, hard_cap):
        real(g, start, hard_cap)
        if not graphs or graphs[-1] is not g:
            graphs.append(g)

    monkeypatch.setattr(oracle, "_grow", kept)
    for name in FIXTURE_NAMES:
        net = nets[name]
        try:
            find_recurrent_witness(net, range(net.n), budget=3, hard_cap=20000)
        except StateCapExceeded:
            assert name == "example22"  # grows without bound
            graphs = [g for g in graphs if g.net is not net]  # a capped graph is partial
    assert len(graphs) == len(FIXTURE_NAMES) - 1
    for g in graphs:
        _check_successors(g.net, g)


def test_budget_and_cap_are_checked(nets):
    net = nets["example101"]
    everything = range(net.n)
    assert find_recurrent_witness(net, everything, budget=2) is not None
    for budget in (-1, True, False, 2.5, "3", None):
        with pytest.raises(ValueError, match="budget"):
            find_recurrent_witness(net, everything, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            guaranteed_extinction_on(net, everything, budget=budget)
    for cap in (0, -5, True, 10.0, "100"):
        with pytest.raises(ValueError, match="hard_cap"):
            find_recurrent_witness(net, everything, budget=2, hard_cap=cap)
        with pytest.raises(ValueError, match="hard_cap"):
            guaranteed_extinction_on(net, everything, budget=2, hard_cap=cap)
        with pytest.raises(ValueError, match="hard_cap"):
            explore(net, (1,) * net.m, hard_cap=cap)
    assert guaranteed_extinction_on(net, everything, budget=0)  # no listed complex is 0
    assert len(explore(net, (0,) * net.m, hard_cap=1).states) == 1


def test_sweep_cap_bounds_the_shared_closure(nets):
    # every root's own closure in intro stays tiny; the roots together do not
    net = nets["intro"]
    names = name_to_index(net)
    with pytest.raises(StateCapExceeded):
        guaranteed_extinction_on(net, {names["2 X1"]}, budget=10**6, hard_cap=500)


def test_target_indices_are_range_checked(nets):
    net = nets["intro"]
    g = explore(net, (1, 1))
    for bad in ({-1}, {net.n}, {0, 99}, {0.5}):
        with pytest.raises(ValueError):
            extinction_on(net, g, bad)
        with pytest.raises(ValueError):
            guaranteed_extinction_on(net, bad, budget=3)
        with pytest.raises(ValueError):
            find_recurrent_witness(net, bad, budget=3)


@pytest.mark.parametrize("entry", [True, False, 1.0, Fraction(1)])
def test_target_indices_must_be_ints(nets, entry):
    # each equals complex index 0 or 1 and would be read as it, except that a
    # float breaks the sweep's bit mask with a TypeError
    net = nets["envz"]
    g = explore(net, (0,) * net.m)
    for listed in ([entry], [1, entry]):
        with pytest.raises(ValueError, match="not ints"):
            extinction_on(net, g, listed)
        with pytest.raises(ValueError, match="not ints"):
            guaranteed_extinction_on(net, listed, budget=2)
        with pytest.raises(ValueError, match="not ints"):
            find_recurrent_witness(net, listed, budget=2)


def test_states_with_total():
    assert sorted(states_with_total(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(states_with_total(1, 3)) == [(3,)]
    assert list(states_with_total(0, 0)) == [()]
    assert inspect.isgenerator(states_with_total(4, 10))
    # the exact sequence: every vector of the total, in lexicographic order;
    # a negative total has none, in every dimension
    assert list(states_with_total(-1, 0)) == []
    # up to m = 6 and total 7, and the bench's sweeps: EnvZ (m = 9) to total 3,
    # example100 (m = 4) at total 10
    shapes = [(m, total) for m in range(7) for total in range(-1, 8)]
    shapes += [(9, total) for total in range(4)] + [(4, 10)]
    for m, total in shapes:
        want = sorted(s for s in product(range(max(total, 0) + 1), repeat=m) if sum(s) == total)
        assert list(states_with_total(m, total)) == want, (m, total)


def test_slc_recurrence_report_example23(nets):
    net = nets["example23"]
    g = explore(net, (1, 1))
    report = slc_recurrence_report(net, g)
    labels = {tuple(sorted(block)): flag for block, flag in report.slc_labels}
    assert labels == {(0,): False, (1, 2): True}


def test_slc_recurrence_report_all_recurrent():
    net = build_network(["A", "B"], [((1, 0), (0, 1)), ((0, 1), (1, 0))])
    g = explore(net, (1, 0))
    report = slc_recurrence_report(net, g)
    assert all(flag for _, flag in report.slc_labels)


def test_slc_recurrence_report_envz(nets):
    net = nets["envz"]
    g = explore(net, state_of(net, X2=1, X5=2))
    report = slc_recurrence_report(net, g)
    names = name_to_index(net)
    recurrent_blocks = [
        sorted(block) for block, flag in report.slc_labels if flag
    ]
    assert [names["X4"]] in recurrent_blocks


def test_trace_replay(nets):

    net = nets["example23"]
    g = explore(net, (2, 1))
    gamma = net.stoich
    for state in g.states:
        trace = trace_to(g, state)
        assert trace.replay(net) == state
        counts = trace.counts(net.r)
        walked = tuple(
            x0 + sum(gamma[i][k] * counts[k] for k in range(net.r))
            for i, x0 in enumerate(g.root)
        )
        assert walked == state


def test_subconservation_monotone(nets):
    from crnextinct.invariants import is_conservative, is_subconservative

    net = nets["example23"]
    witness = is_subconservative(net.stoich).witness
    g = explore(net, (2, 2))
    assert subconservation_monotone(net, g, witness)
    net21 = nets["example21"]
    c = is_conservative(net21.stoich).witness
    g21 = explore(net21, (2, 1))
    total = sum(ci * x for ci, x in zip(c, g21.root))
    for state in g21.states:
        assert sum(ci * x for ci, x in zip(c, state)) == total


@pytest.mark.parametrize("workload", ["certify", "search"])
def test_engine_agrees_with_oracle_on_bench_families(workload):
    # every certified transient complex stays transient from every root up to budget 6
    workloads = bench_module("workloads")
    cfg = workloads.search_config(engine, workload)
    certified = 0
    for key, m, reactions in workloads.family(workload):
        net = build_network([f"X{i + 1}" for i in range(m)], reactions)
        verdict = engine.analyze(net, cfg)
        if isinstance(verdict, engine.GuaranteedExtinction):
            certified += 1
            assert find_recurrent_witness(net, verdict.transient, budget=6) is None, key
    assert certified
