import json
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    check_farkas,
    check_feasible,
    solve_feasibility,
)
from crnextinct.forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
    forest_is_valid,
    subconservation_slack,
)
from crnextinct.domination import (
    AdmissibilityError,
    DomCRN,
    build_dom_crn,
    check_slc_coincidence,
    dom_graph,
    domination_set,
    maximal_admissible,
)
from crnextinct.graphs import (
    GraphEdge,
    ReactionGraph,
    enumerate_absorbing_sets,
    is_absorbing_set,
    linkage_classes,
    strong_linkage_classes,
    terminal_complexes,
    terminal_slcs,
)
from crnextinct.engine import GuaranteedExtinction, SearchConfig, _candidate_pairs, analyze
from crnextinct.invariants import (
    conservation_system,
    is_conservative,
    is_subconservative,
    strict_subconservation_system,
)
from crnextinct.model import build_network, fire, is_charged
from crnextinct.oracle import (
    StateCapExceeded,
    complex_recurrent,
    explore,
    extinction_on,
    find_recurrent_witness,
    recurrent_complexes,
)
from crnextinct.parser import format_network, parse_crn
from crnextinct.petri import PetriFormatError, petri_export, petri_import
from crnextinct.report import emit_report, verify_report

import fraction_lp
from fraction_lp import dense_system
from cone_reference import in_cone, nonneg_kernel_generators
from conftest import FIXTURE_NAMES, check_network_refutations, random_network, strict_subconservation
from forests_reference import recursive_forests, support_layout_balance
from search_reference import candidate_pairs
from graphs_reference import union_find_linkage_classes


@st.composite
def networks(draw):
    m = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    coeff = st.integers(0, 2)
    vec = st.tuples(*[coeff] * m)
    reactions = draw(st.lists(st.tuples(vec, vec), min_size=r, max_size=r))
    return build_network([f"X{i + 1}" for i in range(m)], reactions)


@st.composite
def networks_with_state(draw):
    net = draw(networks())
    state = tuple(draw(st.integers(0, 4)) for _ in range(net.m))
    return net, state


@given(networks_with_state())
def test_fire_iff_charged(case):
    net, state = case
    for k, rxn in enumerate(net.reactions):
        result = fire(net, state, k)
        assert (result is not None) == is_charged(rxn.source, state)
        if result is not None:
            assert all(v >= 0 for v in result)


@given(networks_with_state())
def test_random_walk_satisfies_count_equation(case):
    net, state = case
    rng = random.Random(1234)
    gamma = net.stoich
    counts = [0] * net.r
    current = state
    for _ in range(12):
        charged = [k for k in range(net.r) if fire(net, current, k) is not None]
        if not charged:
            break
        k = rng.choice(charged)
        current = fire(net, current, k)
        counts[k] += 1
    walked = tuple(
        x0 + sum(gamma[i][k] * counts[k] for k in range(net.r))
        for i, x0 in enumerate(state)
    )
    assert walked == current


@given(networks())
def test_complex_indexing_is_deterministic(net):
    rebuilt = build_network(
        net.species_names,
        [(r.source.coeffs, r.target.coeffs) for r in net.reactions],
    )
    assert [c.coeffs for c in rebuilt.complexes] == [c.coeffs for c in net.complexes]


@given(networks())
def test_parser_round_trip(net):
    # species live in the text only through appearances, so the identity the
    # format promises is parse -> print -> parse on the normalized form
    doc = parse_crn(format_network(net))
    normalized = format_network(doc.network)
    again = parse_crn(normalized)
    assert format_network(again.network) == normalized
    assert again.network.species_names == doc.network.species_names
    assert [(r.source.coeffs, r.target.coeffs) for r in again.network.reactions] == [
        (r.source.coeffs, r.target.coeffs) for r in doc.network.reactions
    ]


@given(networks())
def test_graph_partition_invariants(net):
    g = net.graph
    lcs = linkage_classes(g)
    slcs = strong_linkage_classes(g)
    everything = set(range(net.n))
    assert set().union(*lcs) == everything if lcs else net.n == 0
    assert set().union(*slcs) == everything if slcs else net.n == 0
    for slc in slcs:
        assert sum(1 for lc in lcs if slc <= lc) == 1
    assert terminal_complexes(g) == frozenset().union(*terminal_slcs(g))
    # the first absorbing set is the terminal one: the search's "terminal" strategy
    assert enumerate_absorbing_sets(g, 1) == [terminal_complexes(g)]
    if net.n:
        assert is_absorbing_set(g, terminal_complexes(g))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=12))


@given(edge_lists())
@example((1, [(0, 0)]))  # a self-loop
@example((3, [(0, 1), (0, 1), (1, 0)]))  # parallel and antiparallel edges, vertex 2 isolated
@example((5, [(4, 2), (2, 2), (3, 4)]))  # vertices 0 and 1 isolated, edges toward smaller ids
def test_linkage_classes_match_union_find(graph):
    n, pairs = graph
    g = ReactionGraph(n, tuple(GraphEdge(a, b) for a, b in pairs))
    assert linkage_classes(g) == union_find_linkage_classes(g)


@given(networks())
def test_domination_edges_are_strict(net):
    for e in domination_set(net):
        big = net.complexes[e.src].coeffs
        small = net.complexes[e.dst].coeffs
        assert small != big
        assert all(s <= b for s, b in zip(small, big))


@given(networks())
def test_conservation_outcomes_self_verify(net):
    gamma = net.stoich
    cons = is_conservative(gamma)
    sub = is_subconservative(gamma)
    # the LP runs over c - 1; the answer decides the system over c >= 1 as
    # the reference solver does, and re-checks against it
    for equality, outcome in ((True, cons), (False, sub)):
        unshifted = conservation_system(gamma, equality=equality)
        reference = fraction_lp.solve_feasibility(unshifted)
        assert isinstance(outcome, Feasible) == isinstance(reference, Feasible)
        if isinstance(outcome, Feasible):
            assert check_feasible(unshifted, outcome.witness)
        else:
            assert check_farkas(unshifted, outcome)
    if isinstance(cons, Feasible):
        assert isinstance(sub, Feasible)
        # homogeneity: positive scalings remain conservation vectors
        doubled = [2 * c for c in cons.witness]
        assert check_feasible(conservation_system(gamma, equality=True), doubled)


@given(networks())
def test_strict_witness_iff_strict_system_feasible(net):
    gamma = net.stoich
    strict = strict_subconservation_system(gamma)
    feasible = isinstance(fraction_lp.solve_feasibility(strict), Feasible)
    assert (strict_subconservation(net) is not None) == feasible
    if feasible:
        assert check_feasible(strict, is_subconservative(gamma).witness)


@given(networks(), st.integers(0, 3), st.booleans())
def test_opposite_reaction_vectors_refute_the_strict_system(net, k, zero):
    # add the reverse of a reaction, or a reaction that changes nothing
    pairs = [(rxn.source.coeffs, rxn.target.coeffs) for rxn in net.reactions]
    src, tgt = pairs[k % net.r]
    pairs.append((src, src) if zero else (tgt, src))
    net = build_network(net.species_names, pairs)
    strict = strict_subconservation_system(net.stoich)
    out = solve_feasibility(strict)
    assert isinstance(out, Farkas) and check_farkas(strict, out)
    assert out == fraction_lp.solve_feasibility(strict)
    assert strict_subconservation(net) is None


WIDENED = SearchConfig(
    dom_strategy="all-subsets", dom_cap=4, absorbing_strategy="enumerate", absorbing_cap=2
)


@given(networks())
def test_strict_vector_refutes_every_forest(net):
    check_network_refutations(net, (SearchConfig(), WIDENED), forest_cap=10)


@given(st.integers(0, 2**32 - 1))
def test_rows_hold_exactly_the_nonzeros(seed):
    # every exact-LP row the package builds is sparse: a row of Gamma's
    # column holds that column's nonzeros, a unit row c_i >= 1 one entry, a
    # flow row one per term, a candidate row one per candidate; no row is
    # dense, which would hold a zero entry
    net = random_network(random.Random(seed))
    gamma = net.stoich
    cols = list(zip(*gamma))

    def nonzeros(vector):
        return sum(1 for v in vector if v)

    def counts(rows):
        return [len(entries) for entries, _ in rows]

    units = [1] * net.m
    for equality in (True, False):
        system = conservation_system(gamma, equality=equality)
        assert counts(system.eq + system.ge) == [nonzeros(col) for col in cols] + units
    strict = strict_subconservation_system(gamma)
    assert counts(strict.ge) == [nonzeros(col) for col in dict.fromkeys(cols)] + units
    for dcrn in candidate_pairs(net, WIDENED):
        for forest in islice(enumerate_forests(dcrn), 20):
            for reading in (TRUE_REACTIONS, ANY_EDGE):
                system = build_balancing_system(dcrn, forest, reading)
                reactions = [v for v in system.support if v < net.r]
                lin = system.linear_system(system.candidates)
                assert counts(lin.eq) == [nonzeros(row[v] for v in reactions) for row in gamma]
                flows = [1 + len(in_vars) for _, in_vars in system.flow_rows]
                assert counts(lin.ge) == flows + [len(system.candidates)]


@given(st.integers(0, 2**32 - 1))
def test_forest_coordinates_decide_as_the_support_layout(seed):
    # every forest of every widened candidate, under both readings: the solve
    # in forest coordinates and the support-layout reference agree on the
    # kind, and each answer passes the audit of the support-layout system
    net = random_network(random.Random(seed))
    for dcrn in candidate_pairs(net, WIDENED):
        for forest in enumerate_forests(dcrn):
            for reading in (TRUE_REACTIONS, ANY_EDGE):
                system = build_balancing_system(dcrn, forest, reading)
                got = decide_balance(system)
                assert type(got) is type(support_layout_balance(system))
                if isinstance(got, Balanced):
                    summed = system.linear_system(system.candidates)
                    assert check_feasible(summed, system.on_support(got.alpha))
                else:
                    for candidates, cert in got.witnesses:
                        assert check_farkas(system.linear_system(candidates), cert)


@given(networks())
def test_forest_order_matches_recursive_reference(net):
    # on a subconservative draw, the search's own candidates too, found with
    # the scaled witness as analyze finds them: each has the strong linkage
    # classes of the network graph and the condensation of its expansion
    # built afresh, which no runtime check confirms
    sub = is_subconservative(net.stoich)
    c = subconservation_slack(net, sub.witness)[0] if isinstance(sub, Feasible) else None
    for cfg in (SearchConfig(), WIDENED):
        want = list(candidate_pairs(net, cfg))
        for dcrn in want:
            assert list(enumerate_forests(dcrn)) == list(recursive_forests(dcrn))
        if c is None:
            continue
        got = list(_candidate_pairs(net, cfg, c))
        assert got == want
        for dcrn in got:
            fresh = dom_graph(net, dcrn.dom_edges)
            assert check_slc_coincidence(net.graph, fresh) == ()
            assert dcrn.graph.condensation == fresh.condensation


@st.composite
def graphs_with_any_absorbing_set(draw):
    # one species per complex, so the graph is any multigraph with
    # self-loops; the absorbing set need not be closed or hold the
    # terminal complexes, so that many prefixes of choices complete to no
    # forest
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=20))
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    net = build_network([f"X{i}" for i in range(n)], [(unit[a], unit[b]) for a, b in pairs])
    absorbing = draw(st.frozensets(st.integers(0, net.n - 1), min_size=1))
    return DomCRN(net, net.graph, absorbing)


@settings(max_examples=300)
@given(graphs_with_any_absorbing_set())
def test_forest_order_matches_recursive_reference_past_dead_ends(dcrn):
    assert list(enumerate_forests(dcrn)) == list(recursive_forests(dcrn))


@given(networks())
def test_kernel_rays_lie_in_cone(net):
    gamma = net.stoich
    gens = nonneg_kernel_generators(gamma)
    for ray in gens:
        assert all(v >= 0 for v in ray)
        assert all(sum(g * v for g, v in zip(row, ray)) == 0 for row in gamma)


@given(networks())
def test_forests_of_maximal_expansion_are_valid(net):
    if not isinstance(is_subconservative(net.stoich), Feasible):
        return
    dcrn = maximal_admissible(net)
    for forest in islice(enumerate_forests(dcrn), 64):
        assert forest_is_valid(dcrn, forest)
        outcome = decide_balance(build_balancing_system(dcrn, forest))
        from forests_reference import verify_balance_outcome

        assert verify_balance_outcome(dcrn, forest, outcome)


@given(networks_with_state(), st.data())
def test_complex_recurrence_characterizations_agree(case, data):
    net, state = case
    if not isinstance(is_subconservative(net.stoich), Feasible):
        return
    try:
        g = explore(net, state, hard_cap=5000)
    except StateCapExceeded:
        return
    fast = recurrent_complexes(net, g)
    slow = {i for i in range(net.n) if complex_recurrent(net, g, net.complexes[i])}
    assert fast == slow
    subset = data.draw(st.sets(st.integers(0, net.n - 1)))
    assert extinction_on(net, g, subset) == slow.isdisjoint(subset)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    row = st.tuples(st.tuples(*[coeff] * n), st.integers(-4, 4))
    eq = draw(st.lists(row, max_size=3))
    ge = draw(st.lists(row, max_size=4))
    return dense_system(n, eq=eq, ge=ge)


@given(small_systems())
def test_lp_answers_are_self_certifying(system):
    outcome = solve_feasibility(system)
    if isinstance(outcome, Feasible):
        assert check_feasible(system, outcome.witness)
    else:
        assert check_farkas(system, outcome)


@given(small_systems(), st.lists(st.integers(1, 9), min_size=7, max_size=7))
def test_row_scaling_invariance(system, scales):
    def scaled_rows(rows, offset):
        out = []
        for i, (entries, rhs) in enumerate(rows):
            s = scales[(offset + i) % len(scales)]
            out.append((tuple((j, s * c) for j, c in entries), s * rhs))
        return tuple(out)

    scaled = LinearSystem(system.n, scaled_rows(system.eq, 0), scaled_rows(system.ge, 3))
    a = solve_feasibility(system)
    b = solve_feasibility(scaled)
    assert isinstance(a, Feasible) == isinstance(b, Feasible)
    if isinstance(a, Feasible):
        assert check_feasible(scaled, a.witness)
        assert check_feasible(system, b.witness)


@given(networks())
def test_cone_generators_are_complete(net):
    # any point of the kernel-orthant polytope must decompose over the rays
    gamma = net.stoich
    gens = nonneg_kernel_generators(gamma)
    from crnextinct.exactlp import lexmin, Feasible

    slice_system = dense_system(
        net.r,
        eq=tuple(
            [(row, 0) for row in gamma]
            + [((1,) * net.r, 1)]
        ),
    )
    outcome = lexmin(slice_system)
    if isinstance(outcome, Feasible):
        assert in_cone(outcome.witness, gens)
    else:
        assert gens == ()


@given(st.text(max_size=60))
def test_parser_never_crashes(text):
    from crnextinct.parser import ParseError, parse_crn

    try:
        parse_crn(text)
    except ParseError:
        pass


@given(networks())
def test_any_edge_reading_claims_are_sound(net):
    from crnextinct.engine import GuaranteedExtinction, SearchConfig, analyze
    from crnextinct.forests import ANY_EDGE
    from crnextinct.oracle import explore, recurrent_complexes, states_with_total

    if not isinstance(is_subconservative(net.stoich), Feasible):
        return
    verdict = analyze(net, SearchConfig(nontriviality=ANY_EDGE))
    if not isinstance(verdict, GuaranteedExtinction):
        return
    for total in range(4):
        for root in states_with_total(net.m, total):
            alive = recurrent_complexes(net, explore(net, root))
            assert not (alive & verdict.transient)


FUZZ_VALUES = [0, -1, "0", "-1", "x", None, [], {}, 1.5, True]


def _leaf_paths(doc, path=()):
    """Paths to every scalar and every empty container of a JSON document."""
    if isinstance(doc, dict) and doc:
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return [path]
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


def _with_leaf(doc, path, value):
    """A copy of the document with the leaf at `path` replaced; the original is untouched."""
    if not path:
        return value
    head = path[0]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[head] = _with_leaf(doc[head], path[1:], value)
    return out


@pytest.fixture(scope="module")
def extinction_reports(nets):
    from crnextinct.engine import SearchConfig, analyze

    out = {}
    for name in ("example21", "envz", "intro"):
        net = nets[name]
        report = json.loads(emit_report(net, analyze(net), SearchConfig()))
        out[name] = (report, _leaf_paths(report))
    return out


@settings(max_examples=200)
@given(st.data())
def test_verify_report_survives_leaf_mutations(nets, extinction_reports, data):
    name = data.draw(st.sampled_from(sorted(extinction_reports)))
    report, paths = extinction_reports[name]
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    assert isinstance(verify_report(nets[name], _with_leaf(report, path, value)), bool)


@settings(max_examples=200)
@given(st.data())
def test_petri_import_survives_leaf_mutations(nets, data):
    doc = petri_export(nets[data.draw(st.sampled_from(FIXTURE_NAMES))])
    path = data.draw(st.sampled_from(_leaf_paths(doc)))
    mutated = _with_leaf(doc, path, data.draw(st.sampled_from(FUZZ_VALUES)))
    try:
        petri_import(mutated)
    except (PetriFormatError, ValueError):
        pass


@pytest.fixture(scope="module")
def certified(nets):
    """Every fixture's guaranteed-extinction verdict, under the default and the widened search."""
    wide = SearchConfig(dom_strategy="all-subsets", absorbing_strategy="enumerate")
    return [
        (name, cfg, verdict)
        for name in FIXTURE_NAMES
        for cfg in (SearchConfig(), wide)
        if isinstance(verdict := analyze(nets[name], cfg), GuaranteedExtinction)
    ]


def _forge(net, verdict: GuaranteedExtinction, data) -> GuaranteedExtinction:
    """The verdict with one link forged.

    Another absorbing set (the transient set its complement), a domination
    edge dropped or added, a forest choice re-pointed at another edge, or
    one Farkas multiplier moved.  A forger who can run the search may also
    take another forest of the forged expansion, or the balance LP's own
    refutation of the forged forest, so stacked forgeries can be consistent
    everywhere the verifier does not look.
    """
    cert = verdict.certificate
    kinds = ["absorbing", "drop", "add", "choice", "multiplier", "forest", "refute"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "absorbing":
        closed = enumerate_absorbing_sets(dom_graph(net, cert.dom_edges), 16)
        closed += enumerate_absorbing_sets(net.graph, 16)
        anywhere = st.frozensets(st.integers(0, net.n - 1), min_size=1)
        absorbing = data.draw(st.sampled_from(closed) | anywhere)
        transient = frozenset(range(net.n)) - absorbing
        return verdict._replace(transient=transient, certificate=cert._replace(absorbing=absorbing))
    edges = cert.dom_edges
    if kind == "drop" and edges:
        j = data.draw(st.integers(0, len(edges) - 1))
        return verdict._replace(certificate=cert._replace(dom_edges=edges[:j] + edges[j + 1 :]))
    if kind == "add":
        vertex = st.integers(0, net.n - 1)
        pair = st.builds(GraphEdge, vertex, vertex)
        fresh = [e for e in domination_set(net) if e not in edges]
        e = data.draw(st.sampled_from(fresh) | pair if fresh else pair)
        j = data.draw(st.integers(0, len(edges)))
        return verdict._replace(certificate=cert._replace(dom_edges=edges[:j] + (e,) + edges[j:]))
    choices = cert.forest.choices
    if kind == "choice" and choices:
        j = data.draw(st.integers(0, len(choices) - 1))
        y, _ = choices[j]
        v = data.draw(st.integers(0, net.r + len(edges) - 1))
        forest = cert.forest._replace(choices=choices[:j] + ((y, v),) + choices[j + 1 :])
        return verdict._replace(certificate=cert._replace(forest=forest))
    if kind in ("forest", "refute"):
        try:
            dcrn = build_dom_crn(net, edges, cert.absorbing)
        except AdmissibilityError:
            return verdict
        if kind == "forest":
            forests = list(islice(enumerate_forests(dcrn), 8))
            if forests:
                cert = cert._replace(forest=data.draw(st.sampled_from(forests)))
        elif forest_is_valid(dcrn, cert.forest):
            system = build_balancing_system(dcrn, cert.forest, cert.nontriviality)
            outcome = decide_balance(system)
            if isinstance(outcome, Unbalanced):
                cert = cert._replace(outcome=outcome)
        return verdict._replace(certificate=cert)
    witnesses = cert.outcome.witnesses
    spots = [
        (i, field, k)
        for i, (_, farkas) in enumerate(witnesses)
        for field in ("eq_mult", "ge_mult", "nonneg_mult")
        for k in range(len(getattr(farkas, field)))
    ]
    if kind != "multiplier" or not spots:
        return verdict  # nothing of that kind to forge
    i, field, k = data.draw(st.sampled_from(spots))
    cands, farkas = witnesses[i]
    mult = getattr(farkas, field)
    moved = mult[k] + data.draw(st.fractions(-3, 3).filter(bool))
    farkas = farkas._replace(**{field: mult[:k] + (moved,) + mult[k + 1 :]})
    outcome = Unbalanced(witnesses[:i] + ((cands, farkas),) + witnesses[i + 1 :])
    return verdict._replace(certificate=cert._replace(outcome=outcome))


@pytest.fixture(scope="module")
def oracle_witnesses() -> dict:
    """find_recurrent_witness at budget 4, per (fixture, transient set) asked so far."""
    return {}


@settings(max_examples=150)
@given(st.data())
def test_every_forged_report_that_verifies_makes_a_true_claim(nets, certified, oracle_witnesses, data):
    name, cfg, verdict = data.draw(st.sampled_from(certified))
    net = nets[name]
    for _ in range(data.draw(st.integers(1, 4))):
        verdict = _forge(net, verdict, data)
    if verify_report(net, json.loads(emit_report(net, verdict, cfg))):
        key = name, verdict.transient
        if key not in oracle_witnesses:
            oracle_witnesses[key] = find_recurrent_witness(net, verdict.transient, budget=4)
        assert oracle_witnesses[key] is None
