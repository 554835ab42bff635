"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All engine results are exact rational arithmetic, so comparisons are
equalities; the only tolerances are the stated wall-clock budgets.
"""

import functools
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from crnextinct.domination import (
    AdmissibilityError,
    build_dom_crn,
    check_slc_coincidence,
    dom_graph,
    domination_set,
    maximal_admissible,
)
from crnextinct.engine import (
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchConfig,
    analyze,
    verify_verdict,
)
from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    check_feasible,
    solve_feasibility,
)
from crnextinct.forests import (
    Balanced,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
)
from crnextinct.graphs import (
    GraphEdge,
    linkage_classes,
    strong_linkage_classes,
    terminal_slcs,
)
from crnextinct.invariants import conservation_system, is_conservative, is_subconservative
from crnextinct.oracle import (
    explore,
    extinction_on,
    find_recurrent_witness,
    guaranteed_extinction_on,
    recurrent_complexes,
    recurrent_states,
    states_with_total,
)
from crnextinct.parser import format_network, parse_crn
from crnextinct.petri import petri_export, petri_import

from cone_reference import nonneg_kernel_generators, p_invariants, t_invariants
from fraction_lp import dense_system
from forests_reference import verify_balance_outcome
from conftest import (
    FIXTURE_DIR,
    FIXTURE_NAMES,
    complex_names,
    name_to_index,
    random_subconservative,
    state_of,
)
from oracle_reference import slc_recurrence_report

RANDOM_SEED = 20260810
RANDOM_COUNT = 200


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL ({time.time() - start:.1f}s): {label}")
                raise
            print(f"criterion {number:02d} PASS ({time.time() - start:.1f}s): {label}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def random_suite():
    return random_subconservative(RANDOM_SEED, RANDOM_COUNT)


@pytest.fixture(scope="module")
def extinction_verdicts(nets):
    cases = {
        name: analyze(nets[name]) for name in ("intro", "example21", "example999", "envz")
    }
    net000 = nets["example000"]
    names = name_to_index(net000)
    cases["example000"] = analyze(
        net000,
        SearchConfig(
            absorbing_strategy="explicit",
            explicit_absorbing=frozenset(
                {names["X2 + X3"], names["2 X3"], names["2 X2"]}
            ),
        ),
    )
    for name, verdict in cases.items():
        assert isinstance(verdict, GuaranteedExtinction), name
    return cases


@criterion(1, "structural fixtures reproduce printed classes, matrices, verdicts")
def test_criterion_01_structural(nets):
    start = time.time()
    net21 = nets["example21"]
    g21 = net21.graph
    assert linkage_classes(g21) == [frozenset({0, 1}), frozenset({2, 3})]
    assert strong_linkage_classes(g21) == [frozenset({0, 1}), frozenset({2}), frozenset({3})]
    assert terminal_slcs(g21) == [frozenset({0, 1}), frozenset({3})]
    # per the definition (column = target - source); the worked balance display
    # and the incidence matrix print this matrix, the in-text display flips one sign
    assert net21.stoich == ((-1, 1, 1), (1, -1, -1))
    cons = is_conservative(net21.stoich)
    assert isinstance(cons, Feasible) and cons.witness == (Fraction(1), Fraction(1))
    assert time.time() - start < 1.0

    start = time.time()
    net22 = nets["example22"]
    assert net22.stoich == ((-1, 2), (2, -1))
    assert isinstance(is_conservative(net22.stoich), Farkas)
    assert isinstance(is_subconservative(net22.stoich), Farkas)
    assert time.time() - start < 1.0

    start = time.time()
    net23 = nets["example23"]
    assert net23.stoich == ((0, -1, 1), (-1, 1, -1))
    assert isinstance(is_conservative(net23.stoich), Farkas)
    sub = is_subconservative(net23.stoich)
    assert isinstance(sub, Feasible) and sub.witness == (Fraction(1), Fraction(1))
    assert time.time() - start < 1.0


@criterion(2, "domination sets, admissibility, and SLC-coincidence checks")
def test_criterion_02_domination(nets):
    assert [(e.src, e.dst) for e in domination_set(nets["example21"])] == [
        (0, 2),
        (0, 3),
        (1, 2),
    ]
    assert [(e.src, e.dst) for e in domination_set(nets["example22"])] == [(1, 2), (3, 0)]
    assert [(e.src, e.dst) for e in domination_set(nets["example23"])] == [(0, 1), (0, 2)]

    net21 = nets["example21"]
    with pytest.raises(AdmissibilityError) as err:
        build_dom_crn(net21, domination_set(net21), {3})
    assert (err.value.edge.src, err.value.edge.dst) == (0, 3)
    accepted = build_dom_crn(
        net21, [GraphEdge(0, 2), GraphEdge(1, 2)], {3}
    )
    assert accepted.absorbing == frozenset({3})

    for name in FIXTURE_NAMES:
        net = nets[name]
        if isinstance(is_subconservative(net.stoich), Farkas):
            continue
        dcrn = maximal_admissible(net)
        for edges in (dcrn.dom_edges, (), tuple(domination_set(net))):
            assert check_slc_coincidence(net.graph, dom_graph(net, edges)) == (), name

    # the coincidence law needs subconservativity: example22's full expansion
    # merges its four complexes into one (terminal) class
    net22 = nets["example22"]
    full22 = dom_graph(net22, domination_set(net22))
    assert strong_linkage_classes(full22) == [frozenset({0, 1, 2, 3})]
    assert check_slc_coincidence(net22.graph, full22) == (frozenset({0, 1, 2, 3}),)


@criterion(3, "balance fixtures: published vectors verify, refutations audit")
def test_criterion_03_balance(nets):
    net21 = nets["example21"]
    dcrn = build_dom_crn(net21, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})
    left, right, *_ = enumerate_forests(dcrn)

    left_sys = build_balancing_system(dcrn, left)
    left_out = decide_balance(left_sys)
    assert isinstance(left_out, Balanced)
    assert verify_balance_outcome(dcrn, left, left_out)
    assert verify_balance_outcome(dcrn, left, Balanced((1, 0, 1, 0, 1)))
    assert left_sys.support == (0, 2, 4)  # (C1): reaction 2 and D1 have no variable

    right_out = decide_balance(build_balancing_system(dcrn, right))
    assert isinstance(right_out, Unbalanced) and right_out.witnesses
    assert verify_balance_outcome(dcrn, right, right_out)

    net999 = nets["example999"]
    d999 = maximal_admissible(net999)
    forest999 = next(enumerate_forests(d999))
    out999 = decide_balance(build_balancing_system(d999, forest999))
    assert isinstance(out999, Unbalanced)
    assert verify_balance_outcome(d999, forest999, out999)
    gamma = net999.stoich
    relaxation = dense_system(
        3,
        eq=tuple(
            [((0, 1, 0), 0)]
            + [(row, 0) for row in gamma]
        ),
    )
    assert check_feasible(relaxation, (2, 0, 1))

    net000 = nets["example000"]
    d000 = maximal_admissible(net000)
    forest000 = next(enumerate_forests(d000))
    out000 = decide_balance(build_balancing_system(d000, forest000))
    assert isinstance(out000, Balanced)
    assert verify_balance_outcome(d000, forest000, Balanced((0, 2, 1, 0)))
    names = name_to_index(net000)
    verdict = analyze(
        net000,
        SearchConfig(
            absorbing_strategy="explicit",
            explicit_absorbing=frozenset(
                {names["X2 + X3"], names["2 X3"], names["2 X2"]}
            ),
        ),
    )
    assert isinstance(verdict, GuaranteedExtinction)
    assert complex_names(net000, verdict.transient) == ["2 X1"]


ENVZ_GENERATORS = sorted(
    [
        (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0),
        (0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1),
    ]
)


@criterion(4, "signaling pathway: generators, extinction verdict, oracle absorption")
def test_criterion_04_envz(nets):
    net = nets["envz"]
    rays = nonneg_kernel_generators(net.stoich)
    assert sorted(rays) == ENVZ_GENERATORS

    start = time.time()
    verdict = analyze(net)
    analyze_elapsed = time.time() - start
    assert isinstance(verdict, GuaranteedExtinction)
    names = name_to_index(net)
    assert verdict.transient == frozenset(range(net.n)) - {names["X4"]}
    assert verify_verdict(net, verdict)
    assert analyze_elapsed < 10.0

    # all initial states with both conserved pools at most 3
    enzyme = state_of(net, X1=1, X2=1, X3=1, X4=1, X6=1, X8=1, X9=1)
    ompr = state_of(net, X5=1, X6=1, X7=1, X8=1, X9=1)
    start = time.time()
    roots = [
        s
        for s in product(range(4), repeat=net.m)
        if sum(a * b for a, b in zip(enzyme, s)) <= 3
        and sum(a * b for a, b in zip(ompr, s)) <= 3
    ]
    target = frozenset(range(net.n)) - {names["X4"]}
    for root in roots:
        g = explore(net, root)
        assert extinction_on(net, g, target), root
        e = sum(a * b for a, b in zip(enzyme, root))
        o = sum(a * b for a, b in zip(ompr, root))
        if e >= 1:
            absorbed = [g.states[i] for i, f in enumerate(recurrent_states(g)) if f]
            assert absorbed == [state_of(net, X4=e, X7=o)], root
    sweep_elapsed = time.time() - start
    assert sweep_elapsed < 60.0


@criterion(5, "sufficient-but-not-necessary pair behaves as published")
def test_criterion_05_sufficiency_gap(nets):
    net100 = nets["example100"]
    assert isinstance(analyze(net100), Inconclusive)
    names100 = name_to_index(net100)
    # the guaranteed event lives on the two complexes needing the fourth
    # species; their complement is not absorbing, so no certificate can exist
    extinct = {names100["X3 + X4"], names100["X1 + X4"]}
    assert guaranteed_extinction_on(net100, extinct, budget=6)
    # the base-level nonterminal complexes stay recurrent from a state with
    # no fourth species, so extinction is NOT guaranteed on them
    g = explore(net100, state_of(net100, X2=1, X3=1))
    nonterminal = {names100["X1"], names100["X2 + X3"]}
    assert not extinction_on(net100, g, nonterminal)

    net101 = nets["example101"]
    assert isinstance(analyze(net101), Inconclusive)
    names101 = name_to_index(net101)
    nonterm101 = {names101["X1"], names101["X2 + X4"]}
    assert not guaranteed_extinction_on(net101, nonterm101, budget=6)
    witness = find_recurrent_witness(net101, nonterm101, budget=6)
    assert witness is not None
    root, ci = witness
    g101 = explore(net101, root)
    assert ci in recurrent_complexes(net101, g101)
    # from a well-provisioned state every complex recurs
    g_full = explore(net101, state_of(net101, X1=1, X4=1, X5=1))
    assert recurrent_complexes(net101, g_full) == frozenset(range(net101.n))


@criterion(6, "theorem consistency over 200 random subconservative networks")
def test_criterion_06_random_consistency(random_suite):
    start = time.time()
    soundness_checked = 0
    for net in random_suite:
        verdict = analyze(net)
        assert not isinstance(verdict, NotApplicable)
        if isinstance(verdict, Inconclusive):
            # every examined forest was balanced, so the structural claim is
            # consistent with any oracle outcome
            assert verdict.stats.balanced == verdict.stats.forests
            continue
        assert verify_verdict(net, verdict)
        # soundness: extinction on the claimed transient complexes from every
        # initial state with totals <= 6, i.e. no complex outside the
        # absorbing set is recurrent from any of those states
        witness = find_recurrent_witness(net, verdict.transient, budget=6)
        assert witness is None, witness
        soundness_checked += 1
    elapsed = time.time() - start
    assert soundness_checked > 0
    assert elapsed < 300.0


@criterion(7, "certificate audits pass and every corruption probe fails")
def test_criterion_07_certificate_audit(nets, extinction_verdicts):
    def probes(verdict):
        cert = verdict.certificate
        n = len(cert.subconservation)
        c_zero = tuple([Fraction(0)] + list(cert.subconservation[1:]))
        c_neg = tuple([-cert.subconservation[0]] + list(cert.subconservation[1:]))
        yield verdict._replace(certificate=cert._replace(subconservation=c_zero))
        yield verdict._replace(certificate=cert._replace(subconservation=c_neg))
        smaller = frozenset(sorted(cert.absorbing)[1:]) if len(cert.absorbing) > 1 else frozenset()
        yield verdict._replace(certificate=cert._replace(absorbing=smaller))
        extra = next(i for i in sorted(verdict.transient))
        yield verdict._replace(certificate=cert._replace(absorbing=cert.absorbing | {extra}))
        yield verdict._replace(transient=verdict.transient - {next(iter(verdict.transient))})
        forest = cert.forest
        yield verdict._replace(
            certificate=cert._replace(forest=forest._replace(choices=forest.choices[1:])),
        )
        y0, _ = forest.choices[0]
        bogus = ((y0, 10**6),) + forest.choices[1:]
        yield verdict._replace(certificate=cert._replace(forest=forest._replace(choices=bogus)))
        out = cert.outcome
        yield verdict._replace(certificate=cert._replace(outcome=Unbalanced(out.witnesses[1:])))
        cands0, farkas0 = out.witnesses[0]
        zeroed = Farkas(
            tuple(Fraction(0) for _ in farkas0.eq_mult),
            tuple(Fraction(0) for _ in farkas0.ge_mult),
            tuple(Fraction(0) for _ in farkas0.nonneg_mult),
        )
        yield verdict._replace(
            certificate=cert._replace(outcome=Unbalanced(((cands0, zeroed),) + out.witnesses[1:])),
        )
        flipped = Farkas(
            farkas0.eq_mult,
            tuple([-farkas0.ge_mult[0] - 1] + list(farkas0.ge_mult[1:])),
            farkas0.nonneg_mult,
        )
        yield verdict._replace(
            certificate=cert._replace(outcome=Unbalanced(((cands0, flipped),) + out.witnesses[1:])),
        )

    for name, verdict in extinction_verdicts.items():
        net = nets[name]
        assert verify_verdict(net, verdict), name
        count = 0
        for mutated in probes(verdict):
            assert mutated != verdict
            assert not verify_verdict(net, mutated), (name, count)
            count += 1
        assert count == 10, name


@criterion(8, "SLC recurrence laws hold on fixtures and the random suite")
def test_criterion_08_slc_recurrence_laws(nets, random_suite):
    fixture_roots = {
        "intro": [(1, 1), (3, 0), (2, 2)],
        "example21": [(1, 1), (2, 1)],
        "example23": [(1, 1), (2, 2)],
        "example999": [(2, 0), (1, 1), (2, 2)],
        "example000": [(2, 0, 0), (1, 1, 1), (0, 2, 2)],
        "example001": [(2, 1, 0), (1, 1, 1)],
        "example100": [(1, 1, 1, 1), (0, 1, 1, 0)],
        "example101": [(1, 1, 1, 1, 1)],
        "envz": [state_of(nets["envz"], X1=1, X5=1), state_of(nets["envz"], X2=1, X5=2)],
    }
    for name, roots in fixture_roots.items():
        net = nets[name]
        for root in roots:
            slc_recurrence_report(net, explore(net, root))
    for net in random_suite:
        for total in range(5):
            for root in states_with_total(net.m, total):
                slc_recurrence_report(net, explore(net, root))


@criterion(9, "verdicts invariant under row scaling; witness scaling round-trips")
def test_criterion_09_exactness(nets):
    def scale_system(system, factor_seq):
        def scaled(rows, offset):
            out = []
            for i, (entries, rhs) in enumerate(rows):
                s = factor_seq[(offset + i) % len(factor_seq)]
                out.append((tuple((j, s * c) for j, c in entries), s * rhs))
            return tuple(out)

        return LinearSystem(system.n, scaled(system.eq, 0), scaled(system.ge, 2))

    factors = [2, 3, 5, 7, 11]
    for name in FIXTURE_NAMES:
        gamma = nets[name].stoich
        for equality in (True, False):
            base = conservation_system(gamma, equality=equality)
            scaled = scale_system(base, factors)
            a = solve_feasibility(base)
            b = solve_feasibility(scaled)
            assert isinstance(a, Farkas) == isinstance(b, Farkas), name
            if not isinstance(a, Farkas):
                assert check_feasible(scaled, a.witness)
                assert check_feasible(base, b.witness)

    net21 = nets["example21"]
    dcrn = build_dom_crn(net21, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})
    for forest in enumerate_forests(dcrn):
        system = build_balancing_system(dcrn, forest)
        for cand in system.candidates:
            base = system.linear_system((cand,))
            scaled = scale_system(base, factors)
            assert isinstance(solve_feasibility(base), Farkas) == isinstance(
                solve_feasibility(scaled), Farkas
            )

    # rational witnesses scale to integers and back without loss
    from crnextinct.exactlp import lexmin

    left = next(enumerate_forests(dcrn))
    sys_left = build_balancing_system(dcrn, left).linear_system((0,))
    rational = lexmin(sys_left)
    assert isinstance(rational, Feasible)
    lcm = 1
    for value in rational.witness:
        lcm = lcm * value.denominator // gcd(lcm, value.denominator)
    integers = [int(v * lcm) for v in rational.witness]
    assert [Fraction(i, lcm) for i in integers] == list(rational.witness)
    assert check_feasible(sys_left, integers)
    assert check_feasible(sys_left, rational.witness)


@criterion(10, "parser and Petri round trips; printed incidence data reproduced")
def test_criterion_10_io(nets):
    for name in FIXTURE_NAMES:
        text = (FIXTURE_DIR / f"{name}.crn").read_text(encoding="utf-8")
        doc = parse_crn(text)
        normalized = format_network(doc.network)
        again = parse_crn(normalized)
        assert format_network(again.network) == normalized, name
        net = doc.network
        back = petri_import(petri_export(net))
        assert back.species_names == net.species_names, name
        assert back.stoich == net.stoich, name
        assert [c.coeffs for c in back.complexes] == [c.coeffs for c in net.complexes]

    gamma = nets["example21"].stoich
    assert gamma == ((-1, 1, 1), (1, -1, -1))
    assert p_invariants(gamma) == ((1, 1),)
    assert sorted(t_invariants(gamma)) == [(1, 0, 1), (1, 1, 0)]
