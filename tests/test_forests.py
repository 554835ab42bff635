import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from crnextinct import forests
from crnextinct.domination import (
    DomCRN,
    build_dom_crn,
    dom_graph,
    maximal_admissible,
)
from crnextinct.engine import GuaranteedExtinction, SearchConfig, analyze
from crnextinct.exactlp import check_feasible, solve_feasibility
from crnextinct.forests import (
    ANY_EDGE,
    Balanced,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    edge_label,
    enumerate_forests,
    forest_is_valid,
    subconservation_refutation,
    subconservation_slack,
)
from crnextinct.graphs import GraphEdge
from crnextinct.parser import parse_crn
from crnextinct.report import emit_report, verify_report

from conftest import (
    FIXTURE_DIR,
    adv_text,
    chain_text,
    random_network,
    reversible_chain_text,
    strict_subconservation,
    subprocess_env,
)
from forests_reference import (
    path_walk_forest_is_valid,
    recursive_forests,
    verify_balance_outcome,
)
from search_reference import candidate_pairs
from fraction_lp import dense_system


@pytest.fixture()
def example33(nets):
    net = nets["example21"]
    return build_dom_crn(net, [GraphEdge(0, 2), GraphEdge(1, 2)], {3})


def _labels(dcrn, forest):
    return [edge_label(v, dcrn.net.r) for _, v in forest.choices]


def test_enumerate_forests_example33(example33):
    forests = list(enumerate_forests(example33))
    assert [_labels(example33, f) for f in forests] == [
        ["1", "D2", "3"],
        ["D1", "2", "3"],
        ["D1", "D2", "3"],
    ]
    for forest in forests:
        assert forest_is_valid(example33, forest)


def test_forest_lists_each_exterior_complex_once_in_order(example33):
    forest = next(enumerate_forests(example33))
    (y0, e0), (y1, e1), (y2, e2) = forest.choices
    # a second choice for one complex would add a flow row and a candidate
    (_, other), *_ = next(islice(enumerate_forests(example33), 1, None)).choices
    repeated = forest._replace(choices=((y0, e0), (y0, other), (y1, e1), (y2, e2)))
    swapped = forest._replace(choices=((y1, e1), (y0, e0), (y2, e2)))
    for bad in (repeated, swapped):
        assert not forest_is_valid(example33, bad), bad.choices


def test_enumerate_forests_all_interior(nets):
    net = nets["example999"]
    dcrn = build_dom_crn(net, [], {0, 1, 2})
    (forest,) = enumerate_forests(dcrn)
    assert forest.choices == ()
    assert forest.interior == (0, 1, 2)


def test_enumerate_forests_example999(nets):
    dcrn = maximal_admissible(nets["example999"])
    (forest,) = enumerate_forests(dcrn)
    assert _labels(dcrn, forest) == ["1", "3"]


def test_enumeration_is_lazy(example33):
    stream = enumerate_forests(example33)
    assert _labels(example33, next(stream)) == ["1", "D2", "3"]
    # the forests not taken are still there, in order
    assert [_labels(example33, f) for f in stream] == [["D1", "2", "3"], ["D1", "D2", "3"]]


def test_enumerate_chain_1500_without_recursion():
    # 1,500 exterior complexes in one path: one generator frame per complex,
    # as the recursive walk takes, is past the default recursion limit
    net = parse_crn(chain_text(1500)).network
    dcrn = build_dom_crn(net, [], {net.n - 1})
    (forest,) = enumerate_forests(dcrn)
    assert forest.choices == tuple((k, k) for k in range(1500))
    assert forest_is_valid(dcrn, forest)
    with pytest.raises(RecursionError):
        next(recursive_forests(dcrn))


def test_a_dead_prefix_is_skipped_by_a_binary_search(monkeypatch):
    # adv k has one dead end: with A -> Z chosen, Z's only option closes
    # the cycle A -> Z -> A.  The walk meets it at Z, the last exterior
    # position, once; a binary search finds that no forest keeps the first
    # two choices (S -> A, A -> Z), and the walk goes on with A -> T1,
    # each Ci from its first option again, instead of trying the 2^k
    # choices of the Ci first
    small = maximal_admissible(parse_crn(adv_text(4)).network)
    assert list(enumerate_forests(small)) == list(recursive_forests(small))
    lengths = []
    completable = forests._completable

    def counted(*args):
        lengths.append(args[-1])
        assert len(lengths) <= 20, "more probes than adv 40's one dead end takes"
        return completable(*args)

    monkeypatch.setattr(forests, "_completable", counted)
    net = parse_crn(adv_text(40)).network
    verdict = analyze(net)
    assert isinstance(verdict, GuaranteedExtinction) and verdict.stats.forests == 1
    # S -> A, A -> T1, C0 -> T1
    assert verdict.certificate.forest.choices[:3] == ((0, 0), (1, 82), (2, 1))
    assert lengths == [21, 10, 5, 2, 1]


def test_balancing_system_example35_left(example33):
    forest = next(enumerate_forests(example33))
    system = build_balancing_system(example33, forest)
    # the unused reaction 2 and domination edge D1 have no variable: the
    # variables are reactions 1 and 3 and D2, and the rows index them 0, 1, 2
    assert system.n_edges == 5 and system.support == (0, 2, 4)
    assert system.kernel_rows == (((0, -1), (1, 1)), ((0, 1), (1, -1)))
    assert system.flow_rows == ((0, ()), (2, (0,)), (1, (2,)))
    assert system.candidates == (0, 2)
    assert system.linear_system((2,)).ge[-1] == (((1, 1),), 1)


def test_balancing_system_example999(nets):
    dcrn = maximal_admissible(nets["example999"])
    forest = next(enumerate_forests(dcrn))
    system = build_balancing_system(dcrn, forest)
    # reaction 2 is off the forest, so the support is reactions 1 and 3
    assert system.n_edges == 3 and system.support == (0, 2)
    assert system.kernel_rows == (((0, 1), (1, -2)), ((0, -1), (1, 2)))
    assert system.flow_rows == ((0, ()), (1, (0,)))
    assert system.candidates == (0, 2)


def test_balancing_system_empty_exterior(nets):
    dcrn = build_dom_crn(nets["example999"], [], {0, 1, 2})
    forest = next(enumerate_forests(dcrn))
    system = build_balancing_system(dcrn, forest)
    assert system.flow_rows == () and system.candidates == ()
    assert isinstance(decide_balance(system), Unbalanced)


def test_decide_balance_left_forest(example33):
    forest = next(enumerate_forests(example33))
    system = build_balancing_system(example33, forest)
    outcome = decide_balance(system)
    assert isinstance(outcome, Balanced)
    assert outcome.alpha == (1, 0, 1, 0, 1)
    assert verify_balance_outcome(example33, forest, outcome)
    # the published balancing vector passes the same audit, and over the
    # support it is the vector of the system's three variables
    assert verify_balance_outcome(example33, forest, Balanced((1, 0, 1, 0, 1)))
    assert check_feasible(system.linear_system((0,)), system.on_support((1, 0, 1, 0, 1)))


def test_decide_balance_one_lp_per_candidate(example33, monkeypatch):
    # the first candidate is feasible: one phase 1 decides it and gives alpha
    from crnextinct import exactlp

    calls = []
    phase1 = exactlp._phase1

    def counted(system):
        calls.append(system)
        return phase1(system)

    monkeypatch.setattr(exactlp, "_phase1", counted)
    forest = next(enumerate_forests(example33))
    outcome = decide_balance(build_balancing_system(example33, forest))
    assert isinstance(outcome, Balanced) and len(calls) == 1


def test_decide_balance_one_phase1_per_forest(example33, monkeypatch):
    # both candidates are infeasible: the summed candidate row refutes them at once
    from crnextinct import exactlp

    calls = []
    phase1 = exactlp._phase1

    def counted(system):
        calls.append(system)
        return phase1(system)

    monkeypatch.setattr(exactlp, "_phase1", counted)
    forest = list(enumerate_forests(example33))[1]
    outcome = decide_balance(build_balancing_system(example33, forest))
    assert isinstance(outcome, Unbalanced)
    assert [cands for cands, _ in outcome.witnesses] == [(1, 2)]
    assert len(calls) == 1


def test_decide_balance_right_forest(example33):
    forest = list(enumerate_forests(example33))[1]
    outcome = decide_balance(build_balancing_system(example33, forest))
    assert isinstance(outcome, Unbalanced)
    assert [cands for cands, _ in outcome.witnesses] == [(1, 2)]
    assert verify_balance_outcome(example33, forest, outcome)
    # the covered sets, joined in order, must be exactly the candidates
    (_, farkas), = outcome.witnesses
    for cands in ((1,), (2,), (2, 1), (1, 2, 2), (0, 1, 2), ()):
        doctored = Unbalanced(((cands, farkas),))
        assert not verify_balance_outcome(example33, forest, doctored), cands


def test_decide_balance_example999(nets):
    dcrn = maximal_admissible(nets["example999"])
    forest = next(enumerate_forests(dcrn))
    outcome = decide_balance(build_balancing_system(dcrn, forest))
    assert isinstance(outcome, Unbalanced)
    assert verify_balance_outcome(dcrn, forest, outcome)
    # dropping the flow rows leaves the kernel system, satisfied by (2, 0, 1)
    gamma = nets["example999"].stoich
    relaxed = dense_system(
        3,
        eq=tuple([((0, 1, 0), 0)] + [(r, 0) for r in gamma]),
    )
    assert check_feasible(relaxed, (2, 0, 1))


def test_verify_rejects_corruption(example33):
    # each corruption fails the system's audit and so verify_balance_outcome,
    # which is the forest check plus that audit
    forest = next(enumerate_forests(example33))
    system = build_balancing_system(example33, forest)
    good = decide_balance(system)
    assert system.audit(good) and verify_balance_outcome(example33, forest, good)
    scaled = tuple(Fraction(3, 2) * a for a in good.alpha)
    corrupted = [
        Balanced(alpha=(1, 0, 0, 0, 1)),
        Balanced((0, 0, 0, 0, 0)),  # zero on every candidate: only the candidate row fails
        # weight off the support: reaction 2 and D1 carry no variable, so only
        # the explicit check sees it (the system over the support is still
        # satisfied)
        Balanced((1, 1, 1, 0, 1)),
        Balanced((1, 0, 1, 1, 1)),
        Balanced((1, 0, 1, 0)),  # too narrow
        Balanced((1, 0, 1, 0, 1, 0)),  # too wide
        Balanced(scaled),  # feasible, but not integral
        good.alpha,  # not an outcome
    ]
    for alpha in ((1, 1, 1, 0, 1), (1, 0, 1, 1, 1), scaled):
        assert check_feasible(system.linear_system((0,)), system.on_support(alpha))
    for outcome in corrupted:
        assert not system.audit(outcome), outcome
        assert not verify_balance_outcome(example33, forest, outcome), outcome
    # the right forest's one refutation covers its candidates (1, 2); witness
    # sets that miss one, or cover them twice with refutations that each
    # hold, are rejected
    right = list(enumerate_forests(example33))[1]
    system = build_balancing_system(example33, right)
    refuted = decide_balance(system)
    (cands, farkas), = refuted.witnesses
    assert cands == (1, 2) and system.audit(refuted)
    for witnesses in ((((1,), farkas),), ((cands, farkas), (cands, farkas))):
        assert not system.audit(Unbalanced(witnesses)), witnesses
        assert not verify_balance_outcome(example33, right, Unbalanced(witnesses)), witnesses


def test_nontriviality_readings(nets):
    # inadmissible expansion built directly: its only forest routes the
    # nonterminal pair through a domination edge
    net = nets["example001"]
    dcrn = DomCRN(net, dom_graph(net, (GraphEdge(1, 2),)), frozenset({2, 3}))
    forest = next(enumerate_forests(dcrn))
    assert _labels(dcrn, forest) == ["1", "D1"]
    strict = decide_balance(build_balancing_system(dcrn, forest))
    assert isinstance(strict, Unbalanced)
    wide = decide_balance(build_balancing_system(dcrn, forest, nontriviality=ANY_EDGE))
    assert isinstance(wide, Balanced) and wide.alpha[4] > 0
    with pytest.raises(ValueError):
        build_balancing_system(dcrn, forest, nontriviality="bogus")


def test_example000_explicit_absorbing(nets):
    net = nets["example000"]
    dcrn = build_dom_crn(net, [], {1, 2, 3})
    forest = next(enumerate_forests(dcrn))
    assert _labels(dcrn, forest) == ["1"] and forest.interior == (1, 2, 3)
    outcome = decide_balance(build_balancing_system(dcrn, forest))
    assert isinstance(outcome, Unbalanced)
    assert verify_balance_outcome(dcrn, forest, outcome)


def test_example000_terminal_balanced(nets):
    net = nets["example000"]
    dcrn = maximal_admissible(net)
    forest = next(enumerate_forests(dcrn))
    system = build_balancing_system(dcrn, forest)
    outcome = decide_balance(system)
    assert isinstance(outcome, Balanced)
    assert verify_balance_outcome(dcrn, forest, Balanced((0, 2, 1, 0)))


@pytest.mark.parametrize(
    "alpha",
    [
        (0, "x", 1, 0),
        (0, None, 1, 0),
        (0, float("nan"), 1, 0),
        (0, 2.0, 1, 0),
        (0, Fraction(2), 1, 0),
        (0, 2, True, 0),
    ],
    ids=["str", "None", "nan", "float", "Fraction", "bool"],
)
def test_audit_reads_an_alpha_entry_that_is_no_int_as_false(nets, alpha):
    # example000's first forest is balanced by (0, 2, 1, 0) at edge 1; with
    # one entry that is not an int the audit says False and raises nothing
    dcrn = maximal_admissible(nets["example000"])
    forest = next(enumerate_forests(dcrn))
    system = build_balancing_system(dcrn, forest)
    assert system.audit(Balanced((0, 2, 1, 0)))
    assert system.audit(Balanced(alpha)) is False
    assert verify_balance_outcome(dcrn, forest, Balanced(alpha)) is False


AUDITS_UNDER_O = """
import sys
from crnextinct import exactlp, forests
from crnextinct.domination import maximal_admissible
from crnextinct.parser import parse_crn

print("optimize", sys.flags.optimize)
dcrn = maximal_admissible(parse_crn(open(sys.argv[1]).read()).network)
system = forests.build_balancing_system(dcrn, next(forests.enumerate_forests(dcrn)))
feasible = exactlp.LinearSystem(1, eq=((((0, 1),), 1),))
for module, decide in ((forests, lambda: forests.decide_balance(system)),
                       (exactlp, lambda: exactlp.solve_feasibility(feasible))):
    real, module.check_feasible = module.check_feasible, lambda *args: False
    try:
        print("returned", decide())
    except AssertionError as exc:
        print("raised", exc)
    module.check_feasible = real
"""


def test_self_audits_survive_python_O():
    # example000's first forest is balanced; with its audit failing, both the
    # solver's and decide_balance's self-audit must still raise under -O
    done = subprocess.run(
        [sys.executable, "-O", "-c", AUDITS_UNDER_O, str(FIXTURE_DIR / "example000.crn")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "optimize 1",
        "raised internal error: mapped balancing vector fails its audit",
        "raised internal error: produced point fails its own audit",
    ]


def test_monotone_in_candidates(example33):
    # widening the candidate set can only flip unbalanced -> balanced
    net = example33.net
    for forest in enumerate_forests(example33):
        strict = decide_balance(build_balancing_system(example33, forest))
        wide = decide_balance(
            build_balancing_system(example33, forest, nontriviality=ANY_EDGE)
        )
        if isinstance(strict, Balanced):
            assert isinstance(wide, Balanced)


def test_envz_paper_forest_unbalanced(nets):
    # the forest highlighted in the worked signaling-pathway example
    net = nets["envz"]
    dcrn = maximal_admissible(net)
    by_pair = {(e.src, e.dst): j for j, e in enumerate(dcrn.dom_edges)}
    name = {i: c for i, c in enumerate(net.complexes)}
    from crnextinct.model import format_complex

    idx = {
        format_complex(c, net.species_names): i for i, c in enumerate(net.complexes)
    }
    choices = []
    for cname, v in [
        ("X1", 0),
        ("X2", 2),
        ("X3", 4),
        ("X4 + X5", 5),
        ("X6", 7),
        ("X2 + X7", net.r + by_pair[(idx["X2 + X7"], idx["X2"])]),
        ("X3 + X7", net.r + by_pair[(idx["X3 + X7"], idx["X3"])]),
        ("X8", 9),
        ("X3 + X5", net.r + by_pair[(idx["X3 + X5"], idx["X3"])]),
        ("X1 + X7", net.r + by_pair[(idx["X1 + X7"], idx["X1"])]),
        ("X9", 12),
        ("X1 + X5", net.r + by_pair[(idx["X1 + X5"], idx["X1"])]),
    ]:
        choices.append((idx[cname], v))
    from crnextinct.forests import ExteriorForest, interior_reactions

    forest = ExteriorForest(
        choices=tuple(sorted(choices)), interior=interior_reactions(dcrn)
    )
    assert forest_is_valid(dcrn, forest)
    outcome = decide_balance(build_balancing_system(dcrn, forest))
    assert isinstance(outcome, Unbalanced)
    assert verify_balance_outcome(dcrn, forest, outcome)


def _corrupted(dcrn, forest):
    """(kind, forest) for every one-choice change, drop and repeat of a valid forest."""
    edges = dcrn.graph.edges
    choices = forest.choices
    for i, (y, v) in enumerate(choices):
        for w in range(-2, len(edges) + 2):
            if w == v:
                continue
            if not 0 <= w < len(edges):
                kind = "edge index out of range"
            elif edges[w].src != y:
                kind = "wrong source"
            elif edges[w].dst == y:
                kind = "self-loop"
            else:
                kind = "other choice"  # valid, or an exterior cycle
            yield kind, forest._replace(choices=choices[:i] + ((y, w),) + choices[i + 1 :])
        yield "missing complex", forest._replace(choices=choices[:i] + choices[i + 1 :])
        yield "repeated complex", forest._replace(choices=choices[: i + 1] + choices[i:])


def test_forest_is_valid_matches_the_path_walk():
    wide = SearchConfig(
        dom_strategy="all-subsets", absorbing_strategy="enumerate", dom_cap=4, absorbing_cap=4
    )
    rng = random.Random(2017)
    seen = Counter()
    for _ in range(60):
        net = random_network(rng)
        for dcrn in islice(candidate_pairs(net, wide), 6):
            for forest in islice(enumerate_forests(dcrn), 4):
                assert forest_is_valid(dcrn, forest)
                assert path_walk_forest_is_valid(dcrn, forest)
                for kind, bad in _corrupted(dcrn, forest):
                    want = path_walk_forest_is_valid(dcrn, bad)
                    assert forest_is_valid(dcrn, bad) == want, (kind, bad)
                    seen[kind, want] += 1
    for kind in ("edge index out of range", "wrong source", "missing complex", "repeated complex"):
        assert seen[kind, False] and not seen[kind, True], kind
    assert seen["other choice", True] and seen["other choice", False]  # the latter: cycles
    assert seen["self-loop", False] and not seen["self-loop", True]


def test_forest_is_valid_rejects_an_exterior_cycle():
    # A -> B, B -> A, B -> C: choosing both reactions between A and B cycles
    net = parse_crn("A -> B\nB -> A\nB -> C\n").network
    dcrn = build_dom_crn(net, [], {2})
    forest = next(enumerate_forests(dcrn))
    assert forest.choices == ((0, 0), (1, 2))
    cycle = forest._replace(choices=((0, 0), (1, 1)))
    assert not forest_is_valid(dcrn, cycle)
    assert not path_walk_forest_is_valid(dcrn, cycle)
    # an interior that is not the absorbing set's reactions
    assert not forest_is_valid(dcrn, forest._replace(interior=(1,)))


def test_cyclic_flow_rows_raise():
    # choosing both reactions between A and B: each flow row's out-edge is
    # the other's in-edge, so no forest coordinates exist
    net = parse_crn("A -> B\nB -> A\nB -> C\n").network
    dcrn = build_dom_crn(net, [], {2})
    cycle = next(enumerate_forests(dcrn))._replace(choices=((0, 0), (1, 1)))
    system = build_balancing_system(dcrn, cycle)
    assert system.flow_rows == ((0, (1,)), (1, (0,)))
    with pytest.raises(ValueError, match="cyclic"):
        decide_balance(system)
    # two flow rows with one out-edge
    shared = system._replace(flow_rows=((0, ()), (0, ())))
    with pytest.raises(ValueError, match="share"):
        decide_balance(shared)


@pytest.fixture()
def balance_lps(monkeypatch):
    """Every system that `forests` hands to solve_feasibility, in order."""
    systems = []

    def counted(system):
        systems.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(forests, "solve_feasibility", counted)
    return systems


def test_balance_lp_has_no_flow_rows(nets, balance_lps):
    # envz's forests have candidates that its witness does not lower, so
    # they run balance LPs: each has one row per species and the candidate row
    net = nets["envz"]
    assert isinstance(analyze(net, SearchConfig()), GuaranteedExtinction)
    assert balance_lps
    for system in balance_lps:
        assert len(system.eq) == net.m and len(system.ge) == 1


def test_long_chain_with_a_reversible_step_takes_one_balance_lp(balance_lps):
    # reversing the middle step of chain 300 makes it conservative, c = (1, 1),
    # which lowers no candidate, so its first forest, a path of 300 exterior
    # complexes, is refuted by a balance LP with 2 + 1 rows
    net = parse_crn(reversible_chain_text(300, 150)).network
    cfg = SearchConfig()
    verdict = analyze(net, cfg)
    assert isinstance(verdict, GuaranteedExtinction)
    assert len(verdict.certificate.forest.choices) == 300
    assert [(len(s.eq), len(s.ge)) for s in balance_lps] == [(2, 1)]
    assert verify_report(net, json.loads(emit_report(net, verdict, cfg)))


def test_subconservation_refutation_names_a_candidate_it_cannot_cover():
    # c = (1, 1) keeps chain 6's molecule count, so every candidate has slack
    # 0: the premise fails, a ValueError naming the first candidate, not the
    # audit's internal error
    net = parse_crn(chain_text(6)).network
    dcrn = maximal_admissible(net)
    system = build_balancing_system(dcrn, next(enumerate_forests(dcrn)))
    c, slack = subconservation_slack(net, (1, 1))
    assert slack == [0] * net.r and system.candidates[0] == 0
    with pytest.raises(ValueError, match="candidate 0$"):
        subconservation_refutation(system, c, slack)
    # a c or s of the wrong length is the caller's fault too, checked before
    # the audit: a c over one species, and an s one reaction short, which
    # would read reaction 5 as a domination edge
    c, slack = strict_subconservation(net)
    assert len(c) == net.m == 2 and len(slack) == net.r == 6
    subconservation_refutation(system, c, slack)
    for short_c, short_slack in (((2,), slack), (c, slack[:5])):
        with pytest.raises(ValueError, match=r"expected 2 \(species\) and 6 \(reactions\)"):
            subconservation_refutation(system, short_c, short_slack)
    # under any-edge, the domination edge 2 X2 -> X2 (edge 3) is a candidate,
    # whose slack is 0 even for a strict c; its true-reaction candidates are
    # covered, so the strict c refutes the same forest under true-reactions
    net = parse_crn("X1 -> 2 X2\nX2 -> 0\n2 X1 -> 2 X2\n").network
    dcrn = maximal_admissible(net)
    forest = next(enumerate_forests(dcrn))
    c, slack = strict_subconservation(net)
    system = build_balancing_system(dcrn, forest, ANY_EDGE)
    assert system.candidates == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="candidate 3$"):
        subconservation_refutation(system, c, slack)
    outcome = subconservation_refutation(build_balancing_system(dcrn, forest), c, slack)
    assert verify_balance_outcome(dcrn, forest, outcome)
