from fractions import Fraction

import pytest

from crnextinct import invariants
from crnextinct.exactlp import Farkas, Feasible, check_farkas, check_feasible, solve_feasibility
from crnextinct.invariants import conservation_system, is_conservative, is_subconservative
from crnextinct.parser import parse_crn

from cone_reference import in_cone, nonneg_kernel_generators, p_invariants, t_invariants
from conftest import chain_text

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


def test_transpose_rejects_ragged_rows():
    assert invariants.transpose(((1, 2), (3, 4), (5, 6))) == ((1, 3, 5), (2, 4, 6))
    assert invariants.transpose(()) == ()
    assert invariants.transpose([[1, 2]]) == ((1,), (2,))
    # a short row anywhere is a ValueError, not an IndexError or a cut matrix
    for ragged in (((1, 2), (3,)), ((1,), (2, 3))):
        with pytest.raises(ValueError):
            invariants.transpose(ragged)


def test_conservative_example21(nets):
    gamma = nets["example21"].stoich
    outcome = is_conservative(gamma)
    assert isinstance(outcome, Feasible)
    assert outcome.witness == (Fraction(1), Fraction(1))
    assert check_feasible(conservation_system(gamma, equality=True), outcome.witness)


def test_example22_neither(nets):
    gamma = nets["example22"].stoich
    cons = is_conservative(gamma)
    sub = is_subconservative(gamma)
    assert isinstance(cons, Farkas)
    assert check_farkas(conservation_system(gamma, equality=True), cons)
    assert isinstance(sub, Farkas)
    assert check_farkas(conservation_system(gamma, equality=False), sub)


def test_example23_subconservative_only(nets):
    gamma = nets["example23"].stoich
    assert isinstance(is_conservative(gamma), Farkas)
    sub = is_subconservative(gamma)
    assert isinstance(sub, Feasible)
    assert sub.witness == (Fraction(1), Fraction(1))
    # c^T Gamma = (-1, 0, 0)
    c = sub.witness
    assert [sum(ci * gamma[i][k] for i, ci in enumerate(c)) for k in range(3)] == [
        -1,
        0,
        0,
    ]


def test_envz_subconservative(nets):
    gamma = nets["envz"].stoich
    sub = is_subconservative(gamma)
    assert isinstance(sub, Feasible)
    assert check_feasible(conservation_system(gamma, equality=False), sub.witness)
    assert all(ci >= 1 for ci in sub.witness)


def test_strict_lp_is_skipped_for_opposite_vectors(nets, monkeypatch):
    # chain 6: the strict LP decides; example21 has the reversible pair
    # X1 + X2 <-> 2 X2, so no strict vector exists and only today's system
    # is solved; example22 has no opposite vectors, and its strict LP is
    # infeasible before today's system is
    solved = []

    def counted(system):
        solved.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(invariants, "solve_feasibility", counted)
    chain6 = parse_crn(chain_text(6)).network
    for net, calls in ((chain6, 1), (nets["example21"], 1), (nets["example22"], 2)):
        solved.clear()
        is_subconservative(net.stoich)
        assert len(solved) == calls


def test_decide_audits_both_lifted_answers(monkeypatch):
    # a wrong solver answer must not leave _decide, or analyze would emit it
    # unaudited: the point 0 lifts to c = 1, which no strict vector of 0 -> X
    # is, and an all-zero refutation proves nothing
    def wrong_point(system):
        return Feasible((Fraction(0),) * system.n)

    def empty_refutation(system):
        return Farkas((0,) * len(system.eq), (0,) * len(system.ge), (0,) * system.n)

    monkeypatch.setattr(invariants, "solve_feasibility", wrong_point)
    with pytest.raises(AssertionError, match="lifted witness fails"):
        is_subconservative(((1,),))
    monkeypatch.setattr(invariants, "solve_feasibility", empty_refutation)
    with pytest.raises(AssertionError, match="lifted refutation fails"):
        is_conservative(((-1,),))


def test_conservative_implies_subconservative(nets):
    for net in nets.values():
        gamma = net.stoich
        if isinstance(is_conservative(gamma), Feasible):
            assert isinstance(is_subconservative(gamma), Feasible)


def test_homogeneity(nets):
    gamma = nets["example21"].stoich
    c = is_conservative(gamma).witness
    for lam in (2, 3, Fraction(7, 2)):
        scaled = [lam * ci for ci in c]
        assert all(
            sum(s * gamma[i][k] for i, s in enumerate(scaled)) == 0 for k in range(3)
        )


def test_envz_kernel_generators(nets):
    rays = nonneg_kernel_generators(nets["envz"].stoich)
    assert list(rays) == ENVZ_GENERATORS


def test_example21_kernel_rays(nets):
    rays = nonneg_kernel_generators(nets["example21"].stoich)
    assert rays == ((1, 0, 1), (1, 1, 0))


def test_kernel_ray_properties(nets):
    for net in nets.values():
        gamma = net.stoich
        gens = nonneg_kernel_generators(gamma)
        for ray in gens:
            assert all(v >= 0 for v in ray) and any(v > 0 for v in ray)
            assert all(
                sum(g * v for g, v in zip(row, ray)) == 0 for row in gamma
            )
        # random-looking nonnegative combinations stay in the kernel
        combo = [0] * net.r
        for weight, ray in enumerate(gens, start=1):
            combo = [c + weight * v for c, v in zip(combo, ray)]
        assert all(sum(g * v for g, v in zip(row, combo)) == 0 for row in gamma)
        assert in_cone(combo, gens)


def test_single_irreversible_reaction_no_rays():
    assert nonneg_kernel_generators(((-1,), (1,))) == ()


def test_self_loop_unit_invariant():
    gens = nonneg_kernel_generators(((0, -1), (0, 1)))
    assert (1, 0) in gens


def test_appendix_petri_invariants(nets):
    gamma = nets["example21"].stoich
    assert p_invariants(gamma) == ((1, 1),)
    assert t_invariants(gamma) == ((1, 0, 1), (1, 1, 0))
