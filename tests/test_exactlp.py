from fractions import Fraction

import pytest

from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    UnboundedError,
    check_farkas,
    check_feasible,
    lexmin,
    make_row,
    minimize,
    solve_feasibility,
)


def test_direct_contradiction():
    system = LinearSystem(1, ge=(make_row([1], 1), make_row([-1], 0)))
    out = solve_feasibility(system)
    assert isinstance(out, Farkas)
    assert out.ge_mult == (Fraction(1), Fraction(1))
    assert check_farkas(system, out)


def test_simple_feasible():
    system = LinearSystem(2, eq=(make_row([1, -1], 0),), ge=(make_row([1, 0], 1),))
    out = lexmin(system)
    assert isinstance(out, Feasible)
    assert out.witness == (Fraction(1), Fraction(1))
    assert check_feasible(system, out.witness)


def test_unbounded_direction():
    # x1 >= x2 >= 0 lets x1 grow without bound
    system = LinearSystem(2, ge=(make_row([1, -1], 0),))
    with pytest.raises(UnboundedError):
        minimize(system, [-1, 0])


def test_minimize_value():
    system = LinearSystem(2, ge=(make_row([1, 1], 4), make_row([1, -1], 0)))
    value, out = minimize(system, [1, 0])
    assert value == Fraction(2)
    assert isinstance(out, Feasible)


def test_lexmin_deterministic():
    system = LinearSystem(
        3,
        eq=(make_row([1, 1, 1], 6),),
        ge=(make_row([0, 1, 0], 1),),
    )
    a = lexmin(system)
    b = lexmin(system)
    assert a == b
    assert a.witness == (Fraction(0), Fraction(1), Fraction(5))


def test_check_rejects_corrupted_certificates():
    system = LinearSystem(1, ge=(make_row([1], 1), make_row([-1], 0)))
    out = solve_feasibility(system)
    assert isinstance(out, Farkas)
    corrupted = Farkas(out.eq_mult, (Fraction(1), Fraction(0)), out.nonneg_mult)
    assert not check_farkas(system, corrupted)
    negative = Farkas(out.eq_mult, (Fraction(-1), Fraction(1)), out.nonneg_mult)
    assert not check_farkas(system, negative)
    assert not check_feasible(system, (Fraction(2),))  # violates -x >= 0


def test_row_scaling_preserves_verdicts():
    base = LinearSystem(
        2,
        eq=(make_row([1, -2], 0),),
        ge=(make_row([1, 0], 1), make_row([0, 1], 1)),
    )
    scaled = LinearSystem(
        2,
        eq=(make_row([3, -6], 0),),
        ge=(make_row([5, 0], 5), make_row([0, 7], 7)),
    )
    a = solve_feasibility(base)
    b = solve_feasibility(scaled)
    assert isinstance(a, Feasible) and isinstance(b, Feasible)
    assert check_feasible(scaled, a.witness)

    base_inf = LinearSystem(1, ge=(make_row([1], 1), make_row([-1], 0)))
    scaled_inf = LinearSystem(1, ge=(make_row([4], 4), make_row([-9], 0)))
    assert isinstance(solve_feasibility(base_inf), Farkas)
    out = solve_feasibility(scaled_inf)
    assert isinstance(out, Farkas) and check_farkas(scaled_inf, out)


def test_empty_and_degenerate_systems():
    assert solve_feasibility(LinearSystem(0)) == Feasible(())
    out = solve_feasibility(LinearSystem(0, eq=(make_row([], 1),)))
    assert isinstance(out, Farkas)
    with pytest.raises(ValueError):
        LinearSystem(2, eq=(make_row([1], 0),))
