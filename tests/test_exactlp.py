from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnextinct import exactlp
from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    UnboundedError,
    check_farkas,
    check_feasible,
    lexmin,
    minimize,
    primitive,
    solve_feasibility,
)

import fraction_lp
from fraction_lp import dense_system


def test_direct_contradiction():
    system = dense_system(1, ge=(((1,), 1), ((-1,), 0)))
    out = solve_feasibility(system)
    assert isinstance(out, Farkas)
    assert out.ge_mult == (Fraction(1), Fraction(1))
    assert check_farkas(system, out)


def test_simple_feasible():
    system = dense_system(2, eq=(((1, -1), 0),), ge=(((1, 0), 1),))
    out = lexmin(system)
    assert isinstance(out, Feasible)
    assert out.witness == (Fraction(1), Fraction(1))
    assert check_feasible(system, out.witness)


def test_unbounded_direction():
    # x1 >= x2 >= 0 lets x1 grow without bound
    system = dense_system(2, ge=(((1, -1), 0),))
    with pytest.raises(UnboundedError):
        minimize(system, [-1, 0])


def test_minimize_value():
    system = dense_system(2, ge=(((1, 1), 4), ((1, -1), 0)))
    value, out = minimize(system, [1, 0])
    assert value == Fraction(2)
    assert isinstance(out, Feasible)
    with pytest.raises(ValueError, match="direction length mismatch"):
        minimize(system, [1, 0, 0])


def test_rows_must_be_ints():
    # a row is (ascending (column, nonzero int) pairs, int rhs); anything
    # else is a ValueError, never a TypeError
    bad_rows = [
        ((1, -2), 3),  # a dense row of ints
        ((1, 0), 3),
        (((0, 1), 2), 0),  # an entry that is not a pair
        (((0,),), 0),
        (((0, 1, 2),), 0),
        ((((0, 1),),), 0),
        (((0, 0),), 0),  # a zero coefficient
        (((1, 1), (1, 2)), 0),  # a repeated column
        (((1, 1), (0, 2)), 0),  # a descending column
        (((2, 1),), 0),  # a column outside 0..n-1
        (((-1, 1),), 0),
        ([(0, 1)], 0),  # entries that are not a tuple
        ((), 1, 2),  # a row that is not a pair
        (),
        5,
        None,
    ]
    for bad in (Fraction(1, 2), Fraction(2), 1.0, True, "1", None):
        bad_rows.append((((0, 1), (1, bad)), 0))  # a coefficient
        bad_rows.append((((0, 1), (bad, 1)), 0))  # a column
        bad_rows.append((((0, 1),), bad))  # a rhs
    for row in bad_rows:
        with pytest.raises(ValueError, match="a row is"):
            LinearSystem(2, eq=(row,))
        with pytest.raises(ValueError, match="a row is"):
            LinearSystem(2, ge=((((0, 1),), 0), row))
    assert LinearSystem(2, eq=((((0, 1), (1, -2)), 3),)).eq == ((((0, 1), (1, -2)), 3),)
    assert LinearSystem(2, ge=(((), 0), (((1, 5),), 1))).ge[1] == (((1, 5),), 1)


def test_integer_rows_build_no_fraction(monkeypatch):
    # int rows, points and multipliers stay ints in _standardize and both
    # audits
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(exactlp, "Fraction", no_fraction)
    feasible = dense_system(2, eq=(((1, -1), 0),), ge=(((1, 0), 1),))
    exactlp._standardize(feasible)
    assert check_feasible(feasible, (1, 1))
    infeasible = dense_system(1, ge=(((1,), 1), ((-1,), 0)))
    exactlp._standardize(infeasible)
    assert check_farkas(infeasible, Farkas((), (1, 1), (0,)))


def test_primitive():
    assert primitive([4, -6, 0]) == (2, -3, 0)
    assert primitive([-3, 5]) == (-3, 5)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([]) == ()


def test_one_solve_path_per_public_call(monkeypatch):
    # one _solve per public call, with 0, 1 and n cost stages: none calls another
    stages = []
    solve = exactlp._solve

    def spy(system, costs):
        costs = list(costs)
        stages.append(len(costs))
        return solve(system, costs)

    monkeypatch.setattr(exactlp, "_solve", spy)
    # the artificials are driven out only before a first cost stage
    drives = []
    drive_out = exactlp._Tableau.drive_out

    def counted(tab, first_art):
        drives.append(first_art)
        return drive_out(tab, first_art)

    monkeypatch.setattr(exactlp._Tableau, "drive_out", counted)
    feasible = dense_system(3, eq=(((1, 1, 1), 6),))
    infeasible = dense_system(3, ge=(((-1, 0, 0), 1),))
    for system in (feasible, infeasible):
        stages.clear()
        drives.clear()
        solve_feasibility(system)
        assert drives == []
        minimize(system, [1, 0, 2])
        lexmin(system)
        assert stages == [0, 1, 3]
        assert drives == ([3, 3] if system is feasible else [])


def test_phase1_starts_from_the_slack_basis(monkeypatch):
    # x = 0 satisfies every row a.x >= b with b <= 0: its slack starts basic,
    # so lexmin decides such a system without a single pivot
    pivots = []
    pivot = exactlp._Tableau.pivot

    def counted(tab, r, c):
        pivots.append((r, c))
        return pivot(tab, r, c)

    monkeypatch.setattr(exactlp._Tableau, "pivot", counted)
    system = dense_system(
        3, ge=(((1, -1, 0), 0), ((-1, 0, -2), -3), ((0, 1, -1), 0))
    )
    assert lexmin(system) == Feasible((0, 0, 0))
    assert pivots == []
    # only equality rows and ge rows with b > 0 get an artificial column
    mixed = dense_system(
        2,
        eq=(((1, 1), 0), ((1, -1), -2)),
        ge=(((1, 0), 1), ((0, 1), 0), ((-1, 1), -1)),
    )
    _, flips, basis, ncols = exactlp._standardize(mixed)
    art_cols = [b for b in basis if b >= mixed.n + len(mixed.ge)]
    assert (art_cols, ncols) == ([5, 6, 7], 8)  # [x0 x1 | 3 slacks | 3 artificials]
    assert basis == [5, 6, 7, 3, 4] and flips == [1, -1, 1, -1, -1]


def test_lexmin_deterministic():
    system = dense_system(
        3,
        eq=(((1, 1, 1), 6),),
        ge=(((0, 1, 0), 1),),
    )
    a = lexmin(system)
    b = lexmin(system)
    assert a == b
    assert a.witness == (Fraction(0), Fraction(1), Fraction(5))


def test_check_rejects_corrupted_certificates():
    system = dense_system(1, ge=(((1,), 1), ((-1,), 0)))
    out = solve_feasibility(system)
    assert isinstance(out, Farkas)
    corrupted = Farkas(out.eq_mult, (Fraction(1), Fraction(0)), out.nonneg_mult)
    assert not check_farkas(system, corrupted)
    negative = Farkas(out.eq_mult, (Fraction(-1), Fraction(1)), out.nonneg_mult)
    assert not check_farkas(system, negative)
    assert not check_feasible(system, (Fraction(2),))  # violates -x >= 0


def test_row_scaling_preserves_verdicts():
    base = dense_system(
        2,
        eq=(((1, -2), 0),),
        ge=(((1, 0), 1), ((0, 1), 1)),
    )
    scaled = dense_system(
        2,
        eq=(((3, -6), 0),),
        ge=(((5, 0), 5), ((0, 7), 7)),
    )
    a = solve_feasibility(base)
    b = solve_feasibility(scaled)
    assert isinstance(a, Feasible) and isinstance(b, Feasible)
    assert check_feasible(scaled, a.witness)

    base_inf = dense_system(1, ge=(((1,), 1), ((-1,), 0)))
    scaled_inf = dense_system(1, ge=(((4,), 4), ((-9,), 0)))
    assert isinstance(solve_feasibility(base_inf), Farkas)
    out = solve_feasibility(scaled_inf)
    assert isinstance(out, Farkas) and check_farkas(scaled_inf, out)


def test_empty_and_degenerate_systems():
    assert solve_feasibility(LinearSystem(0)) == Feasible(())
    out = solve_feasibility(LinearSystem(0, eq=(((), 1),)))
    assert isinstance(out, Farkas)
    with pytest.raises(ValueError):
        LinearSystem(2, eq=((((2, 1),), 0),))


HUGE = 2**64


@st.composite
def differential_systems(draw):
    """Systems that reach every solver path: negative right-hand sides, redundant
    equality rows, mixed denominators and coefficients of 2**64 and more."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
        st.builds(lambda s, k: s * (HUGE + k), st.sampled_from([-1, 1]), st.integers(0, HUGE)),
    )
    vector = st.lists(coeff, min_size=n, max_size=n)
    eq = draw(st.lists(vector, max_size=3))
    ge = draw(st.lists(vector, max_size=4))
    if eq and draw(st.booleans()):  # a redundant row: a combination of the others
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(eq), max_size=len(eq)))
        eq.append([sum(w * row[j] for w, row in zip(weights, eq)) for j in range(n)])
    if draw(st.booleans()):  # planted: feasible at a hidden point x0 >= 0
        x0 = draw(st.lists(st.builds(Fraction, st.integers(0, 5), st.integers(1, 3)), min_size=n, max_size=n))
        slack = st.builds(Fraction, st.integers(0, 4), st.integers(1, 4))
        eq_rhs = [sum(c * x for c, x in zip(row, x0)) for row in eq]
        ge_rhs = [sum(c * x for c, x in zip(row, x0)) - draw(slack) for row in ge]
    else:
        rhs = st.one_of(coeff, st.integers(-5, 5))
        eq_rhs = [draw(rhs) for _ in eq]
        ge_rhs = [draw(rhs) for _ in ge]
    return dense_system(n, eq=tuple(zip(eq, eq_rhs)), ge=tuple(zip(ge, ge_rhs)))


@st.composite
def origin_systems(draw):
    """Systems with no equality row and every right-hand side <= 0."""
    n = draw(st.integers(0, 4))
    row = st.tuples(
        st.lists(st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE)), min_size=n, max_size=n),
        st.integers(-5, 0),
    )
    rows = draw(st.lists(row, max_size=5))
    return dense_system(n, ge=rows)


@given(origin_systems())
def test_origin_answer_matches_fraction_reference(system):
    # the origin satisfies every such row, and phase 1 stops there at once
    out = solve_feasibility(system)
    assert out == Feasible((Fraction(0),) * system.n)
    assert out == fraction_lp.solve_feasibility(system)


def test_origin_answer_builds_no_tableau(monkeypatch):
    def no_tableau(system):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(exactlp, "_standardize", no_tableau)
    system = dense_system(2, ge=(((1, -1), 0), ((-2, 3), -4)))
    assert solve_feasibility(system) == Feasible((0, 0))
    # an equality row, or a positive right-hand side, still goes to phase 1
    for other in (
        dense_system(2, eq=(((1, -1), 0),)),
        dense_system(2, ge=(((1, -1), 1),)),
    ):
        with pytest.raises(AssertionError, match="tableau"):
            solve_feasibility(other)


@settings(max_examples=300)
@given(differential_systems(), st.data())
def test_integer_simplex_matches_fraction_reference(system, data):
    assert solve_feasibility(system) == fraction_lp.solve_feasibility(system)
    assert lexmin(system) == fraction_lp.lexmin(system)
    weight = st.one_of(st.integers(0, 4), st.builds(Fraction, st.integers(0, 9), st.integers(1, 5)))
    direction = data.draw(st.lists(weight, min_size=system.n, max_size=system.n))
    assert minimize(system, direction) == fraction_lp.minimize(system, direction)


SMALL = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))
HUGE_RATIONAL = st.builds(Fraction, st.integers(HUGE, 4 * HUGE), st.integers(1, 4 * HUGE))
ENTRY = st.one_of(SMALL, HUGE_RATIONAL, HUGE_RATIONAL.map(lambda v: -v))
# positive factors for the solver's answers: a valid certificate stays valid,
# and its entries get mixed denominators (3/6 and 5/6 reduce to 1/2 and 5/6)
SCALE = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 12)),
    HUGE_RATIONAL,
    HUGE_RATIONAL.map(lambda v: 1 / v),
)
CORRUPTIONS = ("none", "perturb", "wake-zero", "flip", "length")


def _corrupt(data, vectors: list[list]) -> None:
    """Change the vectors in place one way: a multiplier perturbed, a zero made
    nonzero, a sign flipped or a length changed (or nothing)."""
    how = data.draw(st.sampled_from(CORRUPTIONS))
    slots = [(v, i) for v, vec in enumerate(vectors) for i in range(len(vec))]
    nonzero = ENTRY.filter(bool)
    if how == "perturb" and slots:
        v, i = data.draw(st.sampled_from(slots))
        vectors[v][i] += data.draw(nonzero)
    elif how == "wake-zero":
        zeros = [(v, i) for v, i in slots if vectors[v][i] == 0]
        if zeros:
            v, i = data.draw(st.sampled_from(zeros))
            vectors[v][i] = abs(data.draw(nonzero))
    elif how == "flip":
        signed = [(v, i) for v, i in slots if vectors[v][i] != 0]
        if signed:
            v, i = data.draw(st.sampled_from(signed))
            vectors[v][i] = -vectors[v][i]
    elif how == "length":
        v = data.draw(st.integers(0, len(vectors) - 1))
        if vectors[v] and data.draw(st.booleans()):
            vectors[v].pop()
        else:
            vectors[v].append(Fraction(0))


@settings(max_examples=300)
@given(differential_systems(), st.data())
def test_sparse_audit_matches_dense_reference(system, data):
    # the solver's own answer times a positive rational where it has one,
    # random rational vectors otherwise, then perhaps corrupted
    out = solve_feasibility(system)
    weight = st.one_of(st.just(0), ENTRY.map(abs))
    if isinstance(out, Farkas):
        scale = data.draw(SCALE)
        mults = [[scale * m for m in vec] for vec in (out.eq_mult, out.ge_mult, out.nonneg_mult)]
    else:
        mults = [
            data.draw(st.lists(ENTRY, min_size=len(system.eq), max_size=len(system.eq))),
            data.draw(st.lists(weight, min_size=len(system.ge), max_size=len(system.ge))),
            data.draw(st.lists(weight, min_size=system.n, max_size=system.n)),
        ]
    _corrupt(data, mults)
    cert = Farkas(*(tuple(Fraction(m) for m in vec) for vec in mults))
    assert check_farkas(system, cert) == fraction_lp.dense_check_farkas(system, cert)

    if isinstance(out, Feasible):
        scale = data.draw(SCALE)
        point = [[scale * v for v in out.witness]]
    else:
        point = [data.draw(st.lists(weight, min_size=system.n, max_size=system.n))]
    _corrupt(data, point)
    assert check_feasible(system, point[0]) == fraction_lp.dense_check_feasible(system, point[0])


def _objective(tab):
    """The package tableau's objective row over its entry in column ncols: (reduced costs, value)."""
    *rc, den, neg_value = tab.rows[-1]
    return [Fraction(v, den) for v in rc], Fraction(-neg_value, den)


@settings(max_examples=200)
@given(differential_systems(), st.data())
def test_objective_row_is_the_fraction_reduced_costs(system, data):
    # the objective row over its basic entry is the Fraction tableau's
    # reduced-cost row, with minus the value in the rhs slot: after phase 1,
    # and after one cost stage from the basis with the artificials driven out
    rows, _, start, ncols = exactlp._standardize(system)
    tab = exactlp._Tableau(rows, list(start), ncols)
    tab.minimize(banned=set())
    frows, _, fstart, art_cols, fncols = fraction_lp._standardize(system)
    ftab = fraction_lp._Tableau(frows, list(fstart), fncols)
    value, rc = ftab.minimize([Fraction(int(j in art_cols)) for j in range(fncols)], banned=set())
    assert (ncols, tab.basis) == (fncols, ftab.basis)
    assert _objective(tab) == (rc, value)
    if value > 0:  # infeasible: no cost stage follows
        return
    first_art = system.n + len(system.ge)
    tab.drive_out(first_art)
    ftab, _ = fraction_lp._phase1(system)  # it drives the artificials out itself
    cost = data.draw(st.lists(st.integers(-2, 4), min_size=system.n, max_size=system.n))
    banned = set(range(first_art, ncols))
    fcost = [Fraction(c) for c in cost] + [Fraction(0)] * (ncols - system.n)
    tab.set_cost(cost)
    try:
        tab.minimize(banned=banned)
    except UnboundedError:
        with pytest.raises(UnboundedError):
            ftab.minimize(fcost, banned=banned)
        return
    value, rc = ftab.minimize(fcost, banned=banned)
    assert tab.basis == ftab.basis
    assert _objective(tab) == (rc, value)
