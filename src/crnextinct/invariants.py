"""Conservation tests: is a network conservative, or subconservative?

Conservation queries are answered with exact certificates: a strictly positive
vector c (encoded as c >= 1, which loses nothing by homogeneity) or a Farkas
refutation.  Each is one phase 1 (solve_feasibility) over c' = c - 1 >= 0,
and both answers are mapped back to the unshifted system that
conservation_system or strict_subconservation_system builds.  The witness is
a checkable point, not a canonical one.  is_subconservative first looks for
a strict vector, c^T Gamma <= -1 on every reaction: such a c refutes the
balance system of every exterior forest at once (forests.decide_forests),
so the search needs no balance LP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    Outcome,
    Row,
    check_farkas,
    check_feasible,
    solve_feasibility,
    sparse,
)

Matrix = Sequence[Sequence[int]]


def _decide(system: LinearSystem) -> Outcome:
    """Decide a system built here, whose last n ge rows are c >= 1, over c' = c - 1 >= 0.

    Each other row a.c = b (or >= b) becomes a.c' = b - a.1 (or >= b - a.1),
    and the rows c >= 1 become the implicit c' >= 0, so phase 1 builds no
    artificial for them; the witness is 1 + c'.  A refutation (mu', nu') of
    the shifted system is lifted to the unshifted one: the rows a keep mu',
    the rows c >= 1 get nu', and c >= 0 gets 0.  The combination still
    cancels, and its right-hand side equals the shifted one, which is
    positive.  Either answer is checked against the unshifted system, with
    check_feasible or check_farkas; AssertionError when the check fails.
    """
    m = system.n

    def shift(rows: Sequence[Row]) -> tuple[Row, ...]:
        return tuple((a, b - sum(c for _, c in a)) for a, b in rows)

    outcome = solve_feasibility(
        LinearSystem(m, eq=shift(system.eq), ge=shift(system.ge[: len(system.ge) - m]))
    )
    if isinstance(outcome, Feasible):
        lifted = Feasible(tuple(1 + v for v in outcome.witness))
        if not check_feasible(system, lifted.witness):
            raise AssertionError("internal error: lifted witness fails its audit")
        return lifted
    zero = (Fraction(0),) * m
    cert = Farkas(outcome.eq_mult, outcome.ge_mult + outcome.nonneg_mult, zero)
    if not check_farkas(system, cert):
        raise AssertionError("internal error: lifted refutation fails its audit")
    return cert


def transpose(gamma: Matrix) -> tuple[tuple[int, ...], ...]:
    """Columns of the matrix as rows; empty for a matrix with no rows.

    ValueError when the rows differ in length.
    """
    return tuple(zip(*gamma, strict=True))


def _unit_rows(m: int) -> tuple[Row, ...]:
    """The rows c >= 1 over m species, one entry each."""
    return tuple((((i, 1),), 1) for i in range(m))


def conservation_system(gamma: Matrix, *, equality: bool) -> LinearSystem:
    """The system for c >= 1 with c^T Gamma = 0 (equality) or <= 0 (subconservative).

    One row per reaction, over the nonzeros of its column of Gamma, then
    the rows c >= 1.
    """
    m = len(gamma)
    cols = transpose(gamma)
    if equality:
        return LinearSystem(m, eq=tuple((sparse(col), 0) for col in cols), ge=_unit_rows(m))
    neg = tuple((sparse(-c for c in col), 0) for col in cols)
    return LinearSystem(m, ge=neg + _unit_rows(m))


def strict_subconservation_system(gamma: Matrix) -> LinearSystem:
    """The system for c >= 1 with a.c <= -1 for every distinct reaction vector a.

    One row -a.c >= 1 per distinct column of Gamma, in order of first
    occurrence, then the rows c >= 1.  Equal reaction vectors give equal rows,
    so each is kept once.
    """
    m = len(gamma)
    distinct = dict.fromkeys(transpose(gamma))
    strict = tuple((sparse(-c for c in a), 1) for a in distinct)
    return LinearSystem(m, ge=strict + _unit_rows(m))


def _has_opposite_vectors(gamma: Matrix) -> bool:
    """Are two reaction vectors opposite, a and -a?  A zero vector is its own opposite."""
    vectors = set(transpose(gamma))
    return any(tuple(-v for v in a) in vectors for a in vectors)


def is_conservative(gamma: Matrix) -> Outcome:
    """Does some c >= 1 satisfy c^T Gamma = 0 exactly?

    Solved over c' = c - 1 (Gamma^T c' = -Gamma^T 1, c' >= 0); the witness is
    1 + c', and a refutation is lifted back to conservation_system(gamma,
    equality=True), whose c >= 1 rows take the multipliers of c' >= 0.
    """
    return _decide(conservation_system(gamma, equality=True))


def is_subconservative(gamma: Matrix) -> Outcome:
    """Does some c >= 1 satisfy c^T Gamma <= 0 componentwise?

    First one phase 1 on strict_subconservation_system: a feasible point is
    a strict witness, c^T Gamma <= -1 on every reaction.  It is skipped when
    two reaction vectors are opposite, since a.c <= -1 and -a.c <= -1 cannot
    both hold.  Otherwise, or when it is infeasible, one phase 1 on
    conservation_system(gamma, equality=False) decides.  Both are solved over
    c' = c - 1; a witness of either satisfies conservation_system(gamma,
    equality=False), and a refutation is of that system.
    """
    if not _has_opposite_vectors(gamma):
        strict = _decide(strict_subconservation_system(gamma))
        if isinstance(strict, Feasible):
            return strict
    return _decide(conservation_system(gamma, equality=False))
