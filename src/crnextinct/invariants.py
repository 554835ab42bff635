"""Conservation tests, nonnegative kernel generators, and Petri-net invariants.

Conservation queries are answered with exact certificates: a strictly positive
vector c (encoded as c >= 1, which loses nothing by homogeneity) or a Farkas
refutation.  The LP is solved over c' = c - 1 >= 0, and both answers are
mapped back to the system over c that conservation_system builds.  Kernel
generators are the extreme rays of {v >= 0 : Gamma v = 0}, computed by the
double description method and normalized to coprime integers in
lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactlp import Farkas, Feasible, LinearSystem, Outcome, lexmin, make_row, primitive

Matrix = Sequence[Sequence[int]]


def _decide(gamma: Matrix, *, equality: bool) -> Outcome:
    """Decide conservation_system(gamma, equality=...) over c' = c - 1 >= 0.

    Each row a.c = 0 (or >= 0) becomes a.c' = -a.1 (or >= -a.1), and the
    rows c >= 1 become the implicit c' >= 0, so phase 1 builds no artificial
    for them.  lexmin commutes with the shift: the witness 1 + c' is the
    point lexmin finds on the unshifted system.  A refutation (mu', nu') of
    the shifted system is lifted to the unshifted one: the rows a keep mu',
    the rows c >= 1 get nu', and c >= 0 gets 0.  The combination still
    cancels, and its right-hand side 1.nu' equals the shifted one, which is
    positive.  Either answer is checked against the unshifted system, with
    check_feasible or check_farkas.
    """
    system = conservation_system(gamma, equality=equality)
    m = system.n
    rows = system.eq if equality else system.ge[: len(system.ge) - m]  # all but c >= 1
    shifted = tuple((a, -sum(a)) for a, _ in rows)
    outcome = lexmin(LinearSystem(m, eq=shifted) if equality else LinearSystem(m, ge=shifted))
    if isinstance(outcome, Feasible):
        return Feasible(tuple(1 + v for v in outcome.witness))
    mu, nu, zero = outcome.eq_mult + outcome.ge_mult, outcome.nonneg_mult, (Fraction(0),) * m
    return Farkas(mu, nu, zero) if equality else Farkas((), mu + nu, zero)


def transpose(gamma: Matrix) -> tuple[tuple[int, ...], ...]:
    """Columns of the matrix as rows; empty for a matrix with no rows."""
    rows = [tuple(row) for row in gamma]
    if not rows:
        return ()
    return tuple(tuple(row[k] for row in rows) for k in range(len(rows[0])))


def conservation_system(gamma: Matrix, *, equality: bool) -> LinearSystem:
    """The system for c >= 1 with c^T Gamma = 0 (equality) or <= 0 (subconservative)."""
    rows = [tuple(row) for row in gamma]
    m = len(rows)
    cols = transpose(gamma)
    unit = [make_row([1 if j == i else 0 for j in range(m)], 1) for i in range(m)]
    if equality:
        return LinearSystem(m, eq=tuple(make_row(col, 0) for col in cols), ge=tuple(unit))
    neg = [make_row([-c for c in col], 0) for col in cols]
    return LinearSystem(m, ge=tuple(neg) + tuple(unit))


def is_conservative(gamma: Matrix) -> Outcome:
    """Does some c >= 1 satisfy c^T Gamma = 0 exactly?

    Solved over c' = c - 1 (Gamma^T c' = -Gamma^T 1, c' >= 0); the witness is
    1 + c', and a refutation is lifted back to conservation_system(gamma,
    equality=True), whose c >= 1 rows take the multipliers of c' >= 0.
    """
    return _decide(gamma, equality=True)


def is_subconservative(gamma: Matrix) -> Outcome:
    """Does some c >= 1 satisfy c^T Gamma <= 0 componentwise?

    Solved over c' = c - 1 (-Gamma^T c' >= Gamma^T 1, c' >= 0); the witness is
    1 + c', and a refutation is lifted back to conservation_system(gamma,
    equality=False), whose c >= 1 rows take the multipliers of c' >= 0.
    """
    return _decide(gamma, equality=False)


def nonneg_kernel_generators(gamma: Matrix) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of {v >= 0 : Gamma v = 0} via double description.

    The rays are coprime integer vectors in lexicographic order.

    Starts from the nonnegative orthant and intersects with one kernel
    hyperplane at a time; the combinatorial adjacency test over coordinate
    zero-sets keeps only extreme rays.
    """
    rows = [tuple(row) for row in gamma]
    r = len(rows[0]) if rows else 0
    if r == 0:
        return ()
    rays: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
    ]
    for a in rows:
        products = [sum(ai * vi for ai, vi in zip(a, ray)) for ray in rays]
        zero = [ray for ray, p in zip(rays, products) if p == 0]
        pos = [(ray, p) for ray, p in zip(rays, products) if p > 0]
        neg = [(ray, p) for ray, p in zip(rays, products) if p < 0]
        zero_sets = {ray: frozenset(j for j, v in enumerate(ray) if v == 0) for ray in rays}

        def adjacent(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
            common = zero_sets[u] & zero_sets[w]
            return not any(
                t is not u and t is not w and common <= zero_sets[t] for t in rays
            )

        combined = []
        for u, pu in pos:
            for w, pw in neg:
                if adjacent(u, w):
                    combined.append(
                        primitive([pu * wi - pw * ui for ui, wi in zip(u, w)])
                    )
        rays = zero + combined
    return tuple(sorted(set(rays)))


def p_invariants(gamma: Matrix) -> tuple[tuple[int, ...], ...]:
    """Nonnegative generators of the left kernel (Petri-net P-invariants)."""
    return nonneg_kernel_generators(transpose(gamma))


def t_invariants(gamma: Matrix) -> tuple[tuple[int, ...], ...]:
    """Nonnegative generators of the right kernel (Petri-net T-invariants)."""
    return nonneg_kernel_generators(gamma)
