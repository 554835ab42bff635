"""Nonnegative kernel generators and cone membership, the reference for the invariant tests.

`nonneg_kernel_generators` lists the extreme rays of {v >= 0 : Gamma v = 0}
by the double description method, normalized to coprime integers in
lexicographic order; `p_invariants` and `t_invariants` are the Petri-net
P- and T-invariants.  The listing has no bound: its output alone can be
exponential in the network's size, which is why it is a test reference and
not part of the package.  The tests check EnvZ's generator table, the
paper's, and the appendix P/T-invariants against it.

`in_cone` decides whether a vector is a nonnegative combination of rays.
The target may be rational: `fraction_lp.int_row` scales each row with a
fractional right-hand side to integers.
"""

from __future__ import annotations

from typing import Sequence

from crnextinct.exactlp import Feasible, LinearSystem, primitive, solve_feasibility
from crnextinct.invariants import Matrix, transpose

from fraction_lp import int_row


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


def in_cone(vector: Sequence, rays: Sequence[Sequence[int]]) -> bool:
    """Is the vector a nonnegative combination of the rays?  Exact LP check."""
    k = len(rays)
    if k == 0:
        return all(v == 0 for v in vector)
    eq = tuple(int_row([ray[i] for ray in rays], target) for i, target in enumerate(vector))
    return isinstance(solve_feasibility(LinearSystem(k, eq=eq)), Feasible)
