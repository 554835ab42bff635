"""Cone membership by an exact LP, for the kernel-generator tests.

`in_cone` decides whether a vector is a nonnegative combination of rays,
such as the tuple `crnextinct.invariants.nonneg_kernel_generators` returns.
The target may be rational: `fraction_lp.int_row` scales each row with a
fractional right-hand side to integers.
"""

from __future__ import annotations

from typing import Sequence

from crnextinct.exactlp import Feasible, LinearSystem, solve_feasibility

from fraction_lp import int_row


def in_cone(vector: Sequence, rays: Sequence[Sequence[int]]) -> bool:
    """Is the vector a nonnegative combination of the rays?  Exact LP check."""
    k = len(rays)
    if k == 0:
        return all(v == 0 for v in vector)
    eq = tuple(int_row([ray[i] for ray in rays], target) for i, target in enumerate(vector))
    return isinstance(solve_feasibility(LinearSystem(k, eq=eq)), Feasible)
