"""Earlier forms of the forest routines, for differential tests.

`recursive_forests` is `crnextinct.forests.enumerate_forests` as it was
before it kept an explicit stack: one generator frame per exterior complex,
so its depth grows with the number of exterior complexes.  Both must yield
the same forests in the same canonical order.  `path_walk_forest_is_valid`
is `forest_is_valid` before it marked the complexes known to reach the
absorbing set; both must give the same answer on every forest.
`support_layout_balance` is `decide_balance` as it was before it solved in
forest coordinates: one phase 1 on the support-layout system itself, with a
flow row and a slack per exterior complex.  Both must decide every forest
alike, Balanced or Unbalanced.  `verify_balance_outcome` is the audit's
last two links on one forest, as the package exported it: the forest must
be valid and the outcome must hold for its balancing system.
"""

from typing import Iterator

from crnextinct.domination import DomCRN
from crnextinct.exactlp import Farkas, scale_to_integers, solve_feasibility
from crnextinct.forests import (
    TRUE_REACTIONS,
    BalanceOutcome,
    Balanced,
    BalancingSystem,
    ExteriorForest,
    Unbalanced,
    build_balancing_system,
    forest_is_valid,
    interior_reactions,
)


def recursive_forests(dcrn: DomCRN) -> Iterator[ExteriorForest]:
    edges = dcrn.graph.edges
    absorbing = dcrn.absorbing
    exterior = dcrn.exterior_complexes()
    options: dict[int, list[int]] = {y: [] for y in exterior}
    for v, e in enumerate(edges):
        if e.src in options and e.src != e.dst:
            options[e.src].append(v)
    interior = interior_reactions(dcrn)
    choice: dict[int, int] = {}

    def creates_cycle(start: int, assigning: int) -> bool:
        cur = start
        while True:
            if cur == assigning:
                return True
            if cur in absorbing or cur not in choice:
                return False
            cur = edges[choice[cur]].dst

    def descend(i: int) -> Iterator[ExteriorForest]:
        if i == len(exterior):
            yield ExteriorForest(
                choices=tuple((y, choice[y]) for y in exterior),
                interior=interior,
            )
            return
        y = exterior[i]
        for v in options[y]:
            if creates_cycle(edges[v].dst, y):
                continue
            choice[y] = v
            yield from descend(i + 1)
            del choice[y]

    return descend(0)


def path_walk_forest_is_valid(dcrn: DomCRN, forest: ExteriorForest) -> bool:
    """`forest_is_valid` as it was: a fresh walk from every exterior complex, quadratic on a path."""
    exterior = dcrn.exterior_complexes()
    if [y for y, _ in forest.choices] != exterior:  # each once, ascending
        return False
    if forest.interior != interior_reactions(dcrn):
        return False
    edges = dcrn.graph.edges
    for y, v in forest.choices:
        if not 0 <= v < len(edges):  # before the lookup: a negative index would alias
            return False
        if edges[v].src != y or edges[v].dst == y:
            return False
    step = {y: edges[v].dst for y, v in forest.choices}
    for y in exterior:
        seen = set()
        cur = y
        while cur not in dcrn.absorbing:
            if cur in seen:
                return False
            seen.add(cur)
            cur = step[cur]
    return True


def support_layout_balance(system: BalancingSystem) -> BalanceOutcome:
    """The summed-candidate phase 1 over the support layout, flow rows and all."""
    if not system.candidates:
        return Unbalanced(())
    found = solve_feasibility(system.linear_system(system.candidates))
    if isinstance(found, Farkas):
        return Unbalanced(((system.candidates, found),))
    alpha = [0] * system.n_edges
    for v, a in zip(system.support, scale_to_integers(found.witness)[0]):
        alpha[v] = a
    return Balanced(alpha=tuple(alpha))


def verify_balance_outcome(
    dcrn: DomCRN,
    forest: ExteriorForest,
    outcome: BalanceOutcome,
    nontriviality: str = TRUE_REACTIONS,
) -> bool:
    """Audit a balance outcome by direct exact evaluation, independent of the solver.

    The forest must be valid (forest_is_valid), and the outcome must hold for
    its balancing system (BalancingSystem.audit).
    """
    if not forest_is_valid(dcrn, forest):
        return False
    return build_balancing_system(dcrn, forest, nontriviality).audit(outcome)
