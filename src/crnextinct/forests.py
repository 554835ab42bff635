"""Exterior forests of a domination-expanded network and their balance status.

An exterior forest picks exactly one outgoing edge (true reaction or
domination edge, never a self-loop) for every complex outside the absorbing
set, such that following the choices always reaches the absorbing set without
revisiting a complex.  Every interior reaction is included by convention.

A forest is balanced when a nonnegative vector over all edges exists that
(C1) is supported on the forest, (C2) has its reaction part in the kernel of
the stoichiometric matrix, and (C3) at every exterior complex weighs the
outgoing edge at least as much as the sum of the incoming forest edges, with
strictly positive weight on at least one nontriviality candidate.  By default
the candidates are the exterior true reactions of the forest; a switch widens
them to include domination edges for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

from .domination import DomCRN
from .exactlp import (
    Farkas,
    LinearSystem,
    Row,
    check_farkas,
    check_feasible,
    make_row,
    scale_to_integers,
    solve_feasibility,
)
from .model import stoich_matrix

TRUE_REACTIONS = "true-reactions"
ANY_EDGE = "any-edge"


@dataclass(frozen=True)
class ExteriorForest:
    """One outgoing edge per exterior complex, plus all interior reactions.

    An edge is named by its index v in the expanded graph (`DomCRN.graph`).
    """

    choices: tuple[tuple[int, int], ...]  # (exterior complex, chosen edge v), ascending
    interior: tuple[int, ...]  # reaction indices whose source lies in the absorbing set

    def edge_labels(self, r: int) -> list[str]:
        edges = [v for _, v in self.choices] + list(self.interior)
        return [edge_label(v, r) for v in edges]


def edge_label(v: int, r: int) -> str:
    """1-based label of edge v over r reactions: "k+1" for reaction k, "Dk+1" for domination k."""
    return str(v + 1) if v < r else f"D{v - r + 1}"


def interior_reactions(dcrn: DomCRN) -> tuple[int, ...]:
    net = dcrn.net
    return tuple(k for k in range(net.r) if net.source_index[k] in dcrn.absorbing)


def enumerate_forests(dcrn: DomCRN) -> Iterator[ExteriorForest]:
    """Backtracking enumeration of exterior forests in canonical order, lazily.

    Choices advance by exterior complex index; per complex, true reactions
    come before domination edges, each in index order.  Any selection whose
    functional graph would cycle among exterior complexes is pruned.  Forests
    are generated one at a time, so a caller that stops early pays only for
    the forests it took.
    """
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


def forest_is_valid(dcrn: DomCRN, forest: ExteriorForest) -> bool:
    """Direct path-walk check of the unique-path property and conventions."""
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


@dataclass(frozen=True)
class BalancingSystem:
    """The constraint system a balancing vector must satisfy.

    Variables are indexed 0..r-1 for reactions and r..r+d-1 for domination
    edges.  The assembled LinearSystem lays rows out deterministically:
    equalities are the support zeros (ascending variable) followed by the
    kernel rows (species order); inequalities are the flow rows (ascending
    exterior complex) followed by the candidate row: the sum of the weights
    of a set of candidates >= 1.  Every other right-hand side is 0.  The
    shared rows are built once per system; each assembled system only
    appends its candidate row.
    """

    n_reactions: int
    n_dom: int
    zero_vars: tuple[int, ...]
    kernel_rows: tuple[tuple[int, ...], ...]  # width r, one per species
    flow_rows: tuple[tuple[int, int, tuple[int, ...]], ...]  # (complex, out var, in vars)
    candidates: tuple[int, ...]

    @property
    def n_vars(self) -> int:
        return self.n_reactions + self.n_dom

    @cached_property
    def _shared_rows(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """(equality rows, flow rows): every row but the candidate row."""
        n = self.n_vars
        eq = []
        for v in self.zero_vars:
            coeffs = [0] * n
            coeffs[v] = 1
            eq.append(make_row(coeffs, 0))
        for row in self.kernel_rows:
            eq.append(make_row(list(row) + [0] * self.n_dom, 0))
        ge = []
        for _, out_var, in_vars in self.flow_rows:
            coeffs = [0] * n
            coeffs[out_var] += 1
            for v in in_vars:
                coeffs[v] -= 1
            ge.append(make_row(coeffs, 0))
        return tuple(eq), tuple(ge)

    def linear_system(self, candidates: tuple[int, ...]) -> LinearSystem:
        """The shared rows with the candidate row sum of x_k over candidates >= 1."""
        coeffs = [0] * self.n_vars
        for v in candidates:
            coeffs[v] = 1
        eq, ge = self._shared_rows
        return LinearSystem(self.n_vars, eq=eq, ge=ge + (make_row(coeffs, 1),))


def build_balancing_system(
    dcrn: DomCRN,
    forest: ExteriorForest,
    nontriviality: str = TRUE_REACTIONS,
) -> BalancingSystem:
    if nontriviality not in (TRUE_REACTIONS, ANY_EDGE):
        raise ValueError(f"unknown nontriviality reading {nontriviality!r}")
    net = dcrn.net
    support = {v for _, v in forest.choices} | set(forest.interior)
    zero_vars = tuple(v for v in range(net.r + dcrn.d) if v not in support)
    kernel_rows = stoich_matrix(net)
    incoming: dict[int, list[int]] = {y: [] for y, _ in forest.choices}
    for v in support:  # edge v of the expanded graph is variable v
        tgt = dcrn.graph.edges[v].dst
        if tgt in incoming:
            incoming[tgt].append(v)
    flow_rows = tuple((y, v, tuple(sorted(incoming[y]))) for y, v in forest.choices)
    candidates = tuple(
        sorted(v for _, v in forest.choices if v < net.r or nontriviality == ANY_EDGE)
    )
    return BalancingSystem(
        n_reactions=net.r,
        n_dom=dcrn.d,
        zero_vars=zero_vars,
        kernel_rows=kernel_rows,
        flow_rows=flow_rows,
        candidates=candidates,
    )


@dataclass(frozen=True)
class Balanced:
    alpha: tuple[int, ...]  # integer balancing vector over all r+d edges
    positive_edge: int  # candidate variable with weight >= 1


@dataclass(frozen=True)
class Unbalanced:
    # refutations, each of the candidate row over its candidate set; the sets
    # joined in order are the system's candidates
    witnesses: tuple[tuple[tuple[int, ...], Farkas], ...]


BalanceOutcome = Union[Balanced, Unbalanced]


def decide_balance(system: BalancingSystem) -> BalanceOutcome:
    """Balanced iff the summed system is feasible; certificates either way.

    One phase 1 decides the forest.  Its candidate row is the sum of all
    candidate variables >= 1; every other right-hand side is 0, so the rows
    are a cone and the sum reaches 1 iff some single candidate does.  A
    feasible point, scaled to integers, is the balancing vector and its
    least positive candidate the positive edge.  A Farkas answer is the
    forest's one refutation, covering all candidates.  An empty candidate
    set is unbalanced outright.  Forests that decide_forests settles by
    reusing an earlier vector are decided, and balanced, without this call.
    """
    if not system.candidates:
        return Unbalanced(())
    found = solve_feasibility(system.linear_system(system.candidates))
    if isinstance(found, Farkas):
        return Unbalanced(((system.candidates, found),))
    alpha = tuple(scale_to_integers(found.witness)[0])
    positive_edge = next(k for k in system.candidates if alpha[k] > 0)
    assert check_feasible(system.linear_system((positive_edge,)), alpha)
    return Balanced(alpha=alpha, positive_edge=positive_edge)


def decide_forests(
    dcrn: DomCRN,
    forests: Iterable[ExteriorForest],
    nontriviality: str = TRUE_REACTIONS,
) -> Iterator[tuple[ExteriorForest, BalanceOutcome]]:
    """Each forest with its balance outcome, in order, lazily.

    Let alpha balance forest F, and let F' make F's choice at every exterior
    complex whose chosen edge has alpha > 0.  Then alpha balances F' too.
    supp(alpha) lies in F', so (C1) and (C2) hold.  alpha is zero off its
    support, so every complex has the same inflow under F' as under F; F'
    keeps each positive outflow, and where F's choice has alpha = 0, (C3)
    for F forced the inflow to 0, so (C3) holds.  The positive edge is a
    choice F' keeps, so it is a candidate of F' under either reading.  A
    forest whose choices contain the positive choices of an earlier balanced
    forest is therefore decided as that Balanced by a set inclusion, with no
    LP; every other forest gets one decide_balance.
    """
    known: list[tuple[frozenset[tuple[int, int]], Balanced]] = []
    for forest in forests:
        choices = set(forest.choices)
        outcome = next((b for pinned, b in known if pinned <= choices), None)
        if outcome is None:
            outcome = decide_balance(build_balancing_system(dcrn, forest, nontriviality))
            if isinstance(outcome, Balanced):
                pinned = frozenset((y, v) for y, v in forest.choices if outcome.alpha[v] > 0)
                known.append((pinned, outcome))
        yield forest, outcome


def verify_balance_outcome(
    dcrn: DomCRN,
    forest: ExteriorForest,
    outcome: BalanceOutcome,
    nontriviality: str = TRUE_REACTIONS,
) -> bool:
    """Audit a balance outcome by direct exact evaluation, independent of the solver."""
    if not forest_is_valid(dcrn, forest):
        return False
    system = build_balancing_system(dcrn, forest, nontriviality)
    if isinstance(outcome, Balanced):
        if outcome.positive_edge not in system.candidates:
            return False
        if any(a != int(a) for a in outcome.alpha):
            return False
        return check_feasible(system.linear_system((outcome.positive_edge,)), outcome.alpha)
    if isinstance(outcome, Unbalanced):
        covered = tuple(k for cands, _ in outcome.witnesses for k in cands)
        if covered != system.candidates:
            return False
        return all(
            check_farkas(system.linear_system(cands), cert)
            for cands, cert in outcome.witnesses
        )
    return False
