"""Exhaustive discrete state-space exploration: the ground truth the engine is judged against.

States are tuples of molecular counts.  From a root state the oracle computes
the full closure under single reaction firings (finite for subconservative
networks; a hard cap guards everything else), labels states recurrent or
transient through terminal strongly connected components, and reads every
recurrence and extinction answer off those labels (recurrent_complexes).

The budgeted sweep over every root (find_recurrent_witness) builds one shared
closure instead: each root adds only the states no earlier root reached, the
new part is condensed once, and each component's recurrent complexes follow
from its successor components' by a bitmask recurrence.  One hard cap bounds
the shared closure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Optional, Sequence

from .graphs import scc_ids, sink_components
from .model import Complex, ReactionNetwork, State, fire, is_charged


class StateCapExceeded(RuntimeError):
    """Exploration found more states than the safety cap allows."""

    def __init__(self, cap: int):
        super().__init__(
            f"state count exceeded cap {cap}; the reachable space may be infinite"
        )
        self.cap = cap


@dataclass
class StateGraph:
    """Reachability closure of one root state, with SCC condensation labels."""

    net: ReactionNetwork
    root: State
    states: list[State]
    index: dict[State, int]
    edges: list[tuple[int, int, int]]  # (state, reaction, state)
    succ: list[list[int]]
    scc_of: list[int]
    scc_terminal: list[bool]


def _grow(
    net: ReactionNetwork,
    start: State,
    states: list[State],
    index: dict[State, int],
    succ: list[list[int]],
    edges: list[tuple[int, int, int]],
    hard_cap: int,
) -> None:
    """Add a new state and every state reachable from it that is not stored yet.

    The stored states must already be closed under firing, so only the new
    ones are expanded, in breadth-first order: their ids run on from the old
    length, and each gets its successors from one `fire` per reaction.
    Raises StateCapExceeded when the store would pass `hard_cap` states.
    """

    def add(state: State) -> int:
        if len(states) >= hard_cap:
            raise StateCapExceeded(hard_cap)
        index[state] = len(states)
        states.append(state)
        succ.append([])
        return index[state]

    i = add(start)
    while i < len(states):
        state = states[i]
        for k in range(net.r):
            nxt = fire(net, state, k)
            if nxt is None:
                continue
            j = index.get(nxt)
            if j is None:
                j = add(nxt)
            edges.append((i, k, j))
            succ[i].append(j)
        i += 1


def explore(net: ReactionNetwork, root: Sequence[int], hard_cap: int = 200000) -> StateGraph:
    """Breadth-first closure of the root under single firings.

    Raises StateCapExceeded when more than `hard_cap` states appear, which for
    non-subconservative networks is the only stopping guarantee.
    """
    start: State = tuple(int(x) for x in root)
    if len(start) != net.m or any(x < 0 for x in start):
        raise ValueError(f"root must be a nonnegative vector of length {net.m}")
    states: list[State] = []
    index: dict[State, int] = {}
    succ: list[list[int]] = []
    edges: list[tuple[int, int, int]] = []
    _grow(net, start, states, index, succ, edges, hard_cap)
    scc_of = scc_ids(succ)
    return StateGraph(
        net, start, states, index, edges, succ, scc_of, sink_components(succ, scc_of)
    )


def recurrent_states(g: StateGraph) -> list[bool]:
    """Per-state labels: recurrent iff the state's SCC is terminal."""
    return [g.scc_terminal[c] for c in g.scc_of]


def complex_recurrent(net: ReactionNetwork, g: StateGraph, y: Complex) -> bool:
    """Can every reachable state still reach a state charging the complex?

    The definition, kept as the reference that recurrent_complexes is tested
    against: reverse reachability from the charging states covers the graph.
    """
    n = len(g.states)
    charged = [is_charged(y, s) for s in g.states]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, _, j in g.edges:
        pred[j].append(i)
    can = list(charged)
    queue = deque(i for i in range(n) if can[i])
    while queue:
        j = queue.popleft()
        for i in pred[j]:
            if not can[i]:
                can[i] = True
                queue.append(i)
    return all(can)


def _charged_mask(net: ReactionNetwork, states: Sequence[State]) -> int:
    """Bitmask of the complexes that some of the states charge (bit i: complex i)."""
    return sum(
        1 << ci
        for ci, cpx in enumerate(net.complexes)
        if any(is_charged(cpx, s) for s in states)
    )


def recurrent_complexes(net: ReactionNetwork, g: StateGraph) -> frozenset[int]:
    """Complex indices recurrent from the graph's root.

    A complex is recurrent iff every terminal SCC of explore's labels charges
    it somewhere; on finite graphs this agrees with complex_recurrent.
    """
    members: dict[int, list[State]] = {}
    for i, c in enumerate(g.scc_of):
        if g.scc_terminal[c]:
            members.setdefault(c, []).append(g.states[i])
    alive = reduce(and_, (_charged_mask(net, group) for group in members.values()))
    return frozenset(ci for ci in range(net.n) if alive >> ci & 1)


def _targets(net: ReactionNetwork, complexes: Iterable[int]) -> set[int]:
    """The listed complex indices, each checked to lie in 0..n-1."""
    targets = set(complexes)
    bad = [ci for ci in targets if ci not in range(net.n)]
    if bad:
        raise ValueError(f"complex indices {bad} out of range 0..{net.n - 1}")
    return targets


def extinction_on(net: ReactionNetwork, g: StateGraph, complexes: Iterable[int]) -> bool:
    """True when every listed complex is transient from the graph's root."""
    return recurrent_complexes(net, g).isdisjoint(_targets(net, complexes))


def states_with_total(m: int, total: int) -> Iterable[State]:
    """All length-m nonnegative integer vectors with the given coordinate sum."""
    if m == 0:
        if total == 0:
            yield ()
        return
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in states_with_total(m - 1, total - head):
            yield (head,) + rest


def guaranteed_extinction_on(
    net: ReactionNetwork,
    complexes: Iterable[int],
    budget: int = 6,
    hard_cap: int = 200000,
) -> bool:
    """Extinction from every root with coordinate sum up to `budget`.

    A budgeted under-approximation of quantifying over the whole state space;
    callers report the budget alongside the answer.  The answer is True iff
    find_recurrent_witness finds no root, over the same shared closure and
    under the same cap on all of it.
    """
    return find_recurrent_witness(net, complexes, budget, hard_cap) is None


def find_recurrent_witness(
    net: ReactionNetwork,
    complexes: Iterable[int],
    budget: int = 6,
    hard_cap: int = 200000,
) -> Optional[tuple[State, int]]:
    """The first (root, complex) pair in budget where a listed complex is recurrent.

    Roots go by total, then in states_with_total order; the complex is the
    least listed one recurrent from that root.  None when there is no such pair.

    All roots share one closure.  A root not yet in it adds the states that are
    new; since the old part is closed under firing, no new state shares an SCC
    with an old one, so only the new part is condensed (scc_ids, whose ids are
    reverse topological).  In id order, a terminal component's mask is the set
    of complexes its states charge and any other's is the intersection of its
    successor components' masks; a root's recurrent complexes are the mask of
    its component.  The sweep stops at the first root that hits a target.
    Raises StateCapExceeded when the shared closure passes `hard_cap` states.
    """
    targets = _targets(net, complexes)
    wanted = sum(1 << ci for ci in targets)
    states: list[State] = []
    index: dict[State, int] = {}
    succ: list[list[int]] = []
    edges: list[tuple[int, int, int]] = []  # kept by _grow for explore; unread here
    comp_of: list[int] = []
    masks: list[int] = []  # per component, in scc_ids order
    for total in range(budget + 1):
        for root in states_with_total(net.m, total):
            if root not in index:
                base = len(states)
                _grow(net, root, states, index, succ, edges, hard_cap)
                new = range(base, len(states))
                local = scc_ids([[j - base for j in succ[i] if j >= base] for i in new])
                groups: list[list[int]] = [[] for _ in range(max(local) + 1)]
                for v, c in enumerate(local, start=base):
                    groups[c].append(v)
                    comp_of.append(len(masks) + c)
                for group in groups:
                    out = {comp_of[w] for v in group for w in succ[v]} - {len(masks)}
                    masks.append(
                        reduce(and_, (masks[d] for d in out))
                        if out
                        else _charged_mask(net, [states[v] for v in group])
                    )
            hit = masks[comp_of[index[root]]] & wanted
            if hit:
                return root, (hit & -hit).bit_length() - 1
    return None
