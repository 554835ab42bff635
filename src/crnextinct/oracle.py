"""Exhaustive discrete state-space exploration: the ground truth the engine is judged against.

States are tuples of molecular counts.  A StateGraph holds states closed under
single reaction firings (finite for subconservative networks; a hard cap
guards everything else), condensed into strongly connected components.  One
routine grows it (_grow): one graphs.condense search from a root discovers
the states it reaches that are not stored yet, numbering them in depth-first
discovery order, and condenses them as it goes; each new component gets the
bitmask of the complexes recurrent from it, from the components its edges
enter, or, for a terminal one, from the complexes its states charge.
Every recurrence and extinction answer is read off those labels, so no
successor list is stored; StateGraph.edges fires the stored states again.
The search counts the hard cap itself, so the network's successor kernel
(ReactionNetwork.next_states, one function compiled once per network from
its firing table, at O(m * r) cost, about 1 ms for EnvZ) is its expansion
callback as it stands; terminal components' charged complexes are found from
ReactionNetwork.needs.  The public `fire` reads the firing table per reaction
and stays the reference the kernel is tested against.

explore grows an empty graph from one root.  The budgeted sweep over every
root (find_recurrent_witness) grows one shared graph root by root, so each
reachable state is expanded once however many roots reach it; one hard cap
bounds the shared graph.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations_with_replacement
from operator import and_, sub
from typing import Iterable, Optional, Sequence

from .graphs import StateCapExceeded, condense  # condense raises it; callers import it from here
from .model import Complex, ReactionNetwork, State, fire, is_charged


class StateGraph:
    """States closed under firing, condensed into strongly connected components.

    A mutable store that _grow fills: `StateGraph(net, root)` is an empty
    graph.  states lists the states by id and index maps each back to its
    id; scc_of gives each state's component, and scc_terminal and masks
    are per component.  Component ids are reverse topological (every edge
    between two components points to the smaller id); masks[c] has bit i
    set when complex i is recurrent from component c.  Edges are not
    stored: `edges` fires the states again.
    """

    def __init__(self, net: ReactionNetwork, root: State):
        self.net, self.root = net, root
        self.states: list[State] = []
        self.index: dict[State, int] = {}
        self.scc_of: list[int] = []
        self.scc_terminal: list[bool] = []
        self.masks: list[int] = []

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(state, reaction, state) triples by source id, fired by `fire` (not the kernel).

        Nothing is stored: each read fires every stored state with every
        reaction again, so a caller that reads the edges several times
        should take one snapshot (`edges = g.edges`) and reuse it.
        """
        net, index = self.net, self.index
        return [
            (i, k, index[nxt])
            for i, state in enumerate(self.states)
            for k in range(net.r)
            if (nxt := fire(net, state, k)) is not None
        ]


def _charged_mask(net: ReactionNetwork, states: Sequence[State]) -> int:
    """Bitmask of the complexes that some of the states charge (bit i: complex i)."""
    mask = 0
    for ci, need in enumerate(net.needs):
        for state in states:
            for s, c in need:
                if state[s] < c:
                    break
            else:
                mask |= 1 << ci
                break
    return mask


def _grow(g: StateGraph, start: State, hard_cap: int) -> None:
    """Add a state not stored yet and every new state it reaches, condensed and labelled.

    The stored states are closed under firing and condensed, so one
    graphs.condense search from `start`, expanding states with the network's
    successor kernel, discovers exactly the new ones.  A new component with
    no exit is terminal, its mask the complexes its states charge; any
    other's mask is the AND of its exits'.  Raises StateCapExceeded when a
    new state would pass `hard_cap` stored states, counted by the search.
    """
    net, states, masks, terminal = g.net, g.states, g.masks, g.scc_terminal
    grown = condense((start,), net.next_states, g.index, states, g.scc_of, len(masks), hard_cap)
    for block, exits in grown:
        terminal.append(not exits)
        masks.append(
            reduce(and_, map(masks.__getitem__, exits)) if exits
            else _charged_mask(net, [states[v] for v in block])
        )


def _check_count(name: str, value: int, least: int) -> None:
    """ValueError unless the value is an int (a bool is not) of at least `least`."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def explore(net: ReactionNetwork, root: Sequence[int], hard_cap: int = 200000) -> StateGraph:
    """The closure of the root under single firings, condensed; the root is state 0.

    Raises StateCapExceeded when more than `hard_cap` states appear, which for
    non-subconservative networks is the only stopping guarantee, and
    ValueError when `hard_cap` is not an int of at least 1 or the root is not
    a vector of net.m ints (a bool is not one) of at least 0.
    """
    _check_count("hard_cap", hard_cap, 1)
    start: State = tuple(root)
    if len(start) != net.m:
        raise ValueError(f"root must be a nonnegative vector of length {net.m}")
    for x in start:
        _check_count("root entry", x, 0)
    g = StateGraph(net, start)
    _grow(g, start, hard_cap)
    return g


def recurrent_states(g: StateGraph) -> list[bool]:
    """Per-state labels: recurrent iff the state's SCC is terminal."""
    return [g.scc_terminal[c] for c in g.scc_of]


def complex_recurrent(net: ReactionNetwork, g: StateGraph, y: Complex) -> bool:
    """Can every reachable state still reach a state charging the complex?

    The definition, kept as the reference that recurrent_complexes is tested
    against: reverse reachability from the charging states covers the graph.
    Each call reads `g.edges`, which fires every stored state again, so
    checking several complexes this way refires the graph once per complex;
    a caller that checks many should build the predecessor lists from one
    snapshot of `g.edges`.
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


def recurrent_complexes(net: ReactionNetwork, g: StateGraph) -> frozenset[int]:
    """Complex indices recurrent from the graph's root: the mask of its component.

    A complex is recurrent iff every terminal SCC the root reaches charges it
    somewhere; on finite graphs this agrees with complex_recurrent.
    """
    alive = g.masks[g.scc_of[g.index[g.root]]]
    return frozenset(ci for ci in range(net.n) if alive >> ci & 1)


def _targets(net: ReactionNetwork, complexes: Iterable[int]) -> set[int]:
    """The listed complex indices, each checked to be an int (a bool is not one) in 0..n-1."""
    listed = list(complexes)
    wrong = [ci for ci in listed if type(ci) is not int]
    if wrong:
        raise ValueError(f"complex indices {wrong} are not ints")
    targets = set(listed)
    bad = [ci for ci in targets if ci not in range(net.n)]
    if bad:
        raise ValueError(f"complex indices {bad} out of range 0..{net.n - 1}")
    return targets


def extinction_on(net: ReactionNetwork, g: StateGraph, complexes: Iterable[int]) -> bool:
    """True when every listed complex is transient from the graph's root."""
    return recurrent_complexes(net, g).isdisjoint(_targets(net, complexes))


def states_with_total(m: int, total: int) -> Iterable[State]:
    """All length-m nonnegative integer vectors with the given coordinate sum, in lexicographic order.

    Stars and bars: cuts c1 <= ... <= c(m-1) in 0..total give the vector
    (c1, c2 - c1, ..., total - c(m-1)), and cuts in lexicographic order give
    vectors in lexicographic order.
    """
    if m == 0:
        if total == 0:
            yield ()
        return
    ends = (total,)
    for cuts in combinations_with_replacement(range(total + 1), m - 1):
        yield tuple(map(sub, cuts + ends, (0,) + cuts))


def guaranteed_extinction_on(
    net: ReactionNetwork,
    complexes: Iterable[int],
    budget: int = 6,
    hard_cap: int = 200000,
) -> bool:
    """Extinction from every root with coordinate sum up to `budget`.

    A budgeted under-approximation of quantifying over the whole state space;
    callers report the budget alongside the answer.  The answer is True iff
    find_recurrent_witness finds no root, over the same shared graph and
    under the same cap on all of it, and it raises the same errors.
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

    All roots share one StateGraph: a root not yet in it grows it (_grow), and
    its recurrent complexes are the mask of its component.  The sweep stops
    at the first root that hits a target.  Raises StateCapExceeded when the
    shared graph passes `hard_cap` states, and ValueError when `budget` is
    not an int of at least 0, `hard_cap` not one of at least 1, or a
    listed complex not an int index in 0..n-1.
    """
    _check_count("budget", budget, 0)
    _check_count("hard_cap", hard_cap, 1)
    targets = _targets(net, complexes)
    wanted = sum(1 << ci for ci in targets)
    g = StateGraph(net, (0,) * net.m)
    index, masks, scc_of = g.index, g.masks, g.scc_of
    for total in range(budget + 1):
        for root in states_with_total(net.m, total):
            i = index.get(root)
            if i is None:
                i = len(g.states)  # _grow numbers the root first
                _grow(g, root, hard_cap)
            hit = masks[scc_of[i]] & wanted
            if hit:
                return root, (hit & -hit).bit_length() - 1
    return None
