"""Exhaustive discrete state-space exploration: the ground truth the engine is judged against.

States are tuples of molecular counts.  From a root state the oracle computes
the full closure under single reaction firings (finite for subconservative
networks; a hard cap guards everything else), labels states recurrent or
transient through terminal strongly connected components, and reads every
recurrence and extinction answer off those labels (recurrent_complexes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .domination import domination_set
from .graphs import reaction_graph, scc_ids, sink_components, strong_linkage_classes
from .model import Complex, ReactionNetwork, State, fire, is_charged


class StateCapExceeded(RuntimeError):
    """Exploration found more states than the safety cap allows."""

    def __init__(self, cap: int):
        super().__init__(
            f"state count exceeded cap {cap}; the reachable space may be infinite"
        )
        self.cap = cap


class RecurrenceLawViolation(AssertionError):
    """A structural recurrence law failed: internal arithmetic or graph bug."""


@dataclass
class StateGraph:
    """Reachability closure of one root state, with SCC condensation labels."""

    net: ReactionNetwork
    root: State
    states: list[State]
    index: dict[State, int]
    edges: list[tuple[int, int, int]]  # (state, reaction, state)
    succ: list[list[int]]
    parent: list[Optional[tuple[int, int]]]  # BFS tree: (parent state, reaction)
    scc_of: list[int]
    scc_terminal: list[bool]


@dataclass(frozen=True)
class Trace:
    """A firing sequence from a start state, with its per-reaction count vector."""

    start: State
    reactions: tuple[int, ...]

    def counts(self, r: int) -> tuple[int, ...]:
        n = [0] * r
        for k in self.reactions:
            n[k] += 1
        return tuple(n)

    def replay(self, net: ReactionNetwork) -> State:
        state = self.start
        for k in self.reactions:
            nxt = fire(net, state, k)
            if nxt is None:
                raise ValueError(f"trace fires uncharged reaction {k} at {state}")
            state = nxt
        return state


def explore(net: ReactionNetwork, root: Sequence[int], hard_cap: int = 200000) -> StateGraph:
    """Breadth-first closure of the root under single firings.

    Raises StateCapExceeded when more than `hard_cap` states appear, which for
    non-subconservative networks is the only stopping guarantee.
    """
    start: State = tuple(int(x) for x in root)
    if len(start) != net.m or any(x < 0 for x in start):
        raise ValueError(f"root must be a nonnegative vector of length {net.m}")
    states = [start]
    index = {start: 0}
    edges: list[tuple[int, int, int]] = []
    succ: list[list[int]] = [[]]
    parent: list[Optional[tuple[int, int]]] = [None]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        state = states[i]
        for k in range(net.r):
            nxt = fire(net, state, k)
            if nxt is None:
                continue
            j = index.get(nxt)
            if j is None:
                if len(states) >= hard_cap:
                    raise StateCapExceeded(hard_cap)
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                succ.append([])
                parent.append((i, k))
                queue.append(j)
            edges.append((i, k, j))
            succ[i].append(j)
    scc_of = scc_ids(succ)
    return StateGraph(
        net, start, states, index, edges, succ, parent, scc_of, sink_components(succ, scc_of)
    )


def recurrent_states(g: StateGraph) -> list[bool]:
    """Per-state labels: recurrent iff the state's SCC is terminal."""
    return [g.scc_terminal[c] for c in g.scc_of]


def trace_to(g: StateGraph, state: Sequence[int]) -> Trace:
    """The BFS-tree firing sequence from the root to a stored state."""
    i = g.index[tuple(state)]
    seq: list[int] = []
    while g.parent[i] is not None:
        i, k = g.parent[i]
        seq.append(k)
    return Trace(g.root, tuple(reversed(seq)))


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


def recurrent_complexes(net: ReactionNetwork, g: StateGraph) -> frozenset[int]:
    """Complex indices recurrent from the graph's root.

    A complex is recurrent iff every terminal SCC of explore's labels charges
    it somewhere; on finite graphs this agrees with complex_recurrent.
    """
    alive: Optional[set[int]] = None
    members: dict[int, list[int]] = {}
    for i, c in enumerate(g.scc_of):
        if g.scc_terminal[c]:
            members.setdefault(c, []).append(i)
    for group in members.values():
        charged_here = {
            ci
            for ci, cpx in enumerate(g.net.complexes)
            if any(is_charged(cpx, g.states[i]) for i in group)
        }
        alive = charged_here if alive is None else alive & charged_here
    return frozenset(alive or set())


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
    callers report the budget alongside the answer.  The roots are
    find_recurrent_witness's, and the answer is True iff it finds none.
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
    """
    targets = _targets(net, complexes)
    for total in range(budget + 1):
        for root in states_with_total(net.m, total):
            g = explore(net, root, hard_cap)
            hit = recurrent_complexes(net, g) & targets
            if hit:
                return g.root, min(hit)
    return None


@dataclass(frozen=True)
class SlcRecurrenceReport:
    slc_labels: tuple[tuple[frozenset[int], bool], ...]  # (SLC, recurrent?)
    recurrent_complexes: frozenset[int]


def slc_recurrence_report(net: ReactionNetwork, g: StateGraph) -> SlcRecurrenceReport:
    """Label each SLC recurrent/transient from the root and assert the structural laws.

    Checks, raising RecurrenceLawViolation on failure:
      (a) complexes within one SLC share a single recurrence label;
      (b) along every edge of the fully expanded graph (all true reactions and
          all domination relations), recurrence propagates forward, hence
          transience backward;
      (c) consequently the recurrent complex set is closed in that graph and
          is a union of SLCs.
    """
    alive = recurrent_complexes(net, g)
    slcs = strong_linkage_classes(reaction_graph(net))
    labels = []
    for block in slcs:
        flags = {ci in alive for ci in block}
        if len(flags) > 1:
            raise RecurrenceLawViolation(f"SLC {sorted(block)} mixes recurrent and transient complexes")
        labels.append((block, flags.pop()))
    edges = [(net.source_index[k], net.target_index[k]) for k in range(net.r)]
    edges += [(e.src, e.dst) for e in domination_set(net)]
    for src, dst in edges:
        if src in alive and dst not in alive:
            raise RecurrenceLawViolation(
                f"recurrence fails to propagate along edge {src}->{dst} "
                "of the fully expanded graph"
            )
    return SlcRecurrenceReport(tuple(labels), alive)


def subconservation_monotone(
    net: ReactionNetwork, g: StateGraph, witness: Sequence
) -> bool:
    """Does c . X never increase along any explored edge?  (Constant for conservative c.)"""

    def weight(state: State):
        return sum(c * x for c, x in zip(witness, state))

    return all(weight(g.states[j]) <= weight(g.states[i]) for i, _, j in g.edges)
