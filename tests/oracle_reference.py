"""Checks on explored state graphs that only the tests use.

Firing traces rebuilt from a graph's edges, the monotonicity of a
subconservation witness along every edge, and the per-SLC recurrence report
with its structural laws.  Each reads a `crnextinct.oracle.StateGraph` and
nothing else of the oracle's internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from crnextinct.domination import domination_set
from crnextinct.graphs import strong_linkage_classes
from crnextinct.model import ReactionNetwork, State, fire
from crnextinct.oracle import StateGraph, recurrent_complexes


class RecurrenceLawViolation(AssertionError):
    """A structural recurrence law failed: internal arithmetic or graph bug."""


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


def trace_to(g: StateGraph, state: Sequence[int]) -> Trace:
    """A firing sequence from the root to a stored state.

    Needs only that every state but the root (id 0) has an edge in from a
    smaller id, as its discoverer gives it.  StateGraph.edges lists edges by
    source id, so the first edge into a state comes from a smaller id, and
    following first edges back strictly lowers the id until the root.
    """
    parent: dict[int, tuple[int, int]] = {}
    for i, k, j in g.edges:
        if j != 0 and j not in parent:
            parent[j] = (i, k)
    i = g.index[tuple(state)]
    seq: list[int] = []
    while i != 0:
        i, k = parent[i]
        seq.append(k)
    return Trace(g.root, tuple(reversed(seq)))


def subconservation_monotone(net: ReactionNetwork, g: StateGraph, witness: Sequence) -> bool:
    """Does c . X never increase along any explored edge?  (Constant for conservative c.)"""

    def weight(state: State):
        return sum(c * x for c, x in zip(witness, state))

    return all(weight(g.states[j]) <= weight(g.states[i]) for i, _, j in g.edges)


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
    slcs = strong_linkage_classes(net.graph)
    labels = []
    for block in slcs:
        flags = {ci in alive for ci in block}
        if len(flags) > 1:
            raise RecurrenceLawViolation(f"SLC {sorted(block)} mixes recurrent and transient complexes")
        labels.append((block, flags.pop()))
    edges = [(e.src, e.dst) for e in net.graph.edges]
    edges += [(e.src, e.dst) for e in domination_set(net)]
    for src, dst in edges:
        if src in alive and dst not in alive:
            raise RecurrenceLawViolation(
                f"recurrence fails to propagate along edge {src}->{dst} "
                "of the fully expanded graph"
            )
    return SlcRecurrenceReport(tuple(labels), alive)
