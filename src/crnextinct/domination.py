"""Domination relations, domination-expanded networks, and admissibility.

A complex dominates another when it is componentwise at least as large and the
two differ.  The relation is a table of the network,
`ReactionNetwork.domination`, built once per network: the expansion
(expansion_edges) and the admissibility check (build_dom_crn) both read it.
Adding some of these relations as extra directed edges yields a
domination-expanded network.  Such an expansion is admissible for an
absorbing complex set Y of the expanded graph when no added edge duplicates a
true reaction or another added edge, and no added edge points into Y.  A
candidate's structural checks all read its one expanded graph, `DomCRN.graph`,
condensed at most once.

In a subconservative network, with witness c >= 1, the potential c.y never
rises along a reaction and strictly falls along every domination edge, so no
domination edge lies on a cycle: every expansion has the strong linkage
classes of the network graph.  So the search hands every seed the network
graph's one condensation, and `shrink_to_terminal` reaches the fixpoint in
one pass of rounds over those blocks, with no further SCC search.  The
search checks that order once per network (engine._candidate_pairs); it is
its one structural guard, and `check_slc_coincidence` is the definition the
tests check every candidate against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import (
    Condensation,
    GraphEdge,
    ReactionGraph,
    is_absorbing_set,
    strong_linkage_classes,
    terminal_complexes,
    terminal_slcs,
)
from .model import ReactionNetwork


class AdmissibilityError(ValueError):
    """A proposed domination expansion violates one of the admissibility conditions."""

    def __init__(self, condition: str, message: str, edge: Optional[GraphEdge] = None):
        super().__init__(message)
        self.condition = condition
        self.edge = edge


class DomCRN(NamedTuple):
    """A validated domination-expanded network with its absorbing complex set.

    `graph` (see dom_graph) is the expanded graph: the true reactions, then
    the domination edges, condensed at most once.  Construct through
    build_dom_crn, shrink_to_terminal or maximal_admissible; direct
    construction skips validation.  The tests use it to reproduce
    deliberately inadmissible expansions.  engine._candidate_pairs uses it
    for pairs admissible by construction: distinct expansion edges, none
    touching a set that is absorbing on their graph (enumerated as one, or
    tested by is_absorbing_set, as build_dom_crn tests it).
    """

    net: ReactionNetwork
    graph: ReactionGraph
    absorbing: frozenset[int]

    @property
    def dom_edges(self) -> tuple[GraphEdge, ...]:
        """The domination edges, from a dominating complex to one it dominates."""
        return self.graph.edges[self.net.r :]

    def exterior_complexes(self) -> list[int]:
        return [i for i in range(self.net.n) if i not in self.absorbing]

    @property
    def d(self) -> int:
        return len(self.graph.edges) - self.net.r


def domination_set(net: ReactionNetwork) -> list[GraphEdge]:
    """The network's domination relation (ReactionNetwork.domination), as a fresh list."""
    return list(net.domination)


def dom_graph(net: ReactionNetwork, dom_edges: Sequence[GraphEdge]) -> ReactionGraph:
    """Reaction graph of the expanded network: true reactions plus domination edges.

    Reactions in index order, then domination edges: edge v is balancing variable v.
    """
    return ReactionGraph(net.n, net.graph.edges + tuple(dom_edges))


def expansion_edges(net: ReactionNetwork) -> tuple[GraphEdge, ...]:
    """The domination relations that do not duplicate a true reaction, in the relation's order."""
    reactions = set(net.graph.edges)
    return tuple(e for e in net.domination if e not in reactions)


def build_dom_crn(
    net: ReactionNetwork,
    dom_edges: Iterable[GraphEdge],
    absorbing: Iterable[int],
) -> DomCRN:
    """Validate and assemble a domination-expanded network.

    Raises AdmissibilityError, checking the edges first: "domination" when an
    edge is not a domination relation, duplicates a true reaction or repeats
    an earlier edge; then "absorbing" when the set names a complex outside
    0..n-1, "targets-absorbing" when an edge targets it, and "absorbing" when
    it is not absorbing on the expanded graph.
    """
    edges = tuple(dom_edges)
    relation, taken = set(net.domination), set(net.graph.edges)
    for e in edges:
        if e not in relation:
            raise AdmissibilityError(
                "domination",
                f"edge {e.src}->{e.dst} is not a domination relation of the network",
                e,
            )
        if e in taken:
            raise AdmissibilityError(
                "domination",
                f"domination edge {e.src}->{e.dst} duplicates a true reaction or an earlier edge",
                e,
            )
        taken.add(e)
    aset = frozenset(absorbing)
    if not aset <= set(range(net.n)):
        raise AdmissibilityError("absorbing", "absorbing set contains an invalid complex index")
    for e in edges:
        if e.dst in aset:
            raise AdmissibilityError(
                "targets-absorbing",
                f"domination edge {e.src}->{e.dst} targets the absorbing set",
                e,
            )
    dcrn = DomCRN(net, dom_graph(net, edges), aset)
    if not is_absorbing_set(dcrn.graph, aset):
        raise AdmissibilityError(
            "absorbing",
            "set is not absorbing on the expanded graph "
            "(must contain every terminal complex and have no outgoing edges)",
        )
    return dcrn


def shrink_to_terminal(
    net: ReactionNetwork, dom_edges: Sequence[GraphEdge], blocks: Optional[Condensation] = None
) -> DomCRN:
    """Delete every domination edge touching the terminal complexes, until stable.

    `dom_edges` are distinct expansion edges (expansion_edges).  `blocks`,
    when given, holds the expanded graph's SCCs, not its sink flags: in a
    subconservative network, the network graph's.  Without it, the
    expanded graph is condensed.

    One pass of rounds over the blocks.  Each block counts the edges leaving
    it and is a sink at 0; an edge from a sink stays inside it, so the edges
    touching a terminal complex are those entering a sink.  A round drops
    the domination edges entering the blocks that became sinks in the round
    before (the first round, every sink), and a block whose count reaches 0
    is a sink in the next round.  This is the fixpoint of the loop that
    condenses each round's graph afresh: a dropped edge inside a block (one
    that closes a cycle, never in a subconservative network) may split it,
    but every edge entering it is dropped with it and every other block
    keeps its exits.  Only then is the fixpoint's graph condensed afresh.
    The absorbing set is its terminal complexes, which no kept edge touches.
    """
    reactions, edges = net.graph.edges, tuple(dom_edges)
    if blocks is None:
        blocks = dom_graph(net, edges).condensation
    comp_of, _, members = blocks
    exits, entering = [0] * len(members), [[] for _ in members]
    for e in reactions + edges:
        if comp_of[e.src] != comp_of[e.dst]:
            exits[comp_of[e.src]] += 1
    for e in edges:
        entering[comp_of[e.dst]].append(e)
    sinks, dropped = [b for b, count in enumerate(exits) if not count], set()
    for b in sinks:  # the list grows by a round at a time, each after the one before
        for e in entering[b]:
            dropped.add(e)
            a = comp_of[e.src]
            if a != b:
                exits[a] -= 1
                if not exits[a]:
                    sinks.append(a)
    g = ReactionGraph(net.n, reactions + tuple(e for e in edges if e not in dropped))
    if all(comp_of[e.src] != comp_of[e.dst] for e in dropped):  # no block split
        # fill the slot that cached_property would fill on first use
        g.__dict__["condensation"] = Condensation(comp_of, tuple(not n for n in exits), members)
    return DomCRN(net, g, terminal_complexes(g))


def maximal_admissible(net: ReactionNetwork) -> DomCRN:
    """The default expansion: all domination relations, shrunk to the terminal fixpoint."""
    return shrink_to_terminal(net, expansion_edges(net))


def check_slc_coincidence(
    base: ReactionGraph, expanded: ReactionGraph
) -> tuple[frozenset[int], ...]:
    """The strong linkage classes of an expansion that break SLC coincidence.

    `base` is the network's graph (`ReactionNetwork.graph`), built once;
    `expanded` is usually `DomCRN.graph`.  Each is condensed at most once.
    A class offends when it is no class of the base, or when it is terminal
    in the expansion but not in the base.  For a subconservative network
    none does, so the answer is empty.  The search no longer calls it: the
    witness's order on the expansion edges, checked once per network in
    engine._candidate_pairs, implies it.
    """
    base_slcs = set(strong_linkage_classes(base))
    base_terminal = set(terminal_slcs(base))
    expanded_terminal = set(terminal_slcs(expanded))
    return tuple(
        b
        for b in strong_linkage_classes(expanded)
        if b not in base_slcs or (b in expanded_terminal and b not in base_terminal)
    )
