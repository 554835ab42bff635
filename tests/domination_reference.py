"""References for the domination set and the shrink-to-terminal fixpoint.

`ReactionNetwork.domination` compares each complex only with those of
smaller molecule count; `all_pairs_domination_set` compares every ordered
pair, and the admissibility test of `build_dom_crn` checks its edges
against it.  `shrink_to_terminal`
makes one pass of rounds over blocks it is handed or condenses once, and
condenses afresh only after dropping an edge inside a block; `shrink_rounds`
builds and condenses a fresh expanded graph every round.  Each pair must
give the same answer.
"""

from operator import ge
from typing import Sequence

from crnextinct.domination import DomCRN, dom_graph
from crnextinct.graphs import GraphEdge, terminal_complexes
from crnextinct.model import ReactionNetwork


def all_pairs_domination_set(net: ReactionNetwork) -> list[GraphEdge]:
    coeffs = [c.coeffs for c in net.complexes]
    return [
        GraphEdge(i, j)
        for i, big in enumerate(coeffs)
        for j, small in enumerate(coeffs)
        if i != j and all(map(ge, big, small))
    ]


def shrink_rounds(net: ReactionNetwork, dom_edges: Sequence[GraphEdge]) -> DomCRN:
    edges = tuple(dom_edges)
    while True:
        g = dom_graph(net, edges)
        terminals = terminal_complexes(g)
        kept = tuple(e for e in edges if e.dst not in terminals and e.src not in terminals)
        if kept == edges:
            return DomCRN(net, g, terminals)
        edges = kept
