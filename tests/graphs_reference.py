"""Reference graph answers the package's faster routines are tested against.

The package reads weak components off its one SCC routine (every edge also
reversed); this module keeps the classical disjoint-set computation beside
it, and strong components from reach sets, the definition the routine is
tested against.  `is_absorbing_set` tests closure and reachability; this
module keeps the definition, terminal complexes from transitive closure.
"""

from __future__ import annotations

from crnextinct.graphs import ReactionGraph


def union_find_linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Weakly connected components by union-find, ordered by smallest member."""
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in g.edges:
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(b) for b in groups.values()), key=min)


def reach_sets(g: ReactionGraph) -> list[set[int]]:
    """Per vertex, every vertex it reaches (itself included), by repeated relaxation."""
    reach = [{v} for v in range(g.n)]
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if not reach[e.dst] <= reach[e.src]:
                reach[e.src] |= reach[e.dst]
                changed = True
    return reach


def reach_set_sccs(g: ReactionGraph) -> list[frozenset[int]]:
    """Per vertex, its strongly connected component: the vertices it reaches that reach it back."""
    reach = reach_sets(g)
    return [frozenset(w for w in reach[v] if v in reach[w]) for v in range(g.n)]


def definition_is_absorbing_set(g: ReactionGraph, absorbing) -> bool:
    """The definition: the set holds every terminal complex and no edge leaves it.

    A complex is terminal when every complex it reaches reaches it back; no
    condensation is read.
    """
    aset = set(absorbing)
    reach = reach_sets(g)
    terminal = {v for v in range(g.n) if all(v in reach[w] for w in reach[v])}
    return terminal <= aset and all(e.dst in aset for e in g.edges if e.src in aset)
