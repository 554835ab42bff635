"""Union-find linkage classes: the reference graphs.linkage_classes is tested against.

The package reads weak components off its one SCC routine (every edge also
reversed); this module keeps the classical disjoint-set computation beside it.
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
