"""Reaction-graph analysis: linkage classes, strong linkage classes, absorbing sets.

Vertices are complex indices and an edge is a (source, target) pair, named by
its position in `ReactionGraph.edges`.  A network's graph lists its reactions
in index order; a domination-expanded graph appends its domination edges, so
the same machinery serves both.  Parallel edges and self-loops are permitted.

Partitions are returned as lists of frozensets ordered by their smallest
member, which keeps every derived object deterministic.  Every strong-linkage
answer reads `ReactionGraph.condensation`, computed once per graph: it keeps
the blocks in that order, numbered by their place in it, and each caller gets
a fresh list.  A network's own graph is one of its tables
(`ReactionNetwork.graph`), so it is condensed at most once per network.
This module does not know the network type: model imports it, never the
reverse.

A graph whose strong linkage classes are known without a search, as every
domination expansion of a subconservative network has its network graph's
(see domination.shrink_to_terminal), may be handed its condensation in that
cache slot.  The search trusts this on the strength of one check per
network, that the scaled witness orders every expansion edge
(engine._candidate_pairs); no candidate's graph is condensed to confirm
it.  `is_absorbing_set` needs no condensation: a set is absorbing iff no
edge leaves it and every complex reaches it.

condense is the package's one SCC routine: a depth-first search that
discovers vertices through a callback and condenses them as it goes, keeping
only their keys, ids and components.  A reaction graph is condensed from
every vertex in turn; the oracle grows its capped state graph root by root.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable, Hashable, Iterable, NamedTuple


class StateCapExceeded(RuntimeError):
    """A search found more states (vertices) than its cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"state count exceeded cap {cap}; the reachable space may be infinite")
        self.cap = cap


class GraphEdge(NamedTuple):
    src: int
    dst: int


class Condensation(NamedTuple):
    comp_of: tuple[int, ...]  # per vertex, the index of its block
    sink: tuple[bool, ...]  # per block, True when no edge leaves it
    blocks: tuple[frozenset[int], ...]  # the SCCs, ordered by smallest member


@dataclass(frozen=True)
class ReactionGraph:
    """A directed graph on the complexes 0..n-1; edge v is edges[v].

    Every endpoint is checked to lie in 0..n-1 (ValueError).  The
    condensation is computed once, on first use, or handed in by
    domination.shrink_to_terminal.
    """

    n: int
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        for e in self.edges:
            if not (0 <= e.src < self.n and 0 <= e.dst < self.n):
                raise ValueError(f"edge {e} has endpoint outside 0..{self.n - 1}")

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for src, dst in self.edges:
            out[src].append(dst)
        return out

    @cached_property
    def condensation(self) -> Condensation:
        """The graph's strongly connected components, computed once and shared.

        One condense call from every vertex in turn; its components are
        renumbered by smallest member, the order in which a scan of the
        vertices first meets them, and a block is a sink iff it has no exit.
        """
        index, keys, comp = {}, [], []
        found = condense(range(self.n), self.successors().__getitem__, index, keys, comp)
        ids = list(map(comp.__getitem__, map(index.__getitem__, range(self.n))))  # per vertex
        rank = [-1] * len(found)
        blocks, sink = [], []
        for c in ids:
            if rank[c] < 0:
                rank[c] = len(blocks)
                members, exits = found[c]
                blocks.append(frozenset(map(keys.__getitem__, members)))
                sink.append(not exits)
        comp_of = tuple(map(rank.__getitem__, ids))
        return Condensation(comp_of, tuple(sink), tuple(blocks))


def linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Weakly connected components: the SCCs once every edge is also reversed."""
    both = g.successors()
    for src, dst in g.edges:
        both[dst].append(src)
    keys: list[int] = []
    found = condense(range(g.n), both.__getitem__, {}, keys, [])
    return sorted((frozenset(map(keys.__getitem__, block)) for block, _ in found), key=min)


def condense(
    roots: Iterable[Hashable], expand: Callable[[Any], Iterable[Hashable]], index: dict, keys: list,
    comp: list[int], first: int = 0, cap: int = sys.maxsize,
) -> list[tuple[list[int], list[int]]]:
    """Discover what the roots reach beyond `index` and condense it, in one iterative Tarjan search.

    `expand(key)` lists a vertex's successor keys, called once per new vertex
    as soon as it is met.  That vertex gets the next id, len(keys), so every
    one but a root is discovered along an edge from a smaller id.  Its key
    goes to `index` and `keys`, its component id to `comp`; a vertex already
    in `index` must have its component.  A new vertex that would make the
    stores pass `cap` vertices raises StateCapExceeded(cap).  Components are
    numbered from `first` as they complete, a reverse topological order.
    Returns, per new component, its members (ids ascending) and its exits:
    the components its edges enter, with repeats, empty iff none leaves it.
    """
    found: list[tuple[list[int], list[int]]] = []
    stack: list[int] = []  # Tarjan's stack: ids ascend along it
    exits: list[int] = []  # the exits met by the vertices on the stack, in order
    work = []  # the suspended vertices of the search path
    get = index.get
    for root in roots:
        if root in index:
            continue
        v = low = len(keys)
        if v >= cap:
            raise StateCapExceeded(cap)
        index[root] = v
        keys.append(root)
        comp.append(-1)
        stack.append(v)
        edges = iter(expand(root))
        mark = 0
        while True:
            for key in edges:
                w = get(key)
                if w is None:
                    w = len(keys)
                    if w >= cap:
                        raise StateCapExceeded(cap)
                    index[key] = w
                    keys.append(key)
                    comp.append(-1)
                    stack.append(w)
                    work.append((v, low, mark, edges))
                    v = low = w
                    mark = len(exits)
                    edges = iter(expand(key))
                    break
                c = comp[w]
                if c < 0:  # w is on the stack: v's component is w's
                    if w < low:
                        low = w
                else:
                    exits.append(c)
            else:
                if low == v:
                    c = first + len(found)
                    if stack[-1] == v:  # most blocks are single vertices
                        block = [stack.pop()]
                        comp[v] = c
                    else:
                        at = bisect_left(stack, v)
                        block = stack[at:]
                        del stack[at:]
                        for w in block:
                            comp[w] = c
                    found.append((block, exits[mark:]))
                    del exits[mark:]
                if not work:
                    break
                w, below = v, low
                v, low, mark, edges = work.pop()
                c = comp[w]
                if c < 0:
                    if below < low:
                        low = below
                else:
                    exits.append(c)
    return found


def strong_linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Strongly connected components, singletons allowed."""
    return list(g.condensation.blocks)


def terminal_slcs(g: ReactionGraph) -> list[frozenset[int]]:
    """Strong linkage classes with no edge leaving them."""
    _, sink, blocks = g.condensation
    return [block for block, terminal in zip(blocks, sink) if terminal]


def terminal_complexes(g: ReactionGraph) -> frozenset[int]:
    comp_of, sink, _ = g.condensation
    return frozenset(v for v, c in enumerate(comp_of) if sink[c])


def is_absorbing_set(g: ReactionGraph, absorbing: Iterable[int]) -> bool:
    """True when the set contains every terminal complex and no edge leaves it.

    Read without a condensation: a set that no edge leaves contains every
    terminal complex iff every complex reaches it.  Every complex reaches
    some terminal class; and a terminal class that reaches the set has a
    member in it, so the closed set holds the whole class.  So the test is
    closure, then one search backwards from the set.
    """
    aset = set(absorbing)
    if not aset <= set(range(g.n)):
        raise ValueError("absorbing set contains an invalid complex index")
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        if e.src in aset and e.dst not in aset:
            return False
        pred[e.dst].append(e.src)
    reached = [v in aset for v in range(g.n)]
    stack = [v for v, inside in enumerate(reached) if inside]
    while stack:
        for u in pred[stack.pop()]:
            if not reached[u]:
                reached[u] = True
                stack.append(u)
    return all(reached)


def enumerate_absorbing_sets(g: ReactionGraph, cap: int) -> list[frozenset[int]]:
    """All absorbing complex sets in increasing-size order, truncated at `cap`.

    Works on the SLC condensation: an absorbing set is a union of SLCs that
    contains every sink SLC and is closed under condensation edges.  Closed
    sets grow one addable SLC at a time from the terminal set, so a best-first
    search over the lattice emits them in nondecreasing complex count and the
    cap bounds both the output and the work.  The terminal-complex set and the
    full vertex set always appear (cap permitting).  The terminal set comes
    first, so under cap 1 it is the answer, and the condensation edges are
    collected only when a second set is asked for.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap == 1:
        return [terminal_complexes(g)]
    comp_of, sink, sccs = g.condensation
    succ: list[set[int]] = [set() for _ in sccs]
    for e in g.edges:
        a, b = comp_of[e.src], comp_of[e.dst]
        if a != b:
            succ[a].add(b)
    sinks = frozenset(i for i, terminal in enumerate(sink) if terminal)

    def members(chosen: frozenset[int]) -> frozenset[int]:
        return frozenset(v for i in chosen for v in sccs[i])

    found: list[frozenset[int]] = []
    heap: list[tuple[int, tuple[int, ...], frozenset[int]]] = [
        (sum(len(sccs[i]) for i in sinks), tuple(sorted(sinks)), sinks)
    ]
    seen = {sinks}
    while heap and len(found) < cap:
        w, _, chosen = heappop(heap)
        found.append(members(chosen))
        for i in range(len(sccs)):
            if i in chosen or not succ[i] <= chosen:
                continue
            bigger = chosen | {i}
            if bigger not in seen:
                seen.add(bigger)
                heappush(heap, (w + len(sccs[i]), tuple(sorted(bigger)), bigger))
    return found
