"""Reaction-graph analysis: linkage classes, strong linkage classes, absorbing sets.

Vertices are complex indices and an edge is a (source, target) pair, named by
its position in `ReactionGraph.edges`.  A network's graph lists its reactions
in index order; a domination-expanded graph appends its domination edges, so
the same machinery serves both.  Parallel edges and self-loops are permitted.

Partitions are returned as lists of frozensets ordered by their smallest
member, which keeps every derived object deterministic.  Every strong-linkage
answer reads `ReactionGraph.condensation`, computed once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .model import ReactionNetwork


class GraphEdge(NamedTuple):
    src: int
    dst: int


class Condensation(NamedTuple):
    comp_of: tuple[int, ...]  # scc_ids component id per vertex
    sink: tuple[bool, ...]  # per component id, True when no edge leaves it


@dataclass(frozen=True)
class ReactionGraph:
    n: int
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        for e in self.edges:
            if not (0 <= e.src < self.n and 0 <= e.dst < self.n):
                raise ValueError(f"edge {e} has endpoint outside 0..{self.n - 1}")

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            out[e.src].append(e.dst)
        return out

    @cached_property
    def condensation(self) -> Condensation:
        """The graph's strongly connected components, computed once and shared."""
        comp_of = scc_ids(self.successors())
        sink = [True] * (max(comp_of, default=-1) + 1)
        for e in self.edges:
            if comp_of[e.src] != comp_of[e.dst]:
                sink[comp_of[e.src]] = False
        return Condensation(tuple(comp_of), tuple(sink))


def reaction_graph(net: ReactionNetwork) -> ReactionGraph:
    edges = tuple(map(GraphEdge, net.source_index, net.target_index))
    return ReactionGraph(net.n, edges)


def linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Weakly connected components: the SCCs once every edge is also reversed."""
    both = g.successors()
    for e in g.edges:
        both[e.dst].append(e.src)
    return _blocks(scc_ids(both))


def scc_ids(succ: Sequence[Sequence[int]]) -> list[int]:
    """Strongly connected components by iterative Tarjan: a component id per vertex.

    Ids count up in the order components complete, which is a reverse
    topological order: every edge between two components points to the
    smaller id.
    """
    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comp_count = 0
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp_of


def _blocks(comp_of: Sequence[int]) -> list[frozenset[int]]:
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp_of):
        groups.setdefault(c, []).append(v)
    return sorted((frozenset(b) for b in groups.values()), key=min)


def strong_linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Strongly connected components, singletons allowed."""
    return _blocks(g.condensation.comp_of)


def terminal_slcs(g: ReactionGraph) -> list[frozenset[int]]:
    """Strong linkage classes with no edge leaving them."""
    comp_of, sink = g.condensation
    return [block for block in _blocks(comp_of) if sink[comp_of[min(block)]]]


def terminal_complexes(g: ReactionGraph) -> frozenset[int]:
    comp_of, sink = g.condensation
    return frozenset(v for v, c in enumerate(comp_of) if sink[c])


def is_absorbing_set(g: ReactionGraph, absorbing: Iterable[int]) -> bool:
    """True when the set contains every terminal complex and no edge leaves it."""
    aset = set(absorbing)
    if not aset <= set(range(g.n)):
        raise ValueError("absorbing set contains an invalid complex index")
    if not terminal_complexes(g) <= aset:
        return False
    return all(e.dst in aset for e in g.edges if e.src in aset)


def enumerate_absorbing_sets(g: ReactionGraph, cap: int) -> list[frozenset[int]]:
    """All absorbing complex sets in increasing-size order, truncated at `cap`.

    Works on the SLC condensation: an absorbing set is a union of SLCs that
    contains every sink SLC and is closed under condensation edges.  Closed
    sets grow one addable SLC at a time from the terminal set, so a best-first
    search over the lattice emits them in nondecreasing complex count and the
    cap bounds both the output and the work.  The terminal-complex set and the
    full vertex set always appear (cap permitting).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    sccs = strong_linkage_classes(g)
    block_of = {v: i for i, block in enumerate(sccs) for v in block}
    succ: list[set[int]] = [set() for _ in sccs]
    for e in g.edges:
        a, b = block_of[e.src], block_of[e.dst]
        if a != b:
            succ[a].add(b)
    sinks = frozenset(i for i in range(len(sccs)) if not succ[i])

    def members(chosen: frozenset[int]) -> frozenset[int]:
        return frozenset(v for i in chosen for v in sccs[i])

    def weight(chosen: frozenset[int]) -> int:
        return sum(len(sccs[i]) for i in chosen)

    found: list[frozenset[int]] = []
    heap: list[tuple[int, tuple[int, ...], frozenset[int]]] = [
        (weight(sinks), tuple(sorted(sinks)), sinks)
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
