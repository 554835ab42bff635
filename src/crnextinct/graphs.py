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

A graph made by `ReactionGraph.subgraph` from a subsequence of another's
edges inherits the other's blocks when every dropped edge joins two
different blocks: an edge between two SCCs lies on no cycle, so dropping it
splits no SCC, and dropping edges merges none.  Only the sink flags are
recomputed.  When a dropped edge lies inside a block, the subgraph is
condensed afresh on first use.  `is_absorbing_set` needs no condensation: a
set is absorbing iff no edge leaves it and every complex reaches it.

scc_ids is the package's one SCC routine.  A reaction graph is condensed
whole (floor 0, ids from 0); the oracle condenses only the states a root adds
to its state graph, in the stored successor lists: the floor is the first new
state, edges below it are skipped, and ids run on from the old components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .model import ReactionNetwork  # the network holds its graph, so model imports this module


class GraphEdge(NamedTuple):
    src: int
    dst: int


class Condensation(NamedTuple):
    comp_of: tuple[int, ...]  # per vertex, the index of its block
    sink: tuple[bool, ...]  # per block, True when no edge leaves it
    blocks: tuple[frozenset[int], ...]  # the SCCs, ordered by smallest member


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
        """The graph's strongly connected components, computed once and shared.

        scc_ids numbers the components in completion order; they are
        renumbered by smallest member, the order in which a scan of the
        vertices first meets them.
        """
        ids, members = scc_ids(self.successors())
        rank = [-1] * len(members)
        blocks = []
        for c in ids:
            if rank[c] < 0:
                rank[c] = len(blocks)
                blocks.append(frozenset(members[c]))
        comp_of = tuple(rank[c] for c in ids)
        sink = [True] * len(blocks)
        for e in self.edges:
            if comp_of[e.src] != comp_of[e.dst]:
                sink[comp_of[e.src]] = False
        return Condensation(comp_of, tuple(sink), tuple(blocks))

    def subgraph(self, edges: Sequence[GraphEdge]) -> ReactionGraph:
        """The graph on the same vertices with `edges`, a subsequence of this graph's edges.

        When every dropped edge joins two different blocks of this graph's
        condensation, the subgraph inherits the blocks and only its sink
        flags are computed; otherwise (also when `edges` is no subsequence)
        it is condensed afresh on first use.  Condenses this graph if it is
        not yet condensed.
        """
        sub = ReactionGraph(self.n, tuple(edges))
        comp_of, _, blocks = self.condensation
        kept, k = sub.edges, 0
        for e in self.edges:
            if k < len(kept) and kept[k] == e:
                k += 1
            elif comp_of[e.src] == comp_of[e.dst]:
                return sub  # a dropped edge inside a block may break it
        if k < len(kept):
            return sub
        sink = [True] * len(blocks)
        for e in kept:
            if comp_of[e.src] != comp_of[e.dst]:
                sink[comp_of[e.src]] = False
        # the instance slot that cached_property would otherwise fill on first use
        sub.__dict__["condensation"] = Condensation(comp_of, tuple(sink), blocks)
        return sub


def reaction_graph(net: ReactionNetwork) -> ReactionGraph:
    """The network's graph, its reactions in index order: the table ReactionNetwork.graph."""
    return net.graph


def linkage_classes(g: ReactionGraph) -> list[frozenset[int]]:
    """Weakly connected components: the SCCs once every edge is also reversed."""
    both = g.successors()
    for e in g.edges:
        both[e.dst].append(e.src)
    return sorted(map(frozenset, scc_ids(both)[1]), key=min)


def scc_ids(
    succ: Sequence[Sequence[int]], floor: int = 0, first: int = 0
) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components by iterative Tarjan, of the vertices from `floor` up.

    Vertices below `floor` are taken as already condensed: the search starts
    at none of them and skips every edge into them.  Returns the component id
    of each vertex v >= floor (at position v - floor) and each component's
    members, in the order the components complete.  Ids count up from
    `first` in that order, which is a reverse topological order: every edge
    between two components points to the smaller id.
    """
    size = len(succ) - floor
    comp = [-1] * size  # component id, per vertex from floor up
    num = [0] * size  # 1 + discovery order; 0 while unvisited
    low = [0] * size
    stack: list[int] = []
    members: list[list[int]] = []
    counter = 0
    for root in range(floor, len(succ)):
        if num[root - floor]:
            continue
        counter += 1
        num[root - floor] = low[root - floor] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            lv = v - floor
            for w in edges:
                lw = w - floor
                if lw < 0:
                    continue
                if not num[lw]:
                    counter += 1
                    num[lw] = low[lw] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[lw] < 0 and num[lw] < low[lv]:
                    low[lv] = num[lw]  # w is still on the stack
            else:
                work.pop()
                if low[lv] == num[lv]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    block = stack[at:]
                    del stack[at:]
                    c = first + len(members)
                    for w in block:
                        comp[w - floor] = c
                    members.append(block)
                if work:
                    lu = work[-1][0] - floor
                    if low[lv] < low[lu]:
                        low[lu] = low[lv]
    return comp, members


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
    full vertex set always appear (cap permitting).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    comp_of, sink, sccs = g.condensation
    succ: list[set[int]] = [set() for _ in sccs]
    for e in g.edges:
        a, b = comp_of[e.src], comp_of[e.dst]
        if a != b:
            succ[a].add(b)
    sinks = frozenset(i for i, terminal in enumerate(sink) if terminal)

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
