"""Exterior forests of a domination-expanded network and their balance status.

An exterior forest picks exactly one outgoing edge (true reaction or
domination edge) for every complex outside the absorbing set, such that the
absorbing set is absorbing in the graph of the chosen edges: following the
choices from any complex reaches it.  That one rule (graphs.is_absorbing_set)
both checks a forest (forest_is_valid) and, with the later complexes keeping
all their options, probes the enumerator's dead ends (_completable).  Every
interior reaction is included by convention.  The chosen edges and the
interior reactions are the forest's support.

A forest is balanced when a nonnegative vector alpha over all edges exists
that (C1) is supported on the forest, (C2) has its reaction part in the
kernel of the stoichiometric matrix, and (C3) at every exterior complex
weighs the outgoing edge at least as much as the sum of the incoming forest
edges, with strictly positive weight on at least one nontriviality
candidate; a Balanced outcome is that alpha and nothing more.  By default
the candidates are the exterior true reactions of the forest; a switch
widens them to include domination edges for comparison (_candidates, the
one rule for both the balance system and the store).  decide_forests decides a
network's forests, candidate after candidate, and keeps every balancing
vector it finds in one store (BalanceStore) by edge identity, so a vector
found in one candidate settles, with no LP, a forest of any candidate that
it balances.  The balance system has one variable per support edge, so
(C1) holds by construction; a balancing vector is widened back to all
edges, zero off the support.  decide_balance solves it in forest
coordinates, where each chosen edge's weight is its complex's flow surplus
plus its inflow, so every flow row becomes a sign constraint and leaves the
LP; its answers are mapped back to the support layout and audited there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .domination import DomCRN
from .exactlp import (
    Entries,
    Farkas,
    LinearSystem,
    Row,
    check_farkas,
    check_feasible,
    scale_to_integers,
    solve_feasibility,
    sparse,
)
from .graphs import ReactionGraph, is_absorbing_set
from .model import ReactionNetwork

TRUE_REACTIONS = "true-reactions"
ANY_EDGE = "any-edge"


class ExteriorForest(NamedTuple):
    """One outgoing edge per exterior complex, plus all interior reactions.

    An edge is named by its index v in the expanded graph (`DomCRN.graph`).
    """

    choices: tuple[tuple[int, int], ...]  # (exterior complex, chosen edge v), ascending
    interior: tuple[int, ...]  # reaction indices whose source lies in the absorbing set

    def edge_labels(self, r: int) -> list[str]:
        edges = [v for _, v in self.choices] + list(self.interior)
        return [edge_label(v, r) for v in edges]

    @property
    def support(self) -> tuple[int, ...]:
        """The chosen edges and the interior reactions, ascending."""
        return tuple(sorted({v for _, v in self.choices}.union(self.interior)))


def edge_label(v: int, r: int) -> str:
    """1-based label of edge v over r reactions: "k+1" for reaction k, "Dk+1" for domination k."""
    return str(v + 1) if v < r else f"D{v - r + 1}"


def interior_reactions(dcrn: DomCRN) -> tuple[int, ...]:
    return tuple(k for k, e in enumerate(dcrn.net.graph.edges) if e.src in dcrn.absorbing)


def enumerate_forests(dcrn: DomCRN) -> Iterator[ExteriorForest]:
    """Backtracking enumeration of exterior forests in canonical order, lazily.

    Choices advance by exterior complex index; per complex, true reactions
    come before domination edges, each in index order.  Any selection whose
    functional graph would cycle among exterior complexes is pruned, the
    first test of each option.  Forests are generated one at a time, so a
    caller that stops early pays only for the forests it took.  The
    backtracking keeps an explicit stack, the number of options tried at
    each exterior position, so no recursion depth grows with the number of
    exterior complexes.

    A position can run out of options with no forest yielded since the
    current prefix of choices reached it: then no forest keeps that prefix.
    The walk binary-searches the longest prefix that some forest still
    keeps (_completable, one is_absorbing_set per probe) and resumes with the
    next option after that prefix, so it skips only subtrees that hold no
    forest and the order is unchanged.  Delay: between two forests, each
    dead end discards one option at one position whose prefix a forest
    keeps, so there are at most as many dead ends as edges, and each costs
    O(n) steps and O(log n) probes, over n complexes.  A walk
    that meets no dead end pays nothing for this.
    """
    edges = dcrn.graph.edges
    absorbing = dcrn.absorbing
    exterior = dcrn.exterior_complexes()
    options: dict[int, list[int]] = {y: [] for y in exterior}
    for v, e in enumerate(edges):
        if e.src in options and e.src != e.dst:
            options[e.src].append(v)
    interior = interior_reactions(dcrn)
    choice: dict[int, int] = {}

    def creates_cycle(start: int, assigning: int) -> bool:
        cur = start
        while True:
            if cur == assigning:
                return True
            if cur in absorbing or cur not in choice:
                return False
            cur = edges[choice[cur]].dst

    def walk() -> Iterator[ExteriorForest]:
        tried = [0] * len(exterior)  # options of exterior[i] tried so far
        entered = [0] * (len(exterior) + 1)  # forests yielded when the current prefix reached i
        yielded = 0
        i = 0
        while i >= 0:
            if i == len(exterior):
                yield ExteriorForest(
                    choices=tuple((y, choice[y]) for y in exterior),
                    interior=interior,
                )
                yielded += 1
                i -= 1
                continue
            y = exterior[i]
            choice.pop(y, None)  # undo the choice made when last at this position
            opts, k = options[y], tried[i]
            while k < len(opts) and creates_cycle(edges[opts[k]].dst, y):
                k += 1
            if k < len(opts):
                choice[y] = opts[k]
                tried[i] = k + 1
                i += 1
                entered[i] = yielded
                continue
            tried[i] = 0
            if i == 0 or entered[i] != yielded:
                i -= 1
                continue
            # no forest keeps the first i choices: find the fewest that none keeps
            lo, hi = 0, i
            while lo < hi:
                mid = (lo + hi) // 2
                if _completable(dcrn, options, choice, mid):
                    lo = mid + 1
                else:
                    hi = mid
            for j in range(hi, i):  # positions past the dead prefix start afresh
                tried[j] = 0
                del choice[exterior[j]]
            i = hi - 1  # the next option at the last position of the dead prefix

    return walk()


def _completable(
    dcrn: DomCRN,
    options: dict[int, list[int]],
    choice: dict[int, int],
    length: int,
) -> bool:
    """Whether some exterior forest keeps the choices of the first `length` exterior complexes.

    options lists each exterior complex's edges, in ascending complex
    order.  The first `length` complexes keep only their chosen edge, every
    later one all of its options.  A forest keeps the prefix iff the
    absorbing set is absorbing in that graph (is_absorbing_set): a search
    tree back from the set gives each unassigned complex an edge to a
    complex reached before it, so no choice closes a cycle, and a forest's
    own paths are in the graph.
    """
    edges = dcrn.graph.edges
    kept = tuple(
        edges[v]
        for at, (y, opts) in enumerate(options.items())
        for v in (opts if at >= length else (choice[y],))
    )
    return is_absorbing_set(ReactionGraph(dcrn.net.n, kept), dcrn.absorbing)


def forest_is_valid(dcrn: DomCRN, forest: ExteriorForest) -> bool:
    """Check the conventions, and that the absorbing set is absorbing in the forest's graph.

    The conventions: one choice per exterior complex, ascending, each an
    edge that leaves it, and the interior reactions as interior_reactions
    gives them.  The forest's graph holds the chosen edges only, so no edge
    leaves the absorbing set, and it is absorbing (is_absorbing_set) iff
    following the choices from any complex reaches it: a self-loop or a
    cycle never does.
    """
    if [y for y, _ in forest.choices] != dcrn.exterior_complexes():  # each once, ascending
        return False
    if forest.interior != interior_reactions(dcrn):
        return False
    edges = dcrn.graph.edges
    # the range first: a negative index would alias
    if not all(0 <= v < len(edges) and edges[v].src == y for y, v in forest.choices):
        return False
    chosen = ReactionGraph(dcrn.net.n, tuple(edges[v] for _, v in forest.choices))
    return is_absorbing_set(chosen, dcrn.absorbing)


class Balanced(NamedTuple):
    alpha: tuple[int, ...]  # integer balancing vector over all r+d edges


class Unbalanced(NamedTuple):
    # refutations, each of the candidate row over its candidate set; the sets
    # joined in order are the system's candidates
    witnesses: tuple[tuple[tuple[int, ...], Farkas], ...]


BalanceOutcome = Union[Balanced, Unbalanced]


def _tuple_of(values: object, types: tuple[type, ...]) -> bool:
    """Is values a tuple whose entries each have one of these exact types (so no bool)?"""
    return isinstance(values, tuple) and all(type(v) in types for v in values)


def _is_witness(pair: object) -> bool:
    """Is pair (candidate set, refutation): a tuple of ints, and a Farkas of int/Fraction tuples?"""
    return (
        isinstance(pair, tuple) and len(pair) == 2 and _tuple_of(pair[0], (int,))
        and isinstance(pair[1], Farkas) and all(_tuple_of(m, (int, Fraction)) for m in pair[1])
    )


class BalancingSystem(NamedTuple):
    """The constraint system a balancing vector must satisfy, over the forest's support.

    Edges are named as in the expanded graph: 0..r-1 for reactions and
    r..r+d-1 for domination edges.  The variables are the support edges, in
    ascending order: variable i is edge support[i], so (C1) holds by
    construction.  The assembled LinearSystem lays rows out
    deterministically: equalities are the kernel rows (species order, over
    the support); inequalities are the flow rows (ascending exterior
    complex) followed by the candidate row: the sum of the weights of a set
    of candidate edges >= 1.  Every other right-hand side is 0.  Every row
    is sparse, as exactlp reads it: a kernel row holds the nonzeros of its
    species' row of Gamma at the support reactions, a flow row one entry
    per term.  Every row but the candidate row is shared (_shared_rows,
    built on each call; an audit assembles one system per refutation,
    mostly one per forest).  A Farkas refutation has one `eq` entry per
    species and one `nonneg` entry per support edge.  This is the layout in
    which outcomes are audited (audit, the one exact check of an outcome)
    and reported; decide_balance solves the same system in forest
    coordinates and maps its answer back.
    """

    n_edges: int  # r + d, the width of a balancing vector
    r: int  # reactions: edges 0..r-1
    support: tuple[int, ...]  # the forest's edges, ascending
    kernel_rows: tuple[Entries, ...]  # one per species, (support position, nonzero) entries
    flow_rows: tuple[tuple[int, tuple[int, ...]], ...]  # (out var, in vars), ascending complex
    candidates: tuple[int, ...]  # edges, ascending

    def _shared_rows(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """(equality rows, flow rows): every row but the candidate row."""
        flows = (sorted([(o, 1), *((i, -1) for i in in_vars)]) for o, in_vars in self.flow_rows)
        return tuple((row, 0) for row in self.kernel_rows), tuple((tuple(f), 0) for f in flows)

    def _candidate_row(self, candidates: tuple[int, ...]) -> Entries:
        """An entry 1 at the variable of each candidate edge."""
        chosen = set(candidates)
        return tuple((i, 1) for i, v in enumerate(self.support) if v in chosen)

    def linear_system(self, candidates: tuple[int, ...]) -> LinearSystem:
        """The shared rows with the candidate row sum of x_v over candidate edges v >= 1."""
        eq, ge = self._shared_rows()
        row = (self._candidate_row(candidates), 1)
        return LinearSystem(len(self.support), eq=eq, ge=ge + (row,))

    def on_support(self, alpha: Sequence) -> list:
        """The entries of a vector over all edges at the support edges, in order."""
        return [alpha[v] for v in self.support]

    def audit(self, outcome: BalanceOutcome) -> bool:
        """Whether an outcome holds for this system, by direct exact evaluation.

        Balanced: alpha is a tuple of ints (a bool, float, Fraction or any
        other value fails) that spans all r + d edges and is 0 off the
        support (the system over the support cannot say so), and
        check_feasible accepts it on the system of all the candidates: the
        summed candidate row decide_balance solves.  Nonnegative and
        integral, alpha meets that row iff it is at least 1 on some
        candidate, which is (C3); no candidate, and no alpha does.  Unbalanced: the
        witnesses are a tuple of (tuple of ints, Farkas) pairs, each Farkas
        field a tuple of ints or Fractions; their candidate sets, joined in
        order, are the candidates, and check_farkas accepts each refutation
        on the system of its set, in the support layout.  Anything else
        fails, so a malformed outcome is False, not an exception.  Every
        exact check of an outcome goes through here: decide_balance's and
        subconservation_refutation's self-audits, and the engine's
        certificate audit (engine.audit_extinction), the one caller that
        also checks the forest (forest_is_valid).
        """
        if isinstance(outcome, Balanced):
            alpha = outcome.alpha
            if not _tuple_of(alpha, (int,)) or len(alpha) != self.n_edges:
                return False
            inside = set(self.support)
            if any(a for v, a in enumerate(alpha) if v not in inside):
                return False
            return check_feasible(self.linear_system(self.candidates), self.on_support(alpha))
        if isinstance(outcome, Unbalanced):
            witnesses = outcome.witnesses
            if not (isinstance(witnesses, tuple) and all(map(_is_witness, witnesses))):
                return False
            if tuple(k for cands, _ in witnesses for k in cands) != self.candidates:
                return False
            return all(check_farkas(self.linear_system(cands), cert) for cands, cert in witnesses)
        return False


def _candidates(forest: ExteriorForest, r: int, nontriviality: str) -> tuple[int, ...]:
    """The forest's nontriviality candidates, ascending: the one candidate rule.

    Its chosen true reactions (edges below r), or under ANY_EDGE every
    chosen edge.  ValueError for any other reading.
    """
    if nontriviality not in (TRUE_REACTIONS, ANY_EDGE):
        raise ValueError(f"unknown nontriviality reading {nontriviality!r}")
    return tuple(sorted(v for _, v in forest.choices if v < r or nontriviality == ANY_EDGE))


def build_balancing_system(
    dcrn: DomCRN,
    forest: ExteriorForest,
    nontriviality: str = TRUE_REACTIONS,
) -> BalancingSystem:
    r = dcrn.net.r
    candidates = _candidates(forest, r, nontriviality)
    support = forest.support
    reactions = [v for v in support if v < r]  # ascending: at support positions 0, 1, ...
    kernel_rows = tuple(sparse(map(row.__getitem__, reactions)) for row in dcrn.net.stoich)
    incoming: dict[int, list[int]] = {y: [] for y, _ in forest.choices}
    edges = dcrn.graph.edges
    for i, v in enumerate(support):
        tgt = edges[v].dst
        if tgt in incoming:
            incoming[tgt].append(i)
    position = {v: i for i, v in enumerate(support)}
    flow_rows = tuple((position[v], tuple(incoming[y])) for y, v in forest.choices)
    return BalancingSystem(
        n_edges=r + dcrn.d,
        r=r,
        support=support,
        kernel_rows=kernel_rows,
        flow_rows=flow_rows,
        candidates=candidates,
    )


def _forest_links(system: BalancingSystem) -> list[tuple[int, int]]:
    """The pairs (i, o), one per in var i of the flow row with out var o, downstream first.

    Flow row k reads x_o - sum of x_i over its in vars i >= 0.  A variable
    that is no row's out var is free.  The pairs come in an order in which
    every pair (o, o') that leaves o comes before every pair (i, o) that
    enters it: a variable is taken once every row it feeds has been taken.
    ValueError when two rows share an out var or the rows cycle, since
    neither comes from a forest.
    """
    n = len(system.support)
    row_of: list[tuple[int, ...] | None] = [None] * n  # each out var's in vars
    feeds = [0] * n  # how many in-var slots each variable fills
    for out_var, in_vars in system.flow_rows:
        if row_of[out_var] is not None:
            raise ValueError("two flow rows share an out-edge: not a forest")
        row_of[out_var] = in_vars
        for i in in_vars:
            feeds[i] += 1
    ready = [i for i in range(n) if not feeds[i]]
    links: list[tuple[int, int]] = []
    for o in ready:  # appended to while it is walked
        for i in row_of[o] or ():
            links.append((i, o))
            feeds[i] -= 1
            if not feeds[i]:
                ready.append(i)
    if len(ready) < n:
        raise ValueError("flow rows are cyclic: not a forest")
    return links


def decide_balance(system: BalancingSystem) -> BalanceOutcome:
    """Balanced iff the summed system is feasible; certificates either way.

    One phase 1 decides the forest.  Its candidate row is the sum of all
    candidate variables >= 1; every other right-hand side is 0, so the rows
    are a cone and the sum reaches 1 iff some single candidate does.  An
    empty candidate set is unbalanced outright.  Forests that decide_forests
    settles with a stored vector (BalanceStore) are decided, and balanced,
    without this call.

    The LP is solved in forest coordinates.  Each out var is rewritten as
    its row's surplus plus its inflow, x_o = z_o + sum of x_i over the row's
    in vars i, and a free variable (an interior reaction) as x_i = z_i.
    This is x = T z with T nonnegative and unit-triangular in the forest's
    order (_forest_links), so T is invertible: z_o is flow row o's value at
    x, and z_i = x_i.  The flow rows become z >= 0, and the LP handed to
    solve_feasibility is {(A T) z = 0, (cand T) z >= 1, z >= 0}: one row per
    species and one candidate row.  T's columns are accumulated along the
    links, downstream first: column i of A T is column i of A plus column o
    of A T for each link (i, o), and likewise for the candidate row.  Each
    row is accumulated over its nonzeros and handed on sparse.

    A feasible z, scaled to integers, gives alpha = T z, accumulated
    upstream first, and widened to all r + d edges with zeros off the
    support.  A refutation (y, t, w) of the z system, y^T A T + t cand T +
    w = 0 with t > 0 and w >= 0, maps to y on the kernel rows, w_o on the flow row
    whose out var is o, t on the candidate row, and on x_i >= 0 the
    multiplier 0 at an out var and w_i at a free variable.  Its combination
    c = y^T A + t cand + sum over rows of w_o (flow row o) + sum over free
    i of w_i e_i takes T z to y^T A T z + t cand T z + w.z, since flow row
    o at T z is z_o.
    So c T = 0, hence c = 0 as T is invertible; the right-hand sides
    combine to t > 0 as before, and every inequality multiplier is an entry
    of w or t.  The mapped refutation is the forest's one refutation,
    covering all candidates.  Either outcome is audited once, by
    BalancingSystem.audit in the support layout; an AssertionError
    ("internal error: ...") when it fails.  ValueError when the flow rows do
    not come from a forest (_forest_links).
    """
    if not system.candidates:
        return Unbalanced(())
    links = _forest_links(system)
    rows = []
    for row in (*system.kernel_rows, system._candidate_row(system.candidates)):
        acc = dict(row)
        for i, o in links:
            if o in acc:
                acc[i] = acc.get(i, 0) + acc[o]
        rows.append(tuple(sorted((j, c) for j, c in acc.items() if c)))
    cand = rows.pop()
    found = solve_feasibility(
        LinearSystem(len(system.support), eq=tuple((a, 0) for a in rows), ge=((cand, 1),))
    )
    if isinstance(found, Farkas):
        w = found.nonneg_mult
        outs = [o for o, _ in system.flow_rows]
        nonneg = list(w)
        for o in outs:
            nonneg[o] = 0
        cert = Farkas(found.eq_mult, (*(w[o] for o in outs), *found.ge_mult), tuple(nonneg))
        outcome, fault = Unbalanced(((system.candidates, cert),)), "balance refutation"
    else:
        x = scale_to_integers(found.witness)[0]
        for i, o in reversed(links):
            x[o] += x[i]
        alpha = [0] * system.n_edges
        for v, a in zip(system.support, x):
            alpha[v] = a
        outcome, fault = Balanced(tuple(alpha)), "balancing vector"
    if not system.audit(outcome):
        raise AssertionError(f"internal error: mapped {fault} fails its audit")
    return outcome


def subconservation_slack(net: ReactionNetwork, witness: Sequence) -> tuple[list[int], list[int]]:
    """(c, s): a subconservativity witness scaled to integers, and s = -c^T Gamma >= 0."""
    c, gamma = scale_to_integers(witness)[0], net.stoich
    return c, [-sum(ci * row[k] for ci, row in zip(c, gamma)) for k in range(net.r)]


def subconservation_refutation(
    system: BalancingSystem, c: Sequence[int], slack: Sequence[int]
) -> Unbalanced:
    """The refutation that a subconservation vector c gives a forest.

    c is an integer vector, one entry per species, whose slack s = -c^T
    Gamma (subconservation_slack), one entry per reaction, is >= 0 on every
    support reaction and >= 1 on every candidate, each a true reaction.  The
    multipliers are c on the kernel rows, 0 on the flow rows, 1 on the
    candidate row, and s_v - [v is a candidate] on x_v >= 0 for each
    support edge v, with s_v = 0 for a domination edge.  Column v then sums
    to (c^T Gamma)_v + [v is a candidate] + s_v - [v is a candidate] = 0,
    and the right-hand sides to the candidate row's 1.  The premise makes
    every multiplier on x_v >= 0 nonnegative; ValueError, naming the edge,
    when it does not, and ValueError when c or s has the wrong length.  All
    entries are ints; the refutation is audited by BalancingSystem.audit, as
    _extract_farkas audits the solver's, so its AssertionError means an
    internal fault.
    """
    if len(c) != len(system.kernel_rows) or len(slack) != system.r:
        raise ValueError(
            f"c has {len(c)} entries and s {len(slack)}, expected "
            f"{len(system.kernel_rows)} (species) and {system.r} (reactions)"
        )
    if not system.candidates:
        return Unbalanced(())
    r = system.r
    candidates = set(system.candidates)
    nonneg = tuple((slack[v] if v < r else 0) - (v in candidates) for v in system.support)
    low = next((v for v, x in zip(system.support, nonneg) if x < 0), None)
    if low is not None:
        kind = "candidate" if low in candidates else "support edge"
        raise ValueError(f"c does not refute this forest: too little slack at {kind} {low}")
    cert = Farkas(tuple(c), (0,) * len(system.flow_rows) + (1,), nonneg)
    outcome = Unbalanced(((system.candidates, cert),))
    if not system.audit(outcome):
        raise AssertionError("internal error: subconservation refutation fails its audit")
    return outcome


class BalanceStore:
    """What decide_forests keeps for one network, across all its candidates.

    slack is the subconservativity witness scaled once to integers c, with
    s = -c^T Gamma (subconservation_slack), computed on first use; it is
    (None, None) when the witness is None, as for a network that is not
    subconservative.  Every balancing vector a balance LP finds is kept by
    edge identity, which is the same in every candidate of the network
    where an edge's index is not: reaction k by k, a domination edge by its
    GraphEdge (src, dst).  A vector is kept as its positive weights by
    identity and the weight entering each complex.  analyze owns one store
    per call; a store serves one network only.
    """

    def __init__(self, net: ReactionNetwork, witness: Optional[Sequence]):
        self.net, self.witness = net, witness
        self._vectors: list[tuple[dict, dict[int, int]]] = []

    @cached_property
    def slack(self) -> tuple[Optional[list[int]], Optional[list[int]]]:
        """(c, s) of the witness, or (None, None) without one."""
        return (None, None) if self.witness is None else subconservation_slack(self.net, self.witness)

    def add(self, dcrn: DomCRN, alpha: Sequence[int]) -> None:
        """Keep a balancing vector over dcrn's r + d edges."""
        r, edges = dcrn.net.r, dcrn.graph.edges
        weights, inflow = {}, {}
        for v, a in enumerate(alpha):
            if a:
                weights[v if v < r else edges[v]] = a
                inflow[edges[v].dst] = inflow.get(edges[v].dst, 0) + a
        self._vectors.append((weights, inflow))

    def balance(self, dcrn: DomCRN, forest: ExteriorForest, nontriviality: str) -> Optional[Balanced]:
        """The first kept vector that balances the forest, over dcrn's edges, or None.

        A kept vector balances forest F' when (i) the identity of every
        positive edge is that of an edge of F''s support, so the vector
        re-indexes to F''s edges as alpha; (ii) at every exterior complex
        y, alpha on y's chosen edge is at least the weight of the positive
        edges entering y; and (iii) some candidate of F' has alpha > 0.
        The answer is that alpha.
        """
        if not self._vectors:
            return None
        r, edges, absorbing = dcrn.net.r, dcrn.graph.edges, dcrn.absorbing
        index = {v if v < r else edges[v]: v for v in forest.support}  # identity -> edge
        choice = dict(forest.choices)
        candidates = _candidates(forest, r, nontriviality)
        for weights, inflow in self._vectors:
            if not weights.keys() <= index.keys():
                continue  # (i)
            alpha = [0] * (r + dcrn.d)
            for key, a in weights.items():
                alpha[index[key]] = a
            if any(y not in absorbing and alpha[choice[y]] < flow for y, flow in inflow.items()):
                continue  # (ii)
            if any(alpha[v] for v in candidates):  # (iii)
                return Balanced(tuple(alpha))
        return None


def decide_forests(
    dcrn: DomCRN,
    forests: Iterable[ExteriorForest],
    nontriviality: str,
    store: BalanceStore,
) -> Iterator[tuple[ExteriorForest, BalanceOutcome]]:
    """Each forest with its balance outcome, in order, lazily.

    A forest that a vector in the store balances (BalanceStore.balance) is
    decided as Balanced with no LP.  The vector is right: (C1) holds by (i),
    as the re-indexed vector is zero off F''s support.  (C2) holds because
    a domination edge's column of Gamma is zero and the vector's reaction
    part is the same in every candidate, in the kernel of Gamma.  At an
    exterior complex y the inflow of F' is the weight of the positive edges
    entering y, as every positive edge lies in the support, so (ii) is the
    flow row of y and (iii) the candidate row.  Conversely a kept vector
    that breaks (i), (ii) or (iii) fails F''s audit, re-indexed by edge
    identity: weight off the support, a flow row or the candidate row.  So
    the rule misses no kept vector that balances F'.  It decides every
    forest that keeps the positive choices of an earlier balanced forest F
    of the same candidate (its choices where alpha > 0): (i) holds, as
    F''s interior reactions are F's; at a complex where F' keeps F's choice
    the inflow and the chosen weight are F's, and where it does not, F's
    choice has alpha = 0 and F's flow row forced the inflow to 0, so (ii)
    holds; and a candidate of F with alpha > 0 is a positive choice, which
    F' keeps, so (iii) holds.
    Within one candidate (i) forces F' to keep each positive choice, so
    there the rule decides exactly those forests; across candidates it
    decides more.

    The store's witness refutes, with no LP, a forest whose candidates are
    all true reactions with s >= 1 (subconservation_refutation); no stored
    vector balances such a forest.  Every other forest gets one
    decide_balance, and a vector it finds joins the store.  analyze passes
    one store for all candidates of a network.  ValueError when the store
    was made for another network.
    """
    if store.net is not dcrn.net:
        raise ValueError("the balance store belongs to another network")
    r, (c, slack) = dcrn.net.r, store.slack
    for forest in forests:
        outcome = store.balance(dcrn, forest, nontriviality)
        if outcome is None:
            system = build_balancing_system(dcrn, forest, nontriviality)
            refuted = c is not None and all(v < r and slack[v] >= 1 for v in system.candidates)
            outcome = subconservation_refutation(system, c, slack) if refuted else decide_balance(system)
            if isinstance(outcome, Balanced):
                store.add(dcrn, outcome.alpha)
        yield forest, outcome
