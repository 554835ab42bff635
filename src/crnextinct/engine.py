"""Search orchestration: apply the unbalanced-forest criterion and emit verdicts.

For a subconservative network the engine walks candidate domination
expansions and absorbing sets, enumerates exterior forests in canonical order,
and stops at the first unbalanced one: that forest certifies a guaranteed
extinction event on the complement of the absorbing set.  Every verdict
carries the full certificate chain (subconservativity witness, expansion,
forest, the forest's Farkas refutation) and can be re-audited independently.
Every forest is decided by forests.decide_forests, handed one store per
network that holds the witness and every balancing vector found so far.
The witness's order on the expansion edges, checked once per network, is
the search's one structural guard: it gives every expansion the network
graph's strong linkage classes, so no candidate is checked again.

Candidates whose absorbing set is the whole complex set are skipped: the
extinction claim on an empty complement is vacuous.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .domination import (
    AdmissibilityError,
    DomCRN,
    build_dom_crn,
    dom_graph,
    expansion_edges,
    shrink_to_terminal,
)
from .exactlp import Farkas, Feasible, check_feasible
from .forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    BalanceStore,
    ExteriorForest,
    Unbalanced,
    build_balancing_system,
    decide_balance,  # unused here; bench/test_bench.py looks it up on this module
    decide_forests,
    enumerate_forests,
    forest_is_valid,
)
from .graphs import GraphEdge, enumerate_absorbing_sets, is_absorbing_set
from .invariants import conservation_system, is_subconservative
from .model import ReactionNetwork


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the candidate search.

    dom_strategy: "maximal" tries only the shrink-to-fixpoint expansion;
        "all-subsets" walks subsets of the domination set, largest first,
        visiting at most dom_cap of them.
    absorbing_strategy: "terminal" uses each expansion's terminal complexes;
        "enumerate" additionally tries absorbing sets of the expanded graph
        (up to absorbing_cap); "explicit" uses exactly explicit_absorbing,
        which is set with this strategy and with no other.
    forest_cap: at most this many forests are decided per candidate.
    nontriviality: which edges may carry the required positive weight in a
        balancing vector ("true-reactions" or "any-edge").

    Every cap and every member of explicit_absorbing is an int (a bool is
    not one); anything else is a ValueError.  explicit_absorbing is kept as
    a frozenset, so a config given a list or a set is hashable too.
    """

    dom_strategy: str = "maximal"
    dom_cap: int = 64
    absorbing_strategy: str = "terminal"
    absorbing_cap: int = 64
    explicit_absorbing: Optional[frozenset[int]] = None
    forest_cap: int = 10000
    nontriviality: str = TRUE_REACTIONS

    def __post_init__(self) -> None:
        if self.dom_strategy not in ("maximal", "all-subsets"):
            raise ValueError(f"unknown dom_strategy {self.dom_strategy!r}")
        if self.absorbing_strategy not in ("terminal", "enumerate", "explicit"):
            raise ValueError(f"unknown absorbing_strategy {self.absorbing_strategy!r}")
        if self.explicit_absorbing is not None:
            try:  # the dataclass is frozen, so its own field is set through object
                object.__setattr__(self, "explicit_absorbing", frozenset(self.explicit_absorbing))
            except TypeError as err:  # not iterable, or an unhashable member
                raise ValueError(f"explicit_absorbing must be a set of ints: {err}") from None
        if (self.absorbing_strategy == "explicit") != (self.explicit_absorbing is not None):
            raise ValueError('explicit_absorbing is set exactly when absorbing_strategy is "explicit"')
        if self.nontriviality not in (TRUE_REACTIONS, ANY_EDGE):
            raise ValueError(f"unknown nontriviality {self.nontriviality!r}")
        caps = (self.dom_cap, self.absorbing_cap, self.forest_cap)
        if any(type(v) is not int for v in caps) or min(caps) < 1 or max(caps) > sys.maxsize:
            raise ValueError(f"caps must be ints between 1 and {sys.maxsize}, got {caps}")
        bad = [v for v in self.explicit_absorbing or () if type(v) is not int]
        if bad:
            raise ValueError(f"explicit_absorbing members must be ints, got {bad}")


class SearchStats(NamedTuple):
    candidates: int
    forests: int  # forests decided: by an LP, a reused balancing vector, or the witness's refutation
    balanced: int  # of those, balanced (every reused one is; no refuted one is)
    truncated: bool  # some candidate had more forests than forest_cap
    vacuous_skipped: int


class ExtinctionCertificate(NamedTuple):
    """Everything needed to re-verify a guaranteed-extinction verdict."""

    subconservation: tuple[Fraction, ...]
    dom_edges: tuple[GraphEdge, ...]
    absorbing: frozenset[int]
    forest: ExteriorForest
    outcome: Unbalanced
    nontriviality: str


class GuaranteedExtinction(NamedTuple):
    transient: frozenset[int]  # complex indices, the complement of the absorbing set
    certificate: ExtinctionCertificate
    stats: SearchStats


class Inconclusive(NamedTuple):
    stats: SearchStats
    subconservation: tuple[Fraction, ...]


class NotApplicable(NamedTuple):
    reason: str
    refutation: Farkas  # refutes conservation_system(net.stoich, equality=False)


Verdict = Union[GuaranteedExtinction, Inconclusive, NotApplicable]


def _candidate_pairs(net: ReactionNetwork, cfg: SearchConfig, c: Sequence[int]) -> Iterator[DomCRN]:
    """Admissible (expansion, absorbing set) candidates in deterministic order.

    Each seed (the full set first) shrinks to its fixpoint, whose absorbing
    sets come terminal set first; "explicit" tries its set on the raw seed.
    A seed that shrinks to an earlier seed's fixpoint is skipped before its
    absorbing sets are enumerated: the fixpoint's graph is fixed by its
    edges, so every pair it would yield is already in seen.

    Every pair meets build_dom_crn's edge conditions by construction: the
    kept edges are distinct expansion edges, none of them touches the set,
    and the set lies in 0..n-1 (enumerated, or checked by analyze when
    explicit).  So a pair is admissible exactly when its set is absorbing
    on the expanded graph.  Enumeration makes it so when no edge was
    dropped; otherwise is_absorbing_set, the test build_dom_crn applies,
    decides it.  build_dom_crn itself checks certificates from outside, in
    audit_extinction.

    `c` is the network's subconservativity witness scaled to integers
    (BalanceStore.slack), so c >= 1.  The potential c.y never rises along a
    reaction and strictly falls along a domination edge.  Along a cycle the
    drops sum to zero, so every reaction on it drops c.y by zero and no
    domination edge lies on it: every expansion has the strong linkage
    classes of the network graph.  A class terminal in an expansion is
    terminal in the network graph too, whose edges are a subset of the
    expansion's.  So every seed shrinks on the network graph's blocks,
    condensed once per network.  That order is checked once, on every
    expansion edge, and is the search's one structural guard: an
    AssertionError ("internal error: ...") when it fails.
    """
    full = expansion_edges(net)
    p = [sum(a * b for a, b in zip(c, y.coeffs)) for y in net.complexes]
    if any(p[s] < p[d] for s, d in net.graph.edges) or any(p[s] <= p[d] for s, d in full):
        raise AssertionError(
            f"internal error: the witness {tuple(c)} does not order every expansion edge"
        )
    subsets = (sub for size in range(len(full), -1, -1) for sub in combinations(full, size))
    dom_cap = cfg.dom_cap if cfg.dom_strategy == "all-subsets" else 1
    absorbing_cap = cfg.absorbing_cap if cfg.absorbing_strategy == "enumerate" else 1
    seen: set[tuple[tuple[GraphEdge, ...], frozenset[int]]] = set()
    fixpoints: set[tuple[GraphEdge, ...]] = set()
    explicit = cfg.absorbing_strategy == "explicit"
    for seed in islice(subsets, dom_cap):
        if explicit:
            fix, edges, asets = None, seed, [cfg.explicit_absorbing]
        else:
            fix = shrink_to_terminal(net, seed, net.graph.condensation)
            if fix.dom_edges in fixpoints:
                continue  # its pairs are all in seen
            fixpoints.add(fix.dom_edges)
            edges, asets = fix.dom_edges, enumerate_absorbing_sets(fix.graph, absorbing_cap)
        for aset in asets:
            kept = tuple(e for e in edges if e.src not in aset and e.dst not in aset)
            if (kept, aset) in seen:
                continue
            seen.add((kept, aset))
            if fix is not None and kept == edges:
                yield DomCRN(net, fix.graph, aset)  # absorbing by enumeration
            elif is_absorbing_set(graph := dom_graph(net, kept), aset):
                yield DomCRN(net, graph, aset)


def analyze(net: ReactionNetwork, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Decide whether the network has a certifiable guaranteed extinction event.

    Deterministic for a fixed config: the first unbalanced forest in canonical
    candidate-then-forest order is the one reported.  Forests are decided as
    they are enumerated, at most cfg.forest_cap per candidate, by
    decide_forests, handed one BalanceStore for every candidate of the
    network: it holds the subconservativity witness, scaled once, and every
    balancing vector found so far in any candidate.  A forest it decides
    with no LP (by a stored balancing vector, or refuted by the witness) is
    balanced exactly when a balance LP finds it so, so the verdict, the
    counts and the reported forest are the LP search's.
    """
    if not (cfg.explicit_absorbing or set()) <= set(range(net.n)):
        raise ValueError("absorbing set contains an invalid complex index")
    sub = is_subconservative(net.stoich)
    if not isinstance(sub, Feasible):
        return NotApplicable("network is not subconservative", sub)
    candidates = forests_seen = balanced_seen = vacuous = 0
    truncated = False

    def stats() -> SearchStats:
        return SearchStats(candidates, forests_seen, balanced_seen, truncated, vacuous)

    store = BalanceStore(net, sub.witness)
    for dcrn in _candidate_pairs(net, cfg, store.slack[0]):
        if len(dcrn.absorbing) == net.n:
            vacuous += 1
            continue
        candidates += 1
        forests = enumerate_forests(dcrn)
        capped = islice(forests, cfg.forest_cap)
        for forest, outcome in decide_forests(dcrn, capped, cfg.nontriviality, store):
            forests_seen += 1
            if isinstance(outcome, Balanced):
                balanced_seen += 1
                continue
            certificate = ExtinctionCertificate(
                subconservation=sub.witness,
                dom_edges=dcrn.dom_edges,
                absorbing=dcrn.absorbing,
                forest=forest,
                outcome=outcome,
                nontriviality=cfg.nontriviality,
            )
            transient = frozenset(range(net.n)) - dcrn.absorbing
            return GuaranteedExtinction(transient, certificate, stats())
        if next(forests, None) is not None:
            truncated = True
    return Inconclusive(stats(), sub.witness)


def audit_extinction(net: ReactionNetwork, verdict: GuaranteedExtinction) -> list[tuple[str, bool]]:
    """Re-verify every link of a guaranteed-extinction certificate, in order.

    Returns (check name, passed) pairs for every link; a link whose premise
    failed reads False, so the first False names the broken link.  The
    expansion and absorbing set are validated by build_dom_crn, whose one
    caller this is: the search builds only admissible pairs (_candidate_pairs).
    The forest is validated once, for its own link; the outcome is then checked
    by its balancing system's audit (BalancingSystem.audit).
    """
    cert = verdict.certificate
    checks: list[tuple[str, bool]] = []

    sub_system = conservation_system(net.stoich, equality=False)
    checks.append(("subconservativity-witness", check_feasible(sub_system, cert.subconservation)))

    aset = cert.absorbing
    try:
        dcrn, failed = build_dom_crn(net, cert.dom_edges, aset), None
    except AdmissibilityError as err:
        dcrn, failed = None, err.condition
    checks.append(("domination-edges", failed != "domination"))

    ok_y = dcrn is not None and len(aset) < net.n
    checks.append(("absorbing-set", ok_y))

    ok_t = verdict.transient == frozenset(range(net.n)) - aset
    checks.append(("transient-set", ok_t))

    ok_f = ok_y and forest_is_valid(dcrn, cert.forest)
    checks.append(("forest", ok_f))

    ok_u = (
        ok_f
        and isinstance(cert.outcome, Unbalanced)
        and build_balancing_system(dcrn, cert.forest, cert.nontriviality).audit(cert.outcome)
    )
    checks.append(("unbalanced-certificates", ok_u))
    return checks


def verify_verdict(net: ReactionNetwork, verdict: Verdict) -> bool:
    """True iff every certificate embedded in a guaranteed-extinction verdict re-verifies.

    A verdict whose fields are not the documented shapes reads False.
    """
    if not isinstance(verdict, GuaranteedExtinction):
        raise ValueError("verify_verdict audits GuaranteedExtinction verdicts")
    try:
        return all(ok for _, ok in audit_extinction(net, verdict))
    except (AttributeError, IndexError, KeyError, ValueError, TypeError):
        return False
