"""The candidate search with one balance LP per forest and no reused balancing vector.

A reference for `engine.analyze`: the same candidates, the same forests in
the same order and the same first unbalanced forest, but every forest goes
through `decide_balance`.  The engine must return the same verdict, counts
and report bytes while solving fewer LPs.

`candidate_pairs` is a reference for `engine._candidate_pairs`: it
enumerates the absorbing sets of every seed's fixpoint, also when an earlier
seed shrank to the same one, and relies on `seen` alone to drop the repeats.
It reaches each fixpoint by `domination_reference.shrink_rounds`, which
condenses every round's graph afresh, where the engine hands every seed the
network graph's blocks.  So it needs no witness, and gives the candidates
of any network, subconservative or not.
"""

from itertools import combinations, islice

from crnextinct import engine
from crnextinct.domination import (
    AdmissibilityError,
    DomCRN,
    build_dom_crn,
    expansion_edges,
)
from crnextinct.engine import (
    ExtinctionCertificate,
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchStats,
)
from crnextinct.exactlp import Feasible
from crnextinct.graphs import enumerate_absorbing_sets
from crnextinct.forests import (
    Balanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
    subconservation_slack,
)
from crnextinct.invariants import is_subconservative
from domination_reference import shrink_rounds


def analyze_per_forest(net, cfg):
    sub = is_subconservative(net.stoich)
    if not isinstance(sub, Feasible):
        return NotApplicable("network is not subconservative", sub)
    candidates = decided = balanced = vacuous = 0
    truncated = False
    c, _ = subconservation_slack(net, sub.witness)  # scaled as analyze scales it
    for dcrn in engine._candidate_pairs(net, cfg, c):
        if len(dcrn.absorbing) == net.n:
            vacuous += 1
            continue
        candidates += 1
        stream = enumerate_forests(dcrn)
        for forest in islice(stream, cfg.forest_cap):
            decided += 1
            outcome = decide_balance(build_balancing_system(dcrn, forest, cfg.nontriviality))
            if isinstance(outcome, Balanced):
                balanced += 1
                continue
            stats = SearchStats(candidates, decided, balanced, truncated, vacuous)
            cert = ExtinctionCertificate(
                sub.witness, dcrn.dom_edges, dcrn.absorbing, forest, outcome, cfg.nontriviality
            )
            return GuaranteedExtinction(frozenset(range(net.n)) - dcrn.absorbing, cert, stats)
        truncated = truncated or next(stream, None) is not None
    return Inconclusive(SearchStats(candidates, decided, balanced, truncated, vacuous), sub.witness)


def candidate_pairs(net, cfg):
    explicit = cfg.absorbing_strategy == "explicit"
    full = expansion_edges(net)
    subsets = (c for size in range(len(full), -1, -1) for c in combinations(full, size))
    dom_cap = cfg.dom_cap if cfg.dom_strategy == "all-subsets" else 1
    absorbing_cap = cfg.absorbing_cap if cfg.absorbing_strategy == "enumerate" else 1
    seen = set()
    for seed in islice(subsets, dom_cap):
        if explicit:
            fix, edges, asets = None, seed, [cfg.explicit_absorbing]
        else:
            fix = shrink_rounds(net, seed)
            edges, asets = fix.dom_edges, enumerate_absorbing_sets(fix.graph, absorbing_cap)
        for aset in asets:
            kept = tuple(e for e in edges if e.src not in aset and e.dst not in aset)
            if (kept, aset) in seen:
                continue
            seen.add((kept, aset))
            if fix is not None and kept == edges:
                yield DomCRN(net, fix.graph, aset)
                continue
            try:
                yield build_dom_crn(net, kept, aset)
            except AdmissibilityError:
                continue
