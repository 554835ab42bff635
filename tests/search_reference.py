"""The candidate search with one balance LP per forest and no reused balancing vector.

A reference for `engine.analyze`: the same candidates, the same forests in
the same order and the same first unbalanced forest, but every forest goes
through `decide_balance`.  The engine must return the same verdict, counts
and report bytes while solving fewer LPs.
"""

from itertools import islice

from crnextinct import engine
from crnextinct.engine import (
    ExtinctionCertificate,
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchStats,
)
from crnextinct.exactlp import Feasible
from crnextinct.forests import (
    Balanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
)
from crnextinct.invariants import is_subconservative
from crnextinct.model import stoich_matrix


def analyze_per_forest(net, cfg):
    sub = is_subconservative(stoich_matrix(net))
    if not isinstance(sub, Feasible):
        return NotApplicable("network is not subconservative", sub)
    candidates = decided = balanced = vacuous = 0
    truncated = False
    for dcrn in engine._candidate_pairs(net, cfg):
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
