"""Structural extinction-event certificates for reaction networks on discrete state spaces.

The package decides, from network structure alone, whether a discrete-state
reaction network is guaranteed to reach a point where a set of complexes can
never fire again, and emits independently verifiable certificates either way.
An exhaustive state-space oracle provides ground truth at desk scale.
"""

from .domination import (
    AdmissibilityError,
    DomCRN,
    build_dom_crn,
    check_slc_coincidence,
    domination_set,
    maximal_admissible,
)
from .engine import (
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchConfig,
    analyze,
    audit_extinction,
    verify_verdict,
)
from .forests import (
    Balanced,
    ExteriorForest,
    Unbalanced,
    build_balancing_system,
    decide_balance,
    decide_forests,
    enumerate_forests,
)
from .graphs import (
    GraphEdge,
    enumerate_absorbing_sets,
    is_absorbing_set,
    linkage_classes,
    strong_linkage_classes,
    terminal_slcs,
)
from .invariants import is_conservative, is_subconservative
from .model import (
    Complex,
    Reaction,
    ReactionNetwork,
    build_network,
    fire,
    format_complex,
    is_charged,
)
from .oracle import (
    StateGraph,
    complex_recurrent,
    explore,
    extinction_on,
    guaranteed_extinction_on,
    recurrent_states,
)
from .parser import CrnDocument, ParseError, format_network, parse_complex, parse_crn
from .petri import petri_export, petri_import
from .report import build_report, emit_report, verify_report

__version__ = "0.1.0"
