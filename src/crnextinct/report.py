"""Analysis reports: exact JSON serialization and a human-readable summary.

Rationals travel as {"num": "...", "den": "..."} strings so no precision is
lost between tools, at any number of digits (model.rational_text and
model.parse_int).  A guaranteed-extinction report is self-contained: given
the report and the network text alone, the certificate chain can be rebuilt
and re-audited (see verify_report).  From version 4 the JSON report is one
compact line (no indentation), so the C encoder writes it; every version
from 1 on is read by the same decoder.

From version 6 an unbalanced forest carries one balance refutation, for the
candidate row "sum of all candidates >= 1".  The rows form a cone, so a
refutation of that row proves that no balancing vector puts positive weight
on any candidate.  Versions 1-5 carry one refutation per candidate k; the
decoder reads each as a refutation covering the set (k,).  From version 7 a
refutation is over the forest's support; the decoder checks the entries that
versions 1-6 add for the edges off the support and drops them, so every
version goes through the same audit.  Versions 8 to 10 changed only which
witness and multipliers a report carries, so versions 7 to 10 decode alike.

Each record of a report is stated once.  "statistics" is SearchStats's
fields in order, and a refutation's "farkas" is Farkas's fields under the
JSON keys _FARKAS_KEYS, so both are written and read from their types.
The "search" block, each domination edge and each forest choice come from one
writer (_config_obj, _edge_obj, _choice_obj), which the decoder re-runs to
check what it read.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, get_type_hints

from .engine import (
    ExtinctionCertificate,
    GuaranteedExtinction,
    Inconclusive,
    NotApplicable,
    SearchConfig,
    SearchStats,
    Verdict,
    verify_verdict,
)
from .exactlp import Farkas
from .forests import ExteriorForest, Unbalanced, edge_label
from .graphs import GraphEdge
from .model import ReactionNetwork, parse_int, rational_text

REPORT_FORMAT = "crn-extinction-report"
# Version 2: statistics.truncated is set only when a candidate had forests
# beyond forest_cap left undecided.  Certificate fields are as in version 1.
# Version 3: the per-candidate refutations are derived from one LP per forest
# (the summed candidate row), so their multipliers differ; the fields are as
# in version 2.
# Version 4: compact layout, fields as in version 3.
# Version 5: phase 1 starts from the slack basis and the subconservativity LP
# is solved over c - 1, so Farkas multipliers differ; fields as in version 4.
# Version 6: one balance refutation per unbalanced forest, covering the list
# "candidate_variables"; the per-candidate "candidate_variable",
# "candidate_reaction" and "label" fields are gone.
# Version 7: the balance LP is over the forest's support, so a refutation has
# one eq entry per species and one nonneg entry per support edge
# (ascending); versions 1-6 add one eq entry per off-support edge, ahead of
# the species, and one nonneg entry per edge.  Fields as in version 6.
# Version 8: a strictly subconservative network's subconservativity witness is
# its strict vector c, and its forest's refutation is the one c gives (c on
# the kernel rows, 1 on the candidate row); other witnesses are phase-1
# points, no longer lexicographically least.  Fields as in version 7.
# Version 9: the balance LP is solved in forest coordinates (each chosen
# edge's weight is its complex's flow surplus plus its inflow), so the
# multipliers of a refutation the LP finds differ; it is mapped back to the
# support layout of version 7, whose fields are unchanged.
# Version 10: every forest whose candidates are all true reactions that the
# subconservativity witness c lowers by at least 1 carries the refutation c
# gives, also under the any-edge reading and in networks that are not
# strictly subconservative.  Fields as in version 7.
REPORT_VERSION = 10

# The JSON keys of a refutation's Farkas fields, in field order.
_FARKAS_KEYS = ("eq", "ge", "nonneg")
# Each SearchStats field and its type: "statistics" holds them in this order.
_STATS_TYPES = get_type_hints(SearchStats)


def encode_rational(x: int | Fraction) -> dict[str, str]:
    """The exact encoding of an int or Fraction (both carry numerator/denominator)."""
    try:  # str inline, not rational_text: no helper call per number in the common case
        return {"num": str(x.numerator), "den": str(x.denominator)}
    except ValueError:
        return {"num": rational_text(x.numerator), "den": rational_text(x.denominator)}


# The strings str(int) produces: no sign on zero, no leading zeros, spaces or "_".
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _decode_int(text: Any) -> int:
    if not isinstance(text, str) or not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer string: {text!r}")
    return parse_int(text)


def decode_rational(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"not a rational encoding: {obj!r}")
    den = _decode_int(obj["den"])
    if den == 0:
        raise ValueError("rational with zero denominator")
    return Fraction(_decode_int(obj["num"]), den)


def _exact(value: Any, kind: type) -> Any:
    """A field of exactly this JSON type: an index is no float or bool, a flag no 0."""
    if type(value) is not kind:
        raise ValueError(f"not a JSON {kind.__name__}: {value!r}")
    return value


def _stat(value: Any, kind: type) -> Any:
    """A "statistics" field of the type SearchStats declares, exactly; a count is nonnegative."""
    if _exact(value, kind) < 0:
        raise ValueError(f"negative count: {value!r}")
    return value


def _rational_vector(values) -> list[dict[str, str]]:
    return [encode_rational(v) for v in values]


def _rationals(items: Any) -> tuple[Fraction, ...]:
    return tuple(map(decode_rational, _exact(items, list)))


def _complex_names(net: ReactionNetwork, indices) -> list[str]:
    names = net.complex_names
    return [names[i] for i in sorted(indices)]


def _edge_obj(net: ReactionNetwork, e: GraphEdge, j: int) -> dict[str, Any]:
    names = net.complex_names
    return {
        "label": edge_label(net.r + j, net.r),
        "from": names[e.src],
        "to": names[e.dst],
        "from_index": e.src,
        "to_index": e.dst,
    }


def _choice_obj(net: ReactionNetwork, y: int, v: int) -> dict[str, Any]:
    """Complex y's choice of edge v, whose kind and index are ("R", v) or ("D", v - r)."""
    r = net.r
    kind, index = ("R", v) if v < r else ("D", v - r)
    return {
        "complex": net.complex_names[y],
        "complex_index": y,
        "edge": {"kind": kind, "index": index, "label": edge_label(v, r)},
    }


def _decode_choice_edge(obj: Any, r: int, d: int) -> int:
    """Edge v of the expanded graph that a choice names; ValueError if it names none."""
    kind, index = obj["kind"], _exact(obj["index"], int)
    if kind == "R" and 0 <= index < r:
        return index
    if kind == "D" and 0 <= index < d:
        return r + index
    raise ValueError(f"forest choice {obj!r} names no edge")


def _farkas_obj(cert: Farkas) -> dict[str, Any]:
    return {key: _rational_vector(mults) for key, mults in zip(_FARKAS_KEYS, cert)}


def _decode_farkas(obj: Any) -> Farkas:
    return Farkas(*(_rationals(obj[key]) for key in _FARKAS_KEYS))


def _config_obj(cfg: SearchConfig, net: ReactionNetwork) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "dom_strategy": cfg.dom_strategy,
        "absorbing_strategy": cfg.absorbing_strategy,
        "forest_cap": cfg.forest_cap,
        "nontriviality": cfg.nontriviality,
    }
    if cfg.dom_strategy == "all-subsets":
        obj["dom_cap"] = cfg.dom_cap
    if cfg.absorbing_strategy == "enumerate":
        obj["absorbing_cap"] = cfg.absorbing_cap
    if cfg.absorbing_strategy == "explicit":
        obj["explicit_absorbing"] = _complex_names(net, cfg.explicit_absorbing)
    return obj


def _decode_config(net: ReactionNetwork, obj: Any) -> SearchConfig:
    """The "search" block as a SearchConfig.

    ValueError (or LookupError, TypeError) unless _config_obj writes the
    block back exactly.
    """
    fields = _exact(obj, dict)
    if "explicit_absorbing" in fields:
        index = {name: i for i, name in enumerate(net.complex_names)}
        names = _exact(fields["explicit_absorbing"], list)
        fields = dict(fields, explicit_absorbing=[index[name] for name in names])
    cfg = SearchConfig(**fields)
    if _config_obj(cfg, net) != obj:
        raise ValueError("the search block is not one that build_report writes")
    return cfg


def build_report(net: ReactionNetwork, verdict: Verdict, cfg: SearchConfig) -> dict[str, Any]:
    report: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "species": net.species_names,
        "complexes": list(net.complex_names),
        "search": _config_obj(cfg, net),
    }
    if isinstance(verdict, NotApplicable):
        report["verdict"] = "not-applicable"
        report["reason"] = verdict.reason
        report["subconservativity_refutation"] = _farkas_obj(verdict.refutation)
        return report
    if isinstance(verdict, Inconclusive):
        report["verdict"] = "inconclusive"
        report["subconservativity_witness"] = _rational_vector(verdict.subconservation)
        report["statistics"] = verdict.stats._asdict()
        return report
    cert = verdict.certificate
    report["verdict"] = "guaranteed-extinction"
    report["transient_complexes"] = _complex_names(net, verdict.transient)
    report["absorbing_set"] = _complex_names(net, cert.absorbing)
    report["absorbing_indices"] = sorted(cert.absorbing)
    report["dom_edges"] = [_edge_obj(net, e, j) for j, e in enumerate(cert.dom_edges)]
    report["forest"] = {
        "choices": [_choice_obj(net, y, v) for y, v in cert.forest.choices],
        "interior_reactions": list(cert.forest.interior),
    }
    report["nontriviality"] = cert.nontriviality
    report["balance_refutations"] = [
        {"candidate_variables": list(cands), "farkas": _farkas_obj(farkas)}
        for cands, farkas in cert.outcome.witnesses
    ]
    report["subconservativity_witness"] = _rational_vector(cert.subconservation)
    report["statistics"] = verdict.stats._asdict()
    return report


def support_refutation(
    net: ReactionNetwork, n_dom: int, forest: ExteriorForest, cert: Farkas
) -> Farkas:
    """A refutation in the edge layout of report versions 1-6, moved to the support layout.

    That layout has one variable per edge, r + d in all, and writes (C1) as
    one row x_v = 0 per edge v off the support, ascending, ahead of the
    kernel rows.  Only that row, the kernel rows and x_v >= 0 touch such a
    column v; the flow and candidate rows touch support edges alone.  So the
    refutation holds iff, at every off-support v, its x_v >= 0 multiplier is
    >= 0 and its x_v = 0 multiplier closes column v, and its other entries
    refute the system over the support.  Checks the first two and returns
    the other entries; ValueError when a check or a vector length fails.
    """
    edges = net.r + n_dom
    support = forest.support
    if not all(0 <= v < edges for v in support):
        raise ValueError("forest names an edge outside the expanded graph")
    inside = set(support)
    off = [v for v in range(edges) if v not in inside]
    if len(cert.eq_mult) != len(off) + net.m or len(cert.nonneg_mult) != edges:
        raise ValueError("refutation does not have one entry per edge")
    zeros, kernel = cert.eq_mult[: len(off)], cert.eq_mult[len(off) :]
    gamma = net.stoich
    for z, v in zip(zeros, off):
        s = cert.nonneg_mult[v]
        through = sum(y * row[v] for y, row in zip(kernel, gamma)) if v < net.r else 0
        if s < 0 or z + through + s != 0:
            raise ValueError(f"refutation does not close the column of edge {v}")
    return Farkas(kernel, cert.ge_mult, tuple(cert.nonneg_mult[v] for v in support))


def report_certificate(net: ReactionNetwork, report: dict[str, Any]) -> GuaranteedExtinction:
    """Rebuild a guaranteed-extinction verdict from its JSON report.

    Cross-checks the report's complex names against the network before
    trusting any index, then every other name against the index it names:
    the transient and absorbing sets, each domination edge's ends and label,
    and each forest choice's complex and edge label.  The "search" block must
    decode to a SearchConfig that writes it back exactly, with the
    certificate's nontriviality and, when it names an explicit absorbing
    set, the certificate's absorbing set.  Every list field must
    be a JSON list, "absorbing_indices" strictly ascending, and each field of
    "statistics" of the JSON type that SearchStats declares for it, each
    count nonnegative; extra keys are ignored.  A refutation covers the list
    "candidate_variables" from version 6 and the one "candidate_variable"
    before; each key is rejected at the other versions.  A refutation of
    versions 1-6 is moved to the support layout of version 7 by
    support_refutation, which first checks the entries it drops.
    """
    if report.get("verdict") != "guaranteed-extinction":
        raise ValueError("report does not carry a guaranteed-extinction verdict")
    expected = list(net.complex_names)
    if report.get("complexes") != expected or report.get("species") != net.species_names:
        raise ValueError("report does not match this network")
    dom_edges = tuple(
        GraphEdge(_exact(e["from_index"], int), _exact(e["to_index"], int))
        for e in _exact(report["dom_edges"], list)
    )
    indices = [_exact(i, int) for i in _exact(report["absorbing_indices"], list)]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("absorbing_indices is not strictly ascending")
    absorbing = frozenset(indices)
    choices = tuple(
        (_exact(c["complex_index"], int), _decode_choice_edge(c["edge"], net.r, len(dom_edges)))
        for c in _exact(report["forest"]["choices"], list)
    )
    interior = tuple(
        _exact(k, int) for k in _exact(report["forest"]["interior_reactions"], list)
    )
    forest = ExteriorForest(choices=choices, interior=interior)
    search = _decode_config(net, report["search"])
    if search.nontriviality != report["nontriviality"]:
        raise ValueError("the certificate's nontriviality is not the search's")
    if search.explicit_absorbing not in (None, absorbing):  # the one set it tried
        raise ValueError("the certificate's absorbing set is not the explicit search's")
    version = _exact(report["version"], int)
    listed = version >= 6
    stale = "candidate_variable" if listed else "candidate_variables"
    witnesses = []
    for w in _exact(report["balance_refutations"], list):
        if stale in w:
            raise ValueError(f"{stale!r} is not a field of this report version")
        cands = _exact(w["candidate_variables"], list) if listed else [w["candidate_variable"]]
        farkas = _decode_farkas(w["farkas"])
        if version < 7:
            farkas = support_refutation(net, len(dom_edges), forest, farkas)
        witnesses.append((tuple(_exact(k, int) for k in cands), farkas))
    outcome = Unbalanced(tuple(witnesses))
    certificate = ExtinctionCertificate(
        subconservation=_rationals(report["subconservativity_witness"]),
        dom_edges=dom_edges,
        absorbing=absorbing,
        forest=forest,
        outcome=outcome,
        nontriviality=report["nontriviality"],
    )
    transient = frozenset(range(net.n)) - absorbing
    counts = report["statistics"]
    stats = SearchStats(*(_stat(counts[key], kind) for key, kind in _STATS_TYPES.items()))
    named = (
        report["transient_complexes"] == _complex_names(net, transient)
        and report["absorbing_set"] == _complex_names(net, absorbing)
        and report["dom_edges"] == [_edge_obj(net, e, j) for j, e in enumerate(dom_edges)]
        and report["forest"]["choices"] == [_choice_obj(net, y, v) for y, v in choices]
    )
    if not named:
        raise ValueError("a name in the report disagrees with the index it names")
    return GuaranteedExtinction(transient, certificate, stats)


def verify_report(net: ReactionNetwork, report: Any) -> bool:
    """Rebuild the certificate from the report and re-audit it against the network.

    False for anything that is not a well-formed report of a supported
    version carrying a certificate that re-verifies; never raises on bad input.
    """
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        return False
    version = report.get("version")
    if type(version) is not int or not 1 <= version <= REPORT_VERSION:
        return False
    try:
        verdict = report_certificate(net, report)
    except (ValueError, LookupError, TypeError):
        return False
    return verify_verdict(net, verdict)


def render_text(net: ReactionNetwork, verdict: Verdict) -> str:
    names = net.complex_names

    lines: list[str] = []
    if isinstance(verdict, NotApplicable):
        lines.append("verdict: not applicable")
        lines.append(f"reason: {verdict.reason}")
        lines.append(
            "refutation: no strictly positive combination of species is "
            "nonincreasing under every reaction (exact certificate in the JSON report)"
        )
        return "\n".join(lines) + "\n"
    s = verdict.stats
    search = f"search: {s.candidates} candidate(s), {s.forests} forest(s), {s.balanced} balanced"
    if isinstance(verdict, Inconclusive):
        lines.append("verdict: inconclusive")
        lines.append(search)
        if s.truncated:
            lines.append("warning: forest enumeration truncated; verdict limited to the searched portion")
        return "\n".join(lines) + "\n"
    cert = verdict.certificate
    lines.append("verdict: guaranteed extinction event")
    lines.append("transient complexes: " + ", ".join(_complex_names(net, verdict.transient)))
    lines.append("absorbing set: " + ", ".join(_complex_names(net, cert.absorbing)))
    if cert.dom_edges:
        lines.append(
            "domination edges: "
            + ", ".join(
                f"D{j + 1}: {names[e.src]} -> {names[e.dst]}"
                for j, e in enumerate(cert.dom_edges)
            )
        )
    lines.append(
        "unbalanced forest edges: " + ", ".join(cert.forest.edge_labels(net.r))
    )
    edges = net.graph.edges
    pathway = [
        f"{names[edges[v].src]} -> {names[edges[v].dst]}"
        for _, v in cert.forest.choices
        if v < net.r
    ]
    if pathway:
        lines.append("extinction pathway (true reactions of the forest): " + "; ".join(pathway))
    witness = ", ".join(map(rational_text, cert.subconservation))
    lines.append(f"subconservativity witness: c = ({witness})")
    lines.append(search)
    return "\n".join(lines) + "\n"


def emit_report(net: ReactionNetwork, verdict: Verdict, cfg: SearchConfig) -> bytes:
    """The report as one compact line of UTF-8 JSON; render_text gives the text view."""
    return (json.dumps(build_report(net, verdict, cfg), separators=(",", ":")) + "\n").encode("utf-8")
