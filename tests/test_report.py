import copy
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from crnextinct.domination import DomCRN, dom_graph, domination_set, maximal_admissible
from crnextinct.engine import (
    ExtinctionCertificate,
    GuaranteedExtinction,
    Inconclusive,
    SearchConfig,
    SearchStats,
    analyze,
    verify_verdict,
)
from crnextinct.exactlp import Farkas, check_farkas
from crnextinct.forests import (
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
)
from crnextinct.invariants import conservation_system, is_subconservative
from crnextinct.oracle import find_recurrent_witness
from crnextinct.parser import parse_crn
from crnextinct.report import (
    REPORT_FORMAT,
    REPORT_VERSION,
    _decode_config,
    build_report,
    decode_rational,
    emit_report,
    encode_rational,
    rational_text,
    render_text,
    report_certificate,
    support_refutation,
    verify_report,
)

from conftest import FIXTURE_NAMES, load_fixture, reversible_chain_text
from forests_reference import verify_balance_outcome

REPORT_DIR = Path(__file__).resolve().parent / "reports"


def test_rational_encoding_round_trip(nets):
    # str() and int() refuse more than 4,300 digits by default; the encoding
    # and the text view write such numbers exactly, and the decoder reads them
    big = 10**5000 + 7
    digits = "1" + "0" * 4999 + "7"
    small = (Fraction(0), Fraction(3, 7), Fraction(-12, 5), Fraction(10**30))
    for value in small + (Fraction(big), Fraction(-big, 3), Fraction(3, big)):
        assert decode_rational(encode_rational(value)) == value
    assert [rational_text(v) for v in small] == [str(v) for v in small]
    assert encode_rational(big) == {"num": digits, "den": "1"}
    assert rational_text(Fraction(-big, 3)) == f"-{digits}/3"
    with pytest.raises(ValueError):
        decode_rational({"num": "1"})
    with pytest.raises(ValueError):
        decode_rational({"num": "1", "den": "0"})
    # int() would read the first four (1.5 truncated, "1_0" as 10); past the
    # digit limit, too, only the form str() writes is read
    not_int_strings = (1.5, True, "1_0", " 1", digits + "x", "0" + digits, "-" + "0" * 5000)
    for bad in not_int_strings:
        with pytest.raises(ValueError):
            decode_rational({"num": bad, "den": "1"})
        with pytest.raises(ValueError):
            decode_rational({"num": "1", "den": bad})
    net = nets["example21"]
    _, report = _extinction_report(net)
    report = json.loads(json.dumps(report))
    one = {"num": "1", "den": "1"}
    box, key = next(
        (box, key) for box, key in _rational_slots(report["balance_refutations"]) if box[key] == one
    )
    for bad in (1.0, True, "0_1", " 1"):  # each would decode to the same 1
        box[key] = dict(one, den=bad)
        assert verify_report(net, report) is False
    box[key] = one
    assert verify_report(net, report)


def _extinction_report(net):
    cfg = SearchConfig()
    verdict = analyze(net, cfg)
    return verdict, build_report(net, verdict, cfg)


def test_report_verifies_from_scratch(nets):
    for name in ("intro", "example21", "example999", "envz"):
        net = nets[name]
        _, report = _extinction_report(net)
        # the JSON layer must survive a serialization round trip
        report = json.loads(json.dumps(report))
        assert report["verdict"] == "guaranteed-extinction"
        assert verify_report(net, report), name


def test_report_certificate_mismatched_network(nets):
    _, report = _extinction_report(nets["example21"])
    with pytest.raises(ValueError, match="does not match"):
        report_certificate(nets["intro"], report)


def test_report_rejects_tampering(nets):
    net = nets["example21"]
    _, report = _extinction_report(net)
    report = json.loads(json.dumps(report))

    zeroed = copy.deepcopy(report)
    for wit in zeroed["balance_refutations"]:
        for key in ("eq", "ge", "nonneg"):
            wit["farkas"][key] = [
                {"num": "0", "den": "1"} for _ in wit["farkas"][key]
            ]
    assert not verify_report(net, zeroed)

    wrong_y = copy.deepcopy(report)
    wrong_y["absorbing_indices"] = [0]
    assert not verify_report(net, wrong_y)

    dropped_edge = copy.deepcopy(report)
    dropped_edge["forest"]["choices"] = dropped_edge["forest"]["choices"][1:]
    assert not verify_report(net, dropped_edge)

    for reading in ("bogus", 5, None):
        assert verify_report(net, dict(report, nontriviality=reading)) is False, reading

    aliased = copy.deepcopy(report)
    assert aliased["dom_edges"][0]["from_index"] == 0
    aliased["dom_edges"][0]["from_index"] = -4  # complex 0 under Python indexing
    assert not verify_report(net, aliased)

    # forest edges outside their index range, -1 included (it would alias the last edge)
    for pos, kind in ((0, "D"), (1, "R")):
        assert report["forest"]["choices"][pos]["edge"]["kind"] == kind
        limit = len(report["dom_edges"]) if kind == "D" else net.r
        for index in (-1, limit, limit + 5):
            bad = copy.deepcopy(report)
            bad["forest"]["choices"][pos]["edge"]["index"] = index
            assert verify_report(net, bad) is False, (kind, index)

    # kinds that name no edge: unknown, not a string, and a D choice relabelled
    # R whose index is a reaction (X1 + X2 -> 2 X2 leaves the same complex)
    for kind in ("X", True):
        bad = copy.deepcopy(report)
        bad["forest"]["choices"][0]["edge"]["kind"] = kind
        assert verify_report(net, bad) is False, kind
    relabelled = copy.deepcopy(report)
    assert relabelled["forest"]["choices"][0]["edge"] == {"kind": "D", "index": 0, "label": "D1"}
    relabelled["forest"]["choices"][0]["edge"]["kind"] = "R"
    assert verify_report(net, relabelled) is False

    # absorbing indices repeated or out of order, which build_report never writes
    for indices in ([3, 3], [3, 3, 3]):
        assert verify_report(net, dict(report, absorbing_indices=indices)) is False, indices
    net23 = nets["example23"]
    _, report23 = _extinction_report(net23)
    report23 = json.loads(json.dumps(report23))
    assert report23["absorbing_indices"] == [1, 2] and verify_report(net23, report23)
    assert verify_report(net23, dict(report23, absorbing_indices=[2, 1])) is False

    # each count of the statistics is a nonnegative JSON int, never a bool
    for field in ("candidates", "forests", "balanced", "vacuous_skipped"):
        for value in ("x", -1, True, 1.0, None):
            counts = dict(report["statistics"], **{field: value})
            assert verify_report(net, dict(report, statistics=counts)) is False, (field, value)


def test_report_with_a_repeated_choice_is_rejected():
    # X2 stays recurrent from 2 X3, so no extinction of the complement of {X3}
    # holds; choosing complex 2's edge twice made the forged forest unbalanced
    net = parse_crn(
        "X2 -> X1\nX1 + X3 -> X2 + X3\nX2 + X1 -> X2 + X3\n"
        "2 X3 -> X1 + X3\nX1 + X3 -> 2 X1\nX1 -> X3\n"
    ).network
    cfg = SearchConfig()
    assert isinstance(analyze(net, cfg), Inconclusive)
    dcrn = maximal_admissible(net)
    assert dcrn.absorbing == frozenset({7})
    forest = next(enumerate_forests(dcrn))
    at = [y for y, _ in forest.choices].index(2) + 1
    choices = forest.choices[:at] + ((2, net.r),) + forest.choices[at:]
    forged = forest._replace(choices=choices)
    outcome = decide_balance(build_balancing_system(dcrn, forged))
    assert isinstance(outcome, Unbalanced)
    cert = ExtinctionCertificate(
        is_subconservative(net.stoich).witness,
        dcrn.dom_edges,
        dcrn.absorbing,
        forged,
        outcome,
        cfg.nontriviality,
    )
    transient = frozenset(range(net.n)) - dcrn.absorbing
    verdict = GuaranteedExtinction(transient, cert, SearchStats(1, 1, 0, False, 0))
    assert find_recurrent_witness(net, transient, budget=4) == ((0, 0, 2), 0)
    assert not verify_verdict(net, verdict)
    assert verify_report(net, json.loads(emit_report(net, verdict, cfg))) is False


def test_report_envelope_is_checked(nets):
    net = nets["example21"]
    _, report = _extinction_report(net)
    report = json.loads(json.dumps(report))
    assert report["format"] == REPORT_FORMAT and report["version"] == REPORT_VERSION
    for not_a_report in ([], None, "report", 7):
        assert verify_report(net, not_a_report) is False
    for version, ok in ((9, True), (10, True), (0, False), (11, False), (True, False), ("2", False)):
        assert verify_report(net, dict(report, version=version)) is ok, version
    # certificate fields were unchanged from version 1 to 5, so a version-5
    # report verifies at each of them; "candidate_variable" is no version-6
    # field, and a refutation of versions 7 to 10 is over the support alone
    old = json.loads((REPORT_DIR / "example21-v5.json").read_bytes())
    v6 = json.loads((REPORT_DIR / "example21-v6.json").read_bytes())
    for version in range(1, 12):
        assert verify_report(net, dict(old, version=version)) is (version <= 5), version
        assert verify_report(net, dict(v6, version=version)) is (version == 6), version
        assert verify_report(net, dict(report, version=version)) is (7 <= version <= 10), version
    assert not verify_report(net, dict(report, format="bogus"))
    assert not verify_report(net, {k: v for k, v in report.items() if k != "format"})


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version2_reports_still_verify(nets, name):
    # emitted when each candidate's refutation came from its own LP
    net = nets[name]
    old = json.loads((REPORT_DIR / f"{name}-v2.json").read_text(encoding="utf-8"))
    assert old["version"] == 2
    assert verify_report(net, old)
    _, new = _extinction_report(net)
    new = json.loads(json.dumps(new))
    assert old["balance_refutations"] != new["balance_refutations"]


def _with_old_refutations(report, old, version):
    """Today's report with the version and the balance refutations of an older one."""
    return dict(report, version=version, balance_refutations=old["balance_refutations"])


def _pin_network(nets, name):
    """A pin's network: a fixture, or the network text stored beside the pins.

    A pin named "<network>-any" is that network's report under the any-edge
    reading, and "<network>-explicit" its report of a search given one
    absorbing set; the report's "search" block names it.
    """
    name = name.removesuffix("-any").removesuffix("-explicit")
    if name in nets:
        return nets[name]
    return parse_crn((REPORT_DIR / f"{name}.crn").read_text(encoding="utf-8")).network


PINS_V10 = ["example21", "envz", "chain6", "chain6-reversible", "chain6-any"]


@pytest.mark.parametrize("name", PINS_V10)
def test_version10_report_bytes_are_pinned(nets, name):
    # emitted at version 10; a change to any byte, multipliers included, must
    # come with a new REPORT_VERSION and new pinned reports
    pinned = (REPORT_DIR / f"{name}-v10.json").read_bytes()
    net = _pin_network(nets, name)
    cfg = SearchConfig(nontriviality="any-edge" if name.endswith("-any") else "true-reactions")
    verdict = analyze(net, cfg)
    assert emit_report(net, verdict, cfg) == pinned
    assert pinned.count(b"\n") == 1  # one compact line
    report = json.loads(pinned)
    assert report["version"] == 10
    assert verify_report(net, report)
    # one refutation over the forest's support: one eq entry per species and
    # one nonneg entry per support edge
    cert = verdict.certificate
    (refutation,) = report["balance_refutations"]
    assert len(refutation["farkas"]["eq"]) == net.m
    assert len(refutation["farkas"]["nonneg"]) == len(cert.forest.support)
    candidates = list(cert.outcome.witnesses[0][0])
    assert refutation["candidate_variables"] == candidates


@pytest.mark.parametrize("name", PINS_V10)
def test_version9_report_bytes_are_pinned(nets, name):
    # emitted at version 9, when only a strictly subconservative network
    # under the true-reactions reading was refuted by its witness: chain6
    # under any-edge was refuted by its balance LP, so it alone differs
    pinned = (REPORT_DIR / f"{name}-v9.json").read_bytes()
    net = _pin_network(nets, name)
    report = json.loads(pinned)
    assert report["version"] == 9
    assert verify_report(net, report)
    today = json.loads((REPORT_DIR / f"{name}-v10.json").read_bytes())
    as_v9 = _with_old_refutations(today, report, 9)
    assert (json.dumps(as_v9, separators=(",", ":")) + "\n").encode("utf-8") == pinned
    changed = report["balance_refutations"] != today["balance_refutations"]
    assert changed == (name == "chain6-any")


@pytest.mark.parametrize("name", ["example21", "envz", "chain6"])
def test_version8_report_bytes_are_pinned(nets, name):
    # emitted at version 8, when the balance LP kept one flow row per
    # exterior complex: envz's refutation came from that LP, so it alone
    # differs from today's; example21's LP found the same multipliers, and
    # chain6 is refuted by its strict vector with no LP
    pinned = (REPORT_DIR / f"{name}-v8.json").read_bytes()
    net = _pin_network(nets, name)
    report = json.loads(pinned)
    assert report["version"] == 8
    assert verify_report(net, report)
    today = json.loads((REPORT_DIR / f"{name}-v9.json").read_bytes())
    as_v8 = _with_old_refutations(today, report, 8)
    assert (json.dumps(as_v8, separators=(",", ":")) + "\n").encode("utf-8") == pinned
    changed = report["balance_refutations"] != today["balance_refutations"]
    assert changed == (name == "envz")


def test_chain6_is_refuted_by_its_strict_vector():
    # c = (2, 1) lowers every reaction of chain 6 by exactly 1: the refutation
    # is c on the kernel rows, 1 on the candidate row and 0 elsewhere, and
    # c is also the subconservativity witness; chain 6 has no domination
    # edge, so its candidates are true reactions under either reading
    for name in ("chain6", "chain6-any"):
        report = json.loads((REPORT_DIR / f"{name}-v10.json").read_bytes())
        (refutation,) = report["balance_refutations"]
        farkas = {k: [decode_rational(v) for v in vs] for k, vs in refutation["farkas"].items()}
        assert farkas == {"eq": [2, 1], "ge": [0] * 6 + [1], "nonneg": [0] * 6}, name
        assert [decode_rational(v) for v in report["subconservativity_witness"]] == [2, 1]


def test_chain6_with_a_reversible_step_is_refuted_by_its_balance_lp():
    # reversing one step makes chain 6 conservative, c = (1, 1), but not
    # strictly subconservative, so its forest is refuted by the balance LP:
    # y = (1, 0) counts X, which each candidate lowers by 1
    text = (REPORT_DIR / "chain6-reversible.crn").read_text(encoding="utf-8")
    assert text == reversible_chain_text(6, 3)
    report = json.loads((REPORT_DIR / "chain6-reversible-v10.json").read_bytes())
    (refutation,) = report["balance_refutations"]
    farkas = {k: [decode_rational(v) for v in vs] for k, vs in refutation["farkas"].items()}
    assert farkas == {"eq": [1, 0], "ge": [0] * 6 + [1], "nonneg": [0] * 6}
    assert [decode_rational(v) for v in report["subconservativity_witness"]] == [1, 1]


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version7_report_bytes_are_pinned(nets, name):
    # emitted at version 7, before the strict refutation: the fixtures are not
    # strictly subconservative, so only the version differs from today's bytes
    pinned = (REPORT_DIR / f"{name}-v7.json").read_bytes()
    net = nets[name]
    report = json.loads(pinned)
    assert report["version"] == 7
    assert verify_report(net, report)
    today = (REPORT_DIR / f"{name}-v8.json").read_bytes()
    assert pinned.replace(b'"version":7', b'"version":8', 1) == today
    cert = report_certificate(net, report).certificate
    assert len(cert.forest.support) < net.r + len(cert.dom_edges)


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version6_report_bytes_are_pinned(nets, name):
    # emitted at version 6, with a variable per edge: the report still
    # verifies, and only its version and refutations differ from today's
    pinned = (REPORT_DIR / f"{name}-v6.json").read_bytes()
    net = nets[name]
    report = json.loads(pinned)
    assert report["version"] == 6
    assert verify_report(net, report)
    _, today = _extinction_report(net)
    as_v6 = _with_old_refutations(today, report, 6)
    assert (json.dumps(as_v6, separators=(",", ":")) + "\n").encode("utf-8") == pinned
    # one refutation, covering the forest's candidates, which the version-5
    # report refuted one by one
    candidates = today["balance_refutations"][0]["candidate_variables"]
    assert [w["candidate_variables"] for w in report["balance_refutations"]] == [candidates]
    old = json.loads((REPORT_DIR / f"{name}-v5.json").read_bytes())
    assert [w["candidate_variable"] for w in old["balance_refutations"]] == candidates


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version6_dropped_entries_are_checked(nets, name):
    # moving a version-6 refutation to the support drops one x_v = 0 row and
    # one x_v >= 0 multiplier per edge v off the support; each is checked first
    net = nets[name]
    pinned = json.loads((REPORT_DIR / f"{name}-v6.json").read_bytes())
    cert = report_certificate(net, pinned).certificate
    off = [v for v in range(net.r + len(cert.dom_edges)) if v not in cert.forest.support]
    farkas = pinned["balance_refutations"][0]["farkas"]
    assert off and len(farkas["eq"]) == len(off) + net.m
    for i, v in enumerate(off):  # x_v = 0 is equality row i
        # an x_v = 0 multiplier that no longer closes its column
        changed = copy.deepcopy(pinned)
        eq = changed["balance_refutations"][0]["farkas"]["eq"]
        eq[i] = encode_rational(decode_rational(eq[i]) + 1)
        assert verify_report(net, changed) is False, (i, v)
        # an x_v >= 0 multiplier made negative, its column still closed by x_v = 0
        negative = copy.deepcopy(pinned)
        doctored = negative["balance_refutations"][0]["farkas"]
        s = decode_rational(doctored["nonneg"][v])
        doctored["nonneg"][v] = encode_rational(Fraction(-1))
        doctored["eq"][i] = encode_rational(decode_rational(doctored["eq"][i]) + s + 1)
        assert verify_report(net, negative) is False, (i, v)


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_refutation_widths_follow_the_version(nets, name):
    # a version-7 refutation over all edges, and a version-6 one over the
    # support alone, are rejected; each verifies at its own version
    net = nets[name]
    v6 = json.loads((REPORT_DIR / f"{name}-v6.json").read_bytes())
    v7 = json.loads((REPORT_DIR / f"{name}-v7.json").read_bytes())
    assert verify_report(net, v6) and verify_report(net, v7)
    assert verify_report(net, _with_old_refutations(v7, v6, 7)) is False
    assert verify_report(net, _with_old_refutations(v6, v7, 6)) is False


@pytest.mark.parametrize("version", range(2, REPORT_VERSION + 1))
def test_every_version_has_pins_that_verify(nets, version):
    # every report version from 2 on has a pin, every pin verifies, and the
    # newest version's pins are today's bytes, each under its own search block
    pins = sorted(REPORT_DIR.glob(f"*-v{version}.json"))
    assert pins, f"no pinned report of version {version}"
    for path in pins:
        name = path.stem.rsplit("-", 1)[0]
        net = _pin_network(nets, name)
        pinned = path.read_bytes()
        report = json.loads(pinned)
        assert report["version"] == version, path.name
        assert verify_report(net, report), path.name
        if version == REPORT_VERSION:
            cfg = _decode_config(net, report["search"])
            assert emit_report(net, analyze(net, cfg), cfg) == pinned, path.name
    named = {int(p.stem.rsplit("-v", 1)[1]) for p in REPORT_DIR.glob("*.json")}
    assert named == set(range(2, REPORT_VERSION + 1))


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version5_report_bytes_are_pinned(nets, name):
    # emitted at version 5, with one refutation per candidate: the report
    # still verifies, and only its version and refutations differ from today's
    pinned = (REPORT_DIR / f"{name}-v5.json").read_bytes()
    net = nets[name]
    report = json.loads(pinned)
    assert report["version"] == 5
    assert verify_report(net, report)
    _, today = _extinction_report(net)
    as_v5 = _with_old_refutations(today, report, 5)
    assert (json.dumps(as_v5, separators=(",", ":")) + "\n").encode("utf-8") == pinned
    # the new phase-1 start moved multipliers only: lexmin points are unique
    old = json.loads((REPORT_DIR / f"{name}-v4.json").read_bytes())
    for field in ("subconservativity_witness", "transient_complexes"):
        assert report[field] == old[field], field


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version4_report_bytes_are_pinned(nets, name):
    # emitted at version 4, before phase 1 started from the slack basis: the
    # report still verifies, and only its version and multipliers differ from
    # today's report
    pinned = (REPORT_DIR / f"{name}-v4.json").read_bytes()
    net = nets[name]
    old = json.loads(pinned)
    assert old["version"] == 4
    assert verify_report(net, old)
    _, report = _extinction_report(net)
    as_v4 = _with_old_refutations(report, old, 4)
    assert (json.dumps(as_v4, separators=(",", ":")) + "\n").encode("utf-8") == pinned
    assert old["balance_refutations"] != json.loads(json.dumps(report))["balance_refutations"]


@pytest.mark.parametrize("name", ["example21", "envz"])
def test_version3_report_bytes_are_pinned(nets, name):
    # version 4 changed only the layout and version 5 only the multipliers:
    # the version-3 bytes are today's report with the version-3 refutations,
    # at version 3, indented as version 3 wrote it; the report still verifies
    pinned = (REPORT_DIR / f"{name}-v3.json").read_bytes()
    net = nets[name]
    old = json.loads(pinned)
    assert old["version"] == 3
    assert verify_report(net, old)
    _, report = _extinction_report(net)
    as_v3 = _with_old_refutations(report, old, 3)
    assert (json.dumps(as_v3, indent=2) + "\n").encode("utf-8") == pinned


def _rational_slots(obj):
    """(container, key) of every rational encoding in obj, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, dict) and set(value) == {"num", "den"}:
            yield obj, key
        elif isinstance(value, (dict, list)):
            yield from _rational_slots(value)


@pytest.mark.parametrize(
    "bad",
    [
        {"num": 0, "den": "1"},
        {"num": "00", "den": "1"},
        {"num": " 0", "den": "1"},
        {"num": "0", "den": "1", "sign": "+"},
        {"num": "0"},
        {"num": "0", "den": 1.0},
        ["0", "1"],
    ],
)
def test_repeated_rational_is_checked_every_time(nets, bad):
    # one report holds {"num": "0", "den": "1"} many times; a bad entry after
    # the first must still be caught
    net = nets["envz"]
    report = json.loads((REPORT_DIR / "envz-v4.json").read_bytes())
    zeros = [
        (box, key)
        for box, key in _rational_slots(report)
        if box[key] == {"num": "0", "den": "1"}
    ]
    assert len(zeros) > 1
    assert verify_report(net, report)
    box, key = zeros[-1]
    box[key] = bad
    assert verify_report(net, report) is False


def _decoded_one_by_one(net, report, forest):
    def vector(items):
        return tuple(decode_rational(v) for v in items)

    def farkas(obj):
        cert = Farkas(vector(obj["eq"]), vector(obj["ge"]), vector(obj["nonneg"]))
        if report["version"] >= 7:
            return cert
        return support_refutation(net, len(report["dom_edges"]), forest, cert)

    def covered(w):
        return tuple(w["candidate_variables"]) if report["version"] >= 6 else (w["candidate_variable"],)

    witnesses = tuple((covered(w), farkas(w["farkas"])) for w in report["balance_refutations"])
    return witnesses, vector(report["subconservativity_witness"])


@pytest.mark.parametrize("path", sorted(REPORT_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_memoized_decode_matches_decode_rational(nets, path):
    # every pin's rationals decode as decode_rational gives them, one entry
    # at a time (the name dates from a per-report decode memo, since removed)
    report = json.loads(path.read_bytes())
    net = _pin_network(nets, path.stem.rsplit("-", 1)[0])
    cert = report_certificate(net, report).certificate
    decoded = _decoded_one_by_one(net, report, cert.forest)
    assert (cert.outcome.witnesses, cert.subconservation) == decoded


def _swapped(witnesses, i, j):
    out = list(witnesses)
    (ci, fi), (cj, fj) = out[i], out[j]
    out[i], out[j] = (ci, fj), (cj, fi)
    return tuple(out)


@pytest.mark.parametrize("name, candidates", [("intro", 2), ("envz", 9)])
def test_refutation_verifies_only_for_its_candidate(nets, name, candidates):
    # a version-5 report refutes each candidate on its own
    net = nets[name]
    report = json.loads((REPORT_DIR / f"{name}-v5.json").read_bytes())
    cert = report_certificate(net, report).certificate
    dcrn = DomCRN(net, dom_graph(net, cert.dom_edges), cert.absorbing)
    witnesses = cert.outcome.witnesses
    assert len(witnesses) == candidates
    assert verify_balance_outcome(dcrn, cert.forest, cert.outcome, cert.nontriviality)
    for i, j in itertools.combinations(range(candidates), 2):
        swapped = Unbalanced(_swapped(witnesses, i, j))
        assert not verify_balance_outcome(dcrn, cert.forest, swapped, cert.nontriviality), (i, j)
        doctored = copy.deepcopy(report)
        refutations = doctored["balance_refutations"]
        refutations[i]["farkas"], refutations[j]["farkas"] = (
            refutations[j]["farkas"],
            refutations[i]["farkas"],
        )
        assert verify_report(net, doctored) is False, (i, j)


def _replace(report, path, value):
    *keys, last = path
    for key in keys:
        report = report[key]
    report[last] = value(report[last])


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("example23", ("absorbing_indices",), lambda v: [float(i) for i in v]),
        ("example23", ("absorbing_indices",), lambda v: [True, 2]),
        ("example21", ("forest", "choices", 1, "complex_index"), float),
        ("example21", ("forest", "choices", 1, "edge", "index"), float),
        ("example21", ("dom_edges", 0, "to_index"), float),
        ("example23", ("forest", "interior_reactions"), lambda v: [True, 2]),
        ("example23", ("forest", "interior_reactions"), lambda v: [float(i) for i in v]),
        ("example21", ("balance_refutations", 0, "candidate_variables", 0), float),
        ("example21", ("statistics", "truncated"), lambda v: "no"),
        ("example21", ("statistics", "truncated"), lambda v: 0),
    ],
)
def test_report_fields_are_strictly_typed(nets, name, path, value):
    net = nets[name]
    _, report = _extinction_report(net)
    report = json.loads(json.dumps(report))
    assert verify_report(net, report)
    _replace(report, path, value)
    assert verify_report(net, report) is False
    with pytest.raises(ValueError):
        report_certificate(net, report)


@pytest.mark.parametrize(
    "pin, path, value",
    [
        ("envz-v6", ("absorbing_set",), ["X1"]),  # a transient complex
        ("envz-v6", ("absorbing_set",), []),
        ("envz-v6", ("dom_edges", 0, "label"), "D99"),
        ("envz-v6", ("dom_edges", 0, "from"), "X1"),
        ("envz-v6", ("dom_edges", 0, "to"), "X3"),
        ("envz-v6", ("forest", "choices", 0, "complex"), "bogus"),
        ("envz-v6", ("forest", "choices", 0, "edge", "label"), "2"),
        ("envz-v6", ("forest", "choices", 5, "edge", "label"), "D99"),
        ("envz-v6", ("forest", "interior_reactions"), {}),
        ("example21-v2", ("dom_edges", 1, "label"), "D1"),
        ("example21-v2", ("absorbing_set",), ["X2"]),
        ("intro-v5", ("dom_edges",), {}),
    ],
)
def test_every_name_is_checked_against_its_index(nets, pin, path, value):
    report = json.loads((REPORT_DIR / f"{pin}.json").read_bytes())
    net = nets[pin.split("-")[0]]
    assert verify_report(net, report)
    _replace(report, path, lambda _: value)
    assert verify_report(net, report) is False


def test_envz_report_contents(nets):
    net = nets["envz"]
    verdict, report = _extinction_report(net)
    assert len(report["transient_complexes"]) == 12
    assert report["absorbing_set"] == ["X4"]
    assert len(report["dom_edges"]) == 5
    assert len(report["forest"]["choices"]) == 12
    assert report["statistics"]["candidates"] == 1


def test_inconclusive_report(nets):
    net = nets["example100"]
    cfg = SearchConfig()
    verdict = analyze(net, cfg)
    report = build_report(net, verdict, cfg)
    assert report["verdict"] == "inconclusive"
    assert "subconservativity_witness" in report
    assert report["statistics"]["balanced"] == report["statistics"]["forests"]


def test_not_applicable_report(nets):
    net = nets["example22"]
    cfg = SearchConfig()
    verdict = analyze(net, cfg)
    report = build_report(net, verdict, cfg)
    assert report["verdict"] == "not-applicable"
    farkas = report["subconservativity_refutation"]
    assert set(farkas) >= {"eq", "ge"}
    # the refutation is carried exactly: all multipliers rational-encoded
    for item in farkas["ge"]:
        decode_rational(item)
    # and anyone can re-check it against the system over c >= 1
    system = conservation_system(net.stoich, equality=False)
    decoded = Farkas(*(tuple(map(decode_rational, farkas[k])) for k in ("eq", "ge", "nonneg")))
    assert check_farkas(system, decoded)
    doctored = Farkas(decoded.eq_mult, (decoded.ge_mult[0] + 1, *decoded.ge_mult[1:]), decoded.nonneg_mult)
    assert not check_farkas(system, doctored)


def test_text_rendering(nets):
    net = nets["example21"]
    cfg = SearchConfig()
    verdict = analyze(net, cfg)
    text = render_text(net, verdict)
    assert "guaranteed extinction" in text
    assert "X1 + X2" in text
    assert "extinction pathway" in text
    assert "2 X2 -> X1 + X2" in text and "X2 -> X1" in text
    capped = SearchConfig(forest_cap=1)
    text = render_text(net, analyze(net, capped))
    assert "verdict: inconclusive" in text
    assert "warning: forest enumeration truncated" in text


@pytest.mark.parametrize(
    "cfg, candidates",
    [
        # reactions 2 and 3, and D1 as variable r + 0 = 3
        (SearchConfig(absorbing_strategy="explicit", explicit_absorbing=frozenset({3})), [1, 2]),
        (SearchConfig(nontriviality="any-edge"), [1, 2, 3]),
        (
            SearchConfig(
                absorbing_strategy="explicit", explicit_absorbing=frozenset({3}), nontriviality="any-edge"
            ),
            [1, 2, 3],
        ),
    ],
    ids=["explicit-absorbing", "any-edge", "both"],
)
def test_report_round_trip_under_search_options(nets, cfg, candidates):
    net = nets["example21"]
    verdict = analyze(net, cfg)
    report = json.loads(emit_report(net, verdict, cfg))
    assert report["search"]["nontriviality"] == cfg.nontriviality == report["nontriviality"]
    if cfg.explicit_absorbing is not None:
        assert report["search"]["explicit_absorbing"] == report["absorbing_set"] == ["X1"]
    assert [w["candidate_variables"] for w in report["balance_refutations"]] == [candidates]
    assert verify_report(net, report)


@pytest.mark.parametrize(
    "pin, doctor",
    [
        ("envz-v10", lambda r: r.__setitem__("search", {"bogus": 1})),
        ("envz-v10", lambda r: r.__setitem__("search", [])),
        ("envz-v10", lambda r: r.__setitem__("search", None)),
        ("envz-v10", lambda r: r.pop("search")),
        ("envz-v10", lambda r: r["search"].__setitem__("forest_cap", -3)),
        ("envz-v10", lambda r: r["search"].__setitem__("forest_cap", True)),
        ("envz-v10", lambda r: r["search"].pop("forest_cap")),
        ("envz-v10", lambda r: r["search"].__setitem__("dom_cap", 64)),
        ("envz-v10", lambda r: r["search"].__setitem__("bogus", 1)),
        ("envz-v10", lambda r: r["search"].__setitem__("nontriviality", "any-edge")),
        ("chain6-any-v10", lambda r: r["search"].__setitem__("nontriviality", "true-reactions")),
        (
            "envz-v10",
            lambda r: r["search"].update(absorbing_strategy="explicit", explicit_absorbing=["bogus"]),
        ),
        (
            "envz-v10",
            lambda r: r["search"].update(absorbing_strategy="explicit", explicit_absorbing=["X4", "X4"]),
        ),
        ("envz-v10", lambda r: r["search"].update(absorbing_strategy="explicit", explicit_absorbing="X4")),
        ("envz-explicit-v10", lambda r: r["search"].__setitem__("explicit_absorbing", ["X1"])),
    ],
    ids=[
        "unknown-field", "list", "null", "missing", "negative-cap", "bool-cap", "cap-dropped",
        "unused-cap", "extra-field", "other-reading", "other-reading-any", "unknown-complex",
        "repeated-complex", "complex-not-a-list", "other-explicit-set",
    ],
)
def test_search_block_is_checked(nets, pin, doctor):
    # the block decodes to a SearchConfig that build_report writes back
    # exactly, its nontriviality is the certificate's, and an explicit
    # absorbing set (the one set that search tried) is the certificate's
    net = _pin_network(nets, pin.rsplit("-", 1)[0])
    report = json.loads((REPORT_DIR / f"{pin}.json").read_bytes())
    assert verify_report(net, report)
    doctor(report)
    assert verify_report(net, report) is False


@pytest.mark.parametrize(
    "pin, doctor",
    [
        ("envz-v6", lambda w: w["candidate_variables"].pop(3)),
        ("envz-v6", lambda w: w["candidate_variables"].insert(2, w["candidate_variables"][2])),
        ("envz-v6", lambda w: w["candidate_variables"].append(max(w["candidate_variables"]) + 1)),
        ("envz-v6", lambda w: w["candidate_variables"].reverse()),
        ("envz-v6", lambda w: w["candidate_variables"].clear()),
        ("envz-v6", lambda w: w["candidate_variables"].__setitem__(0, float(w["candidate_variables"][0]))),
        ("envz-v6", lambda w: w["candidate_variables"].__setitem__(0, bool(w["candidate_variables"][0]))),
        ("envz-v6", lambda w: w.__setitem__("candidate_variable", w.pop("candidate_variables"))),
        ("envz-v5", lambda w: w.__setitem__("candidate_variables", [w["candidate_variable"]])),
    ],
    ids=[
        "omitted", "repeated", "non-candidate", "reversed", "empty", "float", "bool",
        "v5-key-in-v6", "v6-key-in-v5",
    ],
)
def test_candidate_variables_are_strict(nets, pin, doctor):
    net = nets["envz"]
    report = json.loads((REPORT_DIR / f"{pin}.json").read_bytes())
    assert verify_report(net, report)
    doctor(report["balance_refutations"][0])
    assert verify_report(net, report) is False


def test_an_old_refutation_naming_an_edge_outside_the_graph_is_rejected(nets):
    # a version 1-6 refutation is moved to the support layout, which first
    # checks every support edge against the expanded graph
    net = nets["envz"]
    report = json.loads((REPORT_DIR / "envz-v5.json").read_bytes())
    assert verify_report(net, report)
    report["forest"]["interior_reactions"].append(999)
    with pytest.raises(ValueError, match="forest names an edge outside the expanded graph"):
        report_certificate(net, report)
    assert verify_report(net, report) is False


def _certify(net, cfg):
    """analyze -> emit_report -> verify_report: the verdict, the bytes and the audit."""
    verdict = analyze(net, cfg)
    data = emit_report(net, verdict, cfg)
    verified = None
    if isinstance(verdict, GuaranteedExtinction):
        verified = verify_report(net, json.loads(data))
    return verdict, data, verified


@pytest.mark.parametrize("reading", ["true-reactions", "any-edge"])
def test_a_warm_network_answers_as_a_fresh_one(reading):
    # the network's tables (stoich, graph and its condensation) are built by
    # the first call and read by every later one: they must not carry state
    cfg = SearchConfig(nontriviality=reading)
    other = SearchConfig(nontriviality="any-edge" if reading == "true-reactions" else "true-reactions")
    for name in FIXTURE_NAMES:
        warm = load_fixture(name)
        _certify(warm, cfg)
        _certify(warm, other)
        # callers get fresh lists: changing them changes no table
        domination_set(warm).clear()
        for out in warm.graph.successors():
            out.append(0)
        assert isinstance(warm.stoich, tuple)
        assert all(isinstance(row, tuple) for row in warm.stoich)
        g = warm.graph
        assert isinstance(g.edges, tuple)
        assert all(isinstance(field, tuple) for field in g.condensation)
        got = _certify(warm, cfg)
        want = _certify(load_fixture(name), cfg)
        assert got == want, name
        assert got[2] in (True, None), name
