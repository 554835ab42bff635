import json
import os
import subprocess
import sys

import pytest

from crnextinct import forests
from crnextinct.cli import main
from crnextinct.engine import SearchConfig, analyze
from crnextinct.forests import ANY_EDGE, decide_balance
from crnextinct.parser import parse_crn
from crnextinct.report import emit_report, render_text, verify_report

from conftest import FIXTURE_DIR, FIXTURE_NAMES, chain_text, load_fixture, subprocess_env


def fixture(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.crn")


def test_analyze_json_report(tmp_path, capsys):
    out = tmp_path / "envz.json"
    code = main(["analyze", fixture("envz"), "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "guaranteed extinction" in stdout
    report = json.loads(out.read_text())
    net = parse_crn((FIXTURE_DIR / "envz.crn").read_text()).network
    assert verify_report(net, report)


def test_analyze_inconclusive(capsys):
    assert main(["analyze", fixture("example100")]) == 0
    assert "inconclusive" in capsys.readouterr().out


def test_analyze_not_applicable(capsys):
    assert main(["analyze", fixture("example22")]) == 0
    assert "not applicable" in capsys.readouterr().out


def test_analyze_explicit_absorbing(capsys):
    code = main(
        [
            "analyze",
            fixture("example000"),
            "--absorbing",
            "set:X2 + X3, 2 X3, 2 X2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "guaranteed extinction" in out and "2 X1" in out


def test_enumeration_caps_bound_the_candidates_and_truncate_nothing(tmp_path, capsys):
    # all:1 and enumerate:1 try only the maximal expansion's terminal set,
    # whose one forest is balanced: inconclusive, and not truncated, since
    # only --forest-cap leaves a forest undecided.  all:4 and enumerate:2
    # reach a second candidate, which certifies the event
    def run(dom, absorbing):
        out = tmp_path / f"{dom}-{absorbing}.json"
        args = ["analyze", fixture("example000"), "--dom", dom, "--absorbing", absorbing]
        assert main([*args, "--json", str(out)]) == 0
        return capsys.readouterr().out, json.loads(out.read_text())

    text, report = run("all:1", "enumerate:1")
    assert "verdict: inconclusive" in text and "1 candidate(s)" in text
    assert report["statistics"]["truncated"] is False
    text, report = run("all:4", "enumerate:2")
    assert "verdict: guaranteed extinction event" in text and "2 candidate(s)" in text
    assert report["statistics"]["truncated"] is False


def test_analyze_nontriviality_flag(capsys):
    assert main(["analyze", fixture("example21"), "--nontriviality", "any"]) == 0
    capsys.readouterr()


def test_analyze_chain_1500_exits_0(tmp_path):
    # 1,500 exterior complexes in one path: no recursion depth follows them,
    # and the strict subconservation vector refutes the forest with no LP
    env = subprocess_env()
    network, report = tmp_path / "chain1500.crn", tmp_path / "chain1500.json"
    network.write_text(chain_text(1500), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "crnextinct.cli", "analyze", str(network), "--json", str(report)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "guaranteed extinction" in done.stdout
    net = parse_crn(network.read_text(encoding="utf-8")).network
    assert verify_report(net, json.loads(report.read_text(encoding="utf-8")))


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("X1 -> ??\n")
    assert main(["analyze", str(bad)]) == 2
    assert "column" in capsys.readouterr().err


def test_unknown_complex_exit_code(capsys):
    assert (
        main(["analyze", fixture("example21"), "--absorbing", "set:X1 + 5 X2"]) == 2
    )
    assert capsys.readouterr().err == (
        "error: complex 'X1 + 5 X2' does not occur in the network\n"
    )


def test_complex_the_network_lacks_is_named_plainly(tmp_path, capsys):
    # the same one-line error for --absorbing set: and --check-extinction;
    # A is a species, but 2 A is no complex of the network
    path = tmp_path / "ab.crn"
    path.write_text("A + B -> 2 B\nB -> A\n")
    for args in (
        ["analyze", str(path), "--absorbing", "set:A, 2 A"],
        ["oracle", str(path), "--init", "A=1", "--check-extinction", "A, 2 A"],
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: complex '2 A' does not occur in the network\n"


def test_an_empty_complex_list_is_an_error_for_both_flags(capsys):
    # "" lists no complex, as " , " does: an error, never a flag left unset
    for args in (
        ["analyze", fixture("intro"), "--absorbing", "set:"],
        *(
            ["oracle", fixture("intro"), "--init", "X1=1", "--check-extinction", text]
            for text in ("", " , ")
        ),
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty complex list\n"


def test_oracle_confirms_extinction(capsys):
    code = main(
        [
            "oracle",
            fixture("intro"),
            "--init",
            "X1=3,X2=1",
            "--check-extinction",
            "2 X1, X1 + X2",
            "--budget",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "extinction event on listed complexes from root: True" in out
    assert "total <= 5: True" in out


def test_oracle_bad_init(capsys):
    assert main(["oracle", fixture("intro"), "--init", "X9=1"]) == 2
    capsys.readouterr()
    for init in ("X1=1,X1=2", "X1=1, X1 =1"):  # a repeated species
        assert main(["oracle", fixture("intro"), "--init", init]) == 2
        assert "given twice" in capsys.readouterr().err


def test_oracle_bad_target_prints_nothing(capsys):
    # the targets are checked before the root is explored or reported
    args = ["oracle", fixture("intro"), "--init", "X1=1", "--check-extinction", "X9"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown species 'X9'" in captured.err


def test_oracle_state_cap_exit(capsys):
    code = main(["oracle", fixture("example22"), "--init", "X1=1", "--state-cap", "10"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_oracle_sweep_cap_is_shared():
    # each intro root's own closure stays far below 500 states; the sweep's
    # shared closure does not, so a huge budget must stop at the cap quickly
    env = subprocess_env()
    args = ["oracle", fixture("intro"), "--init", "X1=1", "--check-extinction", "2 X1"]
    args += ["--budget", "1000000", "--state-cap", "500"]
    done = subprocess.run(
        [sys.executable, "-m", "crnextinct.cli", *args],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 3
    assert "the reachable space may be infinite" in done.stderr


def test_package_runs_as_a_module():
    # `python -m crnextinct` and `python -m crnextinct.cli` are one command line
    env = subprocess_env()

    def run(module, *args):
        return subprocess.run(
            [sys.executable, "-m", module, *args], env=env, capture_output=True, timeout=60
        )

    for args in (["analyze", fixture("envz")], ["structure", fixture("envz")]):
        package, cli = run("crnextinct", *args), run("crnextinct.cli", *args)
        assert package.returncode == cli.returncode == 0
        assert package.stdout == cli.stdout and package.stdout
    missing = run("crnextinct", "analyze", str(FIXTURE_DIR / "no-such-network.crn"))
    assert missing.returncode == 2
    assert missing.stdout == b""


@pytest.mark.parametrize("command", ["structure", "analyze"])
def test_closed_stdout_exits_1_quietly(command):
    env = subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "crnextinct.cli", command, fixture("envz")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


def test_structure_output(capsys):
    assert main(["structure", fixture("example22")]) == 0
    out = capsys.readouterr().out
    assert "terminal SLCs: {2 X2}; {2 X1}" in out
    assert "absorbing complex sets" in out


def test_invariants_output(capsys):
    assert main(["invariants", fixture("example23")]) == 0
    out = capsys.readouterr().out
    assert "subconservative: True" in out
    assert "conservative: False" in out
    # the matrix and the two verdicts are the whole output
    assert out == (
        "stoichiometric matrix (rows = species):\n"
        "  X1: [0, -1, 1]\n"
        "  X2: [-1, 1, -1]\n"
        "conservative: False\n"
        "subconservative: True, witness c = ['1', '1']\n"
    )


def test_invariants_ends_on_the_complete_conversion_network(tmp_path):
    # Xi -> Xj for all i != j over 8 species: 56 reactions, whose nonnegative
    # kernel has 16,064 extreme rays; the two conservation LPs take milliseconds
    path = tmp_path / "complete8.crn"
    path.write_text("".join(f"X{i} -> X{j}\n" for i in range(8) for j in range(8) if i != j))
    done = subprocess.run(
        [sys.executable, "-m", "crnextinct.cli", "invariants", str(path)],
        env=subprocess_env(), capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    for label in ("conservative", "subconservative"):
        assert any(line.startswith(f"{label}: True, witness c = ") for line in lines), label


def test_one_reaction_over_40000_species_ends(tmp_path):
    # X0 + ... + X39999 -> 0: each conservation row has one entry per species
    # it names, so neither command builds a 40,000 x 40,000 identity
    path = tmp_path / "wide.crn"
    path.write_text(" + ".join(f"X{i}" for i in range(40000)) + " -> 0\n")
    report = tmp_path / "wide.json"
    for args in (["analyze", str(path), "--json", str(report)], ["invariants", str(path)]):
        done = subprocess.run(
            [sys.executable, "-m", "crnextinct.cli", *args],
            env=subprocess_env(), capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    witness = str(["1"] * 40000)
    assert lines[-2:] == ["conservative: False", f"subconservative: True, witness c = {witness}"]
    net = parse_crn(path.read_text()).network
    assert verify_report(net, json.loads(report.read_text()))


def test_forests_output(capsys):
    assert main(["forests", fixture("example21")]) == 0
    out = capsys.readouterr().out
    assert "balanced, alpha = [1, 0, 1, 0, 1]" in out
    # one refutation per unbalanced forest, covering its candidate reactions
    assert "forest 2: edges {D1, 2, 3}: unbalanced, refuted on candidates {2, 3}" in out
    assert "forest 3: edges {D1, D2, 3}: unbalanced, refuted on candidates {3}" in out
    assert "refutation(s)" not in out
    # every complex absorbing: analyze skips this candidate as vacuous
    assert main(["forests", fixture("example001")]) == 0
    out = capsys.readouterr().out
    assert "nothing to decide" in out
    assert "forest 1" not in out and "unbalanced" not in out


def test_forests_prints_a_reused_alpha(tmp_path, capsys, monkeypatch):
    # every forest keeps the first forest's positive choices {1, 2, 3, D1},
    # so one balance LP decides all seven and each prints its alpha
    path = tmp_path / "reuse.crn"
    path.write_text(
        "X2 -> X3\nX1 + X3 -> 2 X1\n2 X1 -> X1 + X2\n"
        "X2 + 2 X3 -> X1 + X2 + X3\nX1 + X2 + X3 -> X2 + 2 X3\n"
    )
    decided = []

    def counted(system):
        decided.append(system)
        return decide_balance(system)

    monkeypatch.setattr(forests, "decide_balance", counted)
    assert main(["forests", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("forest ")]
    assert len(lines) == 7 and len(decided) == 1
    assert lines[0] == "forest 1: edges {1, 2, 3, D1, 4, D3}: balanced, alpha = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]"
    assert all(line.endswith(": balanced, alpha = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]") for line in lines)


def test_forests_caveat_without_subconservativity(capsys):
    caveat = "the network is not subconservative: no forest below certifies an extinction event"
    assert main(["forests", fixture("example22")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert caveat in lines
    assert lines.index(caveat) < next(i for i, line in enumerate(lines) if line.startswith("forest 1:"))
    assert main(["forests", fixture("example21")]) == 0
    assert caveat not in capsys.readouterr().out


def test_petri_round_trip(tmp_path, capsys):
    exported = tmp_path / "net.json"
    assert main(["petri", "export", fixture("example21"), "--out", str(exported)]) == 0
    assert main(["petri", "import", str(exported)]) == 0
    out = capsys.readouterr().out
    assert out == "X1 + X2 -> 2 X2\n2 X2 -> X1 + X2\nX2 -> X1\n"


@pytest.mark.parametrize(
    "doc, place",
    [
        # text lists A first, since A -> B is the first reaction
        (
            {
                "places": ["B", "A"],
                "transitions": [{"input": {"A": 1}, "output": {"B": 1}}, {"input": {"B": 1}}],
            },
            "B",
        ),
        # B occurs in no transition
        ({"places": ["A", "B"], "transitions": [{"input": {"A": 1}}]}, "B"),
    ],
    ids=["reordered", "unused-place"],
)
def test_petri_import_refuses_lossy_text(doc, place, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["petri", "import", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"place {place!r}" in err


def test_petri_import_malformed(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"places": ["A"], "transitions": [{"input": {"A": -2}}]}')
    assert main(["petri", "import", str(doc)]) == 2
    capsys.readouterr()


def test_missing_file(capsys):
    assert main(["analyze", "/nonexistent/net.crn"]) == 2
    capsys.readouterr()


def test_analyze_widened_search(tmp_path, capsys):
    out = tmp_path / "e000.json"
    code = main(
        [
            "analyze",
            fixture("example000"),
            "--dom",
            "all:8",
            "--absorbing",
            "enumerate:8",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    assert "guaranteed extinction" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["search"]["dom_strategy"] == "all-subsets"
    assert report["search"]["absorbing_cap"] == 8
    net = parse_crn((FIXTURE_DIR / "example000.crn").read_text()).network
    assert verify_report(net, report)


ANALYZE_FLAGS = {
    "default": ([], SearchConfig()),
    "widened": (
        ["--dom", "all:4", "--absorbing", "enumerate:2", "--forest-cap", "3"],
        SearchConfig(
            dom_strategy="all-subsets", dom_cap=4,
            absorbing_strategy="enumerate", absorbing_cap=2, forest_cap=3,
        ),
    ),
    "any-edge": (["--nontriviality", "any"], SearchConfig(nontriviality=ANY_EDGE)),
}


@pytest.mark.parametrize("flags", sorted(ANALYZE_FLAGS))
def test_analyze_prints_the_text_view_and_writes_the_report_bytes(flags, tmp_path, capsys):
    argv, cfg = ANALYZE_FLAGS[flags]
    for name in FIXTURE_NAMES:
        out = tmp_path / f"{name}.json"
        assert main(["analyze", fixture(name), "--json", str(out), *argv]) == 0, name
        net = load_fixture(name)
        verdict = analyze(net, cfg)
        assert capsys.readouterr().out == render_text(net, verdict), name
        assert out.read_bytes() == emit_report(net, verdict, cfg), name


def test_analyze_bad_strategy_values(capsys):
    assert main(["analyze", fixture("example21"), "--dom", "some"]) == 2
    assert main(["analyze", fixture("example21"), "--absorbing", "enumerate:0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture("example21"), "--forest-cap", "0"],
        ["forests", fixture("example21"), "--forest-cap", "0"],
        ["structure", fixture("example21"), "--cap", "0"],
        ["oracle", fixture("intro"), "--init", "X1=1", "--budget", "-1"],
        ["oracle", fixture("intro"), "--init", "X1=1", "--state-cap", "-5"],
        ["oracle", fixture("intro"), "--init", "X1=1", "--state-cap", "0"],
    ],
)
def test_out_of_range_caps_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "must be >=" in capsys.readouterr().err


HUGE = "99999999999999999999"  # above sys.maxsize


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture("example21"), "--forest-cap", HUGE],
        ["forests", fixture("example21"), "--forest-cap", HUGE],
        ["analyze", fixture("example21"), "--dom", f"all:{HUGE}"],
        ["structure", fixture("example21"), "--cap", HUGE],
        ["oracle", fixture("intro"), "--init", "X1=1", "--state-cap", HUGE],
    ],
)
def test_huge_caps_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be <=" in captured.err and not captured.out


def test_largest_cap_runs(capsys):
    cap = str(sys.maxsize)
    assert main(["analyze", fixture("example21"), "--forest-cap", cap]) == 0
    assert "guaranteed extinction" in capsys.readouterr().out
    assert main(["forests", fixture("example21"), "--forest-cap", cap]) == 0
    out = capsys.readouterr().out
    assert "forest 1:" in out and "truncated" not in out


def test_numbers_past_the_str_digit_limit(tmp_path, capsys):
    # X1 -> 10**400 X2 -> ... -> 10**400 X13: the subconservativity witness has
    # about 4,780 digits, more than str() converts at the interpreter's default
    # limit, which stays as it is; every command writes the exact digits
    text = "".join(f"X{i} -> {10**400} X{i + 1}\n" for i in range(1, 13))
    path = tmp_path / "big.crn"
    path.write_text(text)
    out = tmp_path / "big.json"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before 3.10.7
    assert main(["analyze", str(path)]) == 0
    assert main(["analyze", str(path), "--json", str(out)]) == 0
    assert main(["invariants", str(path)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    stdout = capsys.readouterr().out
    report = json.loads(out.read_text())
    digits = max(len(v["num"]) for v in report["subconservativity_witness"])
    assert digits > 4300
    assert "subconservative: True, witness c = ['" in stdout
    assert verify_report(parse_crn(text).network, report)
    shown = ", ".join(
        v["num"] if v["den"] == "1" else f"{v['num']}/{v['den']}"
        for v in report["subconservativity_witness"]
    )
    assert f"subconservativity witness: c = ({shown})\n" in stdout


def test_coefficients_past_the_str_digit_limit(tmp_path, capsys):
    # a 5,000-digit coefficient in network text and in a Petri multiplicity:
    # every command reads it and prints its digits, but petri export, whose
    # JSON numbers go through int.__repr__, refuses it in one plain line
    nines = "9" * 5000
    text = f"X -> {nines} Y\n"
    crn, report, petri = tmp_path / "big.crn", tmp_path / "big.json", tmp_path / "petri.json"
    crn.write_text(text)
    petri.write_text(
        '{"places": ["X", "Y"], "transitions": [{"input": {"X": 1}, "output": {"Y": %s}}]}' % nines
    )
    runs = [
        (["analyze", str(crn), "--json", str(report)], 0),
        (["structure", str(crn)], 0),
        (["invariants", str(crn)], 0),
        (["forests", str(crn)], 0),
        (["oracle", str(crn), "--init", "X=1", "--check-extinction", "X"], 0),
        (["petri", "import", str(petri)], 0),
        (["petri", "export", str(crn)], 2),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and "set_int_max_str_digits" not in out + err, argv
        if code == 0:
            assert nines in out and err == "", argv
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    assert verify_report(parse_crn(text).network, json.loads(report.read_text()))


def test_inputs_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte order mark at the start of a file is dropped, for both kinds of input
    bom = "\ufeff".encode("utf-8")
    crn = tmp_path / "net.crn"
    crn.write_bytes(bom + (FIXTURE_DIR / "example21.crn").read_bytes())
    assert main(["analyze", fixture("example21")]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", str(crn)]) == 0
    assert capsys.readouterr().out == plain
    petri = tmp_path / "net.json"
    assert main(["petri", "export", fixture("example21"), "--out", str(petri)]) == 0
    petri.write_bytes(bom + petri.read_bytes())
    assert main(["petri", "import", str(petri)]) == 0
    assert capsys.readouterr().out == "X1 + X2 -> 2 X2\n2 X2 -> X1 + X2\nX2 -> X1\n"


def _deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    return path


def _latin1(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"X1 -> \xe9\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["analyze", fixture("intro"), "--json", str(d / "missing" / "r.json")],
        lambda d: ["petri", "export", fixture("intro"), "--out", str(d / "missing" / "n.json")],
        lambda d: ["analyze", str(_latin1(d, "net.crn"))],
        lambda d: ["petri", "import", str(_latin1(d, "net.json"))],
        lambda d: ["petri", "import", str(_deep_json(d))],
    ],
    ids=["json-dir", "out-dir", "crn-utf8", "petri-utf8", "petri-deep"],
)
def test_file_errors_exit_2(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
