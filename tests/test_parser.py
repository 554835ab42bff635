import pytest

from crnextinct.model import format_complex
from crnextinct.parser import ParseError, format_network, parse_complex, parse_crn

from conftest import FIXTURE_DIR, FIXTURE_NAMES


def test_intro_text():
    doc = parse_crn("2 X1 -> X1 + X2\nX1 + X2 -> 2 X1\nX1 + X2 -> 2 X2\n")
    net = doc.network
    assert net.species_names == ["X1", "X2"]
    assert net.r == 3
    assert net.reactions[0].source.coeffs == (2, 0)


def test_reversible_expansion_order():
    net = parse_crn("X1 + X2 <-> 2 X2\nX2 -> X1\n").network
    assert net.r == 3
    assert net.reactions[0].source.coeffs == (1, 1)
    assert net.reactions[1].source.coeffs == (0, 2)
    assert net.reactions[2].source.coeffs == (0, 1)


def test_self_loop_line():
    net = parse_crn("X1 -> X1").network
    assert net.r == 1 and net.n == 1


def test_zero_complex():
    net = parse_crn("0 -> X1\nX1 -> 0\n").network
    assert net.reactions[0].source.coeffs == (0,)
    assert net.reactions[1].target.coeffs == (0,)


def test_coefficient_without_space():
    net = parse_crn("2X1 -> X1").network
    assert net.reactions[0].source.coeffs == (2,)


def test_comments_and_blanks():
    net = parse_crn("# header\n\nX1 -> X2  # trailing\n").network
    assert net.r == 1


def test_species_first_appearance_order():
    net = parse_crn("X9 + X2 -> X1\nX1 -> X9\n").network
    assert net.species_names == ["X9", "X2", "X1"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("X1 => X2", "unexpected character"),
        ("X1 ->", "expected a complex term"),
        ("-> X2", "expected species name"),
        ("0 X1 -> X2", "coefficient must be positive"),
        ("X1 -> X2 X3", "trailing"),
        ("2 -> X1", "expected species name after coefficient"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_crn(text)


def test_parse_error_location():
    try:
        parse_crn("X1 -> X2\nX1 + ? -> X2\n")
    except ParseError as exc:
        assert exc.line == 2 and exc.col == 6
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_normalized(name):
    text = (FIXTURE_DIR / f"{name}.crn").read_text(encoding="utf-8")
    doc = parse_crn(text)
    normalized = format_network(doc.network)
    again = parse_crn(normalized)
    assert again.network.species_names == doc.network.species_names
    assert [
        (r.source.coeffs, r.target.coeffs) for r in again.network.reactions
    ] == [(r.source.coeffs, r.target.coeffs) for r in doc.network.reactions]
    assert format_network(again.network) == normalized


def test_parse_complex(nets):
    net = nets["example21"]
    cpx = parse_complex("2 X2", net)
    assert cpx.coeffs == (0, 2)
    assert format_complex(cpx, net.species_names) == "2 X2"
    with pytest.raises(ParseError, match="unknown species"):
        parse_complex("X7", net)
    # the column of the token that first names a species the network lacks
    with pytest.raises(ParseError, match="column 6: unknown species 'X7'") as exc:
        parse_complex("X1 + X7 + X8", net)
    assert (exc.value.line, exc.value.col) == (1, 6)
