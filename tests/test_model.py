from fractions import Fraction
from functools import cached_property

import pytest

from crnextinct.graphs import ReactionGraph
from crnextinct.model import (
    Complex,
    ReactionNetwork,
    build_network,
    fire,
    format_complex,
    is_charged,
)

from conftest import FIXTURE_NAMES, load_fixture


def test_build_network_complex_order(nets):
    net = nets["example21"]
    got = [format_complex(c, net.species_names) for c in net.complexes]
    assert got == ["X1 + X2", "2 X2", "X2", "X1"]
    assert net.n == 4 and net.m == 2 and net.r == 3


def test_build_network_empty():
    net = build_network(["A", "B"], [])
    assert net.n == 0 and net.r == 0


def test_build_network_self_loop():
    net = build_network(["X1"], [((1,), (1,))])
    assert net.n == 1
    rxn = net.reactions[0]
    assert rxn.source == rxn.target


def test_build_network_errors():
    with pytest.raises(ValueError, match="duplicate species"):
        build_network(["A", "A"], [])
    with pytest.raises(ValueError, match="length"):
        build_network(["A", "B"], [((1,), (0, 1))])
    with pytest.raises(ValueError, match="negative"):
        build_network(["A"], [((-1,), (0,))])


def test_coefficients_must_be_ints():
    # only ints reach the compiled successor kernel: nothing is coerced
    for bad in [True, False, 1.5, 2.0, "1", Fraction(1)]:
        with pytest.raises(ValueError, match="not an int"):
            Complex((0, bad))
        with pytest.raises(ValueError, match="not an int"):
            build_network(["A", "B"], [((bad, 0), (0, 1))])
    with pytest.raises(ValueError, match="not an int"):
        build_network(["A", "B"], [((1.5, 0), (0, True))])
    assert Complex((0, 2**70)).coeffs == (0, 2**70)


def test_complex_indexing_deterministic():
    reactions = [((1, 1), (0, 2)), ((0, 2), (1, 1)), ((0, 1), (1, 0))]
    a = build_network(["X1", "X2"], reactions)
    b = build_network(["X1", "X2"], reactions)
    assert [c.coeffs for c in a.complexes] == [c.coeffs for c in b.complexes]


def test_stoich_matrix_fixtures(nets):
    # Example 2.1 per the definition (the reversible pair plus X2 -> X1);
    # this matches the balance-system display and the incidence matrix later on.
    assert nets["example21"].stoich == ((-1, 1, 1), (1, -1, -1))
    assert nets["example22"].stoich == ((-1, 2), (2, -1))
    assert nets["example23"].stoich == ((0, -1, 1), (-1, 1, -1))
    net = nets["example21"]
    assert net.stoich is net.stoich  # a table built once per network


def test_is_charged():
    y = Complex((1, 1))
    assert not is_charged(y, (0, 5))
    assert is_charged(Complex((0, 0)), (0, 0))
    assert is_charged(Complex((0, 2)), (0, 2))
    with pytest.raises(ValueError):
        is_charged(y, (1, 1, 1))


def test_fire(nets):
    intro = nets["intro"]
    assert fire(intro, (2, 0), 0) == (1, 1)
    assert fire(intro, (0, 2), 2) is None
    net21 = nets["example21"]
    assert fire(net21, (0, 1), 2) == (1, 0)
    with pytest.raises(IndexError):
        fire(intro, (1, 1), 7)


def test_fire_iff_charged(nets):
    net = nets["example23"]
    for state in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
        for k, rxn in enumerate(net.reactions):
            result = fire(net, state, k)
            assert (result is not None) == is_charged(rxn.source, state)
            if result is not None:
                assert all(v >= 0 for v in result)
                assert result == tuple(
                    x + d for x, d in zip(state, rxn.vector)
                )


def test_format_complex():
    assert format_complex(Complex((0, 0)), ["A", "B"]) == "0"
    assert format_complex(Complex((1, 2)), ["A", "B"]) == "A + 2 B"


def _tables(cls) -> list[str]:
    return [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_table_is_hashable(name):
    # a table is built once and shared by every analysis of the network, so
    # it must be a value (a tuple, a frozen dataclass or a function), never
    # a mutable list that could carry state from one analysis to the next
    assert "domination" in _tables(ReactionNetwork) and "condensation" in _tables(ReactionGraph)
    net = load_fixture(name)
    for owner in (net, net.graph):
        for table in _tables(type(owner)):
            hash(getattr(owner, table))
    # and so is every attribute set when the network is built
    for table in ("species", "reactions", "complexes"):
        hash(getattr(net, table))
    assert set(vars(net)) - set(_tables(ReactionNetwork)) == {
        "species", "reactions", "complexes", "_complex_index"
    }
