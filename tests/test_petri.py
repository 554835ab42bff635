import pytest

from crnextinct.parser import format_network
from crnextinct.petri import PetriFormatError, petri_export, petri_import


def test_export_example21(nets):
    doc = petri_export(nets["example21"])
    assert doc["places"] == ["X1", "X2"]
    assert doc["transitions"][0] == {
        "id": 0,
        "input": {"X1": 1, "X2": 1},
        "output": {"X2": 2},
    }
    # incidence matrix rows X1: (-1, 1, 1), X2: (1, -1, -1)
    net = petri_import(doc)
    assert net.stoich == ((-1, 1, 1), (1, -1, -1))


def test_round_trip_all_fixtures(nets):
    for name, net in nets.items():
        again = petri_import(petri_export(net))
        assert again.species_names == net.species_names, name
        assert again.stoich == net.stoich, name
        assert [c.coeffs for c in again.complexes] == [
            c.coeffs for c in net.complexes
        ], name
        assert sorted(
            (r.source.coeffs, r.target.coeffs) for r in again.reactions
        ) == sorted((r.source.coeffs, r.target.coeffs) for r in net.reactions)
        assert format_network(again) == format_network(net)


def test_transition_without_outputs():
    net = petri_import(
        {"places": ["A"], "transitions": [{"input": {"A": 1}}]}
    )
    assert net.reactions[0].target.coeffs == (0,)


def test_malformed_documents():
    with pytest.raises(PetriFormatError):
        petri_import([])
    with pytest.raises(PetriFormatError):
        petri_import({"places": [1], "transitions": []})
    with pytest.raises(PetriFormatError):
        petri_import({"places": ["A", "A"], "transitions": []})
    # the text format could not read these back as species names
    for name in ("a b", "->", "0", "", "2A", "A+B", "A\n", "É"):
        with pytest.raises(PetriFormatError, match="not a species name"):
            petri_import({"places": [name], "transitions": [{"input": {name: 1}}]})
    with pytest.raises(PetriFormatError, match="unknown place"):
        petri_import({"places": ["A"], "transitions": [{"input": {"B": 1}}]})
    with pytest.raises(PetriFormatError, match="nonnegative integer"):
        petri_import({"places": ["A"], "transitions": [{"input": {"A": -1}}]})
    with pytest.raises(PetriFormatError, match="nonnegative integer"):
        petri_import({"places": ["A"], "transitions": [{"input": {"A": True}}]})
    with pytest.raises(PetriFormatError, match="'transitions' must be a list"):
        petri_import({"places": ["A"], "transitions": {"input": {"A": 1}}})
    with pytest.raises(PetriFormatError, match="transition 0 must be an object"):
        petri_import({"places": ["A"], "transitions": [["A"]]})
    with pytest.raises(PetriFormatError, match="output must be an object of place multiplicities"):
        petri_import({"places": ["A"], "transitions": [{"output": ["A"]}]})
