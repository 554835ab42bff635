"""Petri-net view of a network: places are species, transitions are reactions.

The JSON document stores each transition's input and output multiplicity maps
keyed by place name.  Importing an exported document reproduces the network
exactly (species order = place order, reaction order preserved), so the
incidence matrix, complex list, and reaction multiset survive the round trip.
"""

from __future__ import annotations

from typing import Any

from .model import ReactionNetwork, build_network
from .parser import IDENTIFIER

FORMAT_NAME = "petri-net"


class PetriFormatError(ValueError):
    pass


def petri_export(net: ReactionNetwork) -> dict[str, Any]:
    places = net.species_names

    def multiplicities(coeffs: tuple[int, ...]) -> dict[str, int]:
        return {places[i]: c for i, c in enumerate(coeffs) if c != 0}

    transitions = [
        {
            "id": k,
            "input": multiplicities(rxn.source.coeffs),
            "output": multiplicities(rxn.target.coeffs),
        }
        for k, rxn in enumerate(net.reactions)
    ]
    return {"format": FORMAT_NAME, "places": places, "transitions": transitions}


def petri_import(doc: dict[str, Any]) -> ReactionNetwork:
    if not isinstance(doc, dict):
        raise PetriFormatError("document must be a JSON object")
    places = doc.get("places")
    transitions = doc.get("transitions")
    if not isinstance(places, list) or not all(isinstance(p, str) for p in places):
        raise PetriFormatError("'places' must be a list of strings")
    for p in places:
        if not IDENTIFIER.fullmatch(p):
            raise PetriFormatError(f"place name {p!r} is not a species name of the text format")
    if not isinstance(transitions, list):
        raise PetriFormatError("'transitions' must be a list")
    index = {p: i for i, p in enumerate(places)}
    if len(index) != len(places):
        raise PetriFormatError("duplicate place name")

    def vector(mapping: Any, what: str) -> tuple[int, ...]:
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise PetriFormatError(f"{what} must be an object of place multiplicities")
        coeffs = [0] * len(places)
        for name, mult in mapping.items():
            if name not in index:
                raise PetriFormatError(f"{what} names unknown place {name!r}")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
                raise PetriFormatError(
                    f"{what} multiplicity for {name!r} must be a nonnegative integer"
                )
            coeffs[index[name]] = mult
        return tuple(coeffs)

    reactions = []
    for t, transition in enumerate(transitions):
        if not isinstance(transition, dict):
            raise PetriFormatError(f"transition {t} must be an object")
        src = vector(transition.get("input"), f"transition {t} input")
        tgt = vector(transition.get("output"), f"transition {t} output")
        reactions.append((src, tgt))
    return build_network(places, reactions)
