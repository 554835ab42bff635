"""Malformed JSON input never raises past its reader.

A mutated report makes verify_report answer a bool, and a random Petri
document makes petri_import return a network or raise PetriFormatError.
"""

import copy
import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from crnextinct.engine import SearchConfig, analyze
from crnextinct.model import ReactionNetwork
from crnextinct.petri import PetriFormatError, petri_import
from crnextinct.report import REPORT_VERSION, emit_report, verify_report

from conftest import load_fixture

REPORTED = ["envz", "example21", "intro", "example23", "example999"]
JUNK = [None, True, False, 0.5, -2.0, 2**70, -(2**70), 0, -1, "", "9" * 5000,
        {"num": "1", "den": "0"}, [], {}]


@lru_cache(maxsize=None)
def _report(name: str) -> tuple[ReactionNetwork, str]:
    """A fixture's network and its default-search report, as JSON text."""
    net = load_fixture(name)
    return net, emit_report(net, analyze(net, SearchConfig()), SearchConfig()).decode()


def _slots(doc, path=()):
    """Every (path, container, key) below the document, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield path + (key,), doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@settings(max_examples=150)
@given(name=st.sampled_from(REPORTED), data=st.data())
def test_a_mutated_report_is_refused_or_verified_never_raised(name, data):
    net, text = _report(name)
    doc = json.loads(text)
    assert doc["version"] == REPORT_VERSION
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(_slots(doc))
        _, container, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        action = data.draw(st.sampled_from(["junk", "delete", "duplicate"]), label="action")
        if action == "junk":
            container[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK), label="value"))
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:  # a dict: its key also under a second name
            container[f"{key}~"] = copy.deepcopy(container[key])
    assert type(verify_report(net, doc)) is bool


NAMES = st.sampled_from(["A", "B", "X1", "x_2", "", "A B", "0", "->", "É"])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**70, 0.5, "9" * 5000]),
    NAMES,
)
JSONISH = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)
MULTIPLICITIES = st.none() | JSONISH | st.dictionaries(NAMES, LEAVES, max_size=3)
TRANSITIONS = st.lists(
    st.fixed_dictionaries({}, optional={"id": JSONISH, "input": MULTIPLICITIES,
                                        "output": MULTIPLICITIES}) | JSONISH,
    max_size=4,
)
PETRI_DOCS = st.one_of(
    JSONISH,
    st.fixed_dictionaries({}, optional={
        "format": st.just("petri-net") | JSONISH,
        "places": st.lists(NAMES, max_size=4) | JSONISH,
        "transitions": TRANSITIONS | JSONISH,
    }),
)


@settings(max_examples=300)
@given(PETRI_DOCS)
def test_a_random_petri_document_is_read_or_refused(doc):
    try:
        net = petri_import(doc)
    except PetriFormatError:
        return
    assert isinstance(net, ReactionNetwork)
