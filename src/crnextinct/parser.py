"""Plain-text reaction network format.

Grammar (one reaction per line, '#' starts a comment, blank lines ignored):

    reaction := complex arrow complex
    arrow    := "->" | "<->"
    complex  := "0" | term ("+" term)*
    term     := [coefficient] identifier

A "<->" line expands to two reactions, forward then reverse, in textual
order.  Species are indexed by first appearance.  An explicit coefficient
must be a positive integer; a bare identifier means coefficient 1.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import Complex, ReactionNetwork, build_network, format_complex, parse_int


class ParseError(ValueError):
    """Syntax or semantic error in the text format, with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a species name
_TOKEN = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<ident>{IDENTIFIER.pattern})|(?P<arrow><->|->)|(?P<plus>\+)|(?P<bad>\S))"
)


class CrnDocument(NamedTuple):
    """A parsed network."""

    network: ReactionNetwork


def _tokenize(line_text: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line_text):
        m = _TOKEN.match(line_text, pos)
        if m is None:
            break
        col = m.start(m.lastgroup) + 1
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", lineno, col)
        tokens.append((kind, value, col))
        pos = m.end()
    return tokens


class _ComplexReader:
    """Parses complex expressions, assigning species indices by first appearance."""

    def __init__(self) -> None:
        self.species: list[str] = []
        self.index: dict[str, int] = {}

    def _species_index(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.species)
            self.species.append(name)
        return self.index[name]

    def read(self, tokens: list[tuple[str, str, int]], at: int, lineno: int) -> tuple[dict[int, int], int]:
        """Read one complex starting at token `at`; returns (coeff map, next index)."""
        coeffs: dict[int, int] = {}
        if at < len(tokens) and tokens[at][0] == "int" and tokens[at][1] == "0":
            # the zero complex, unless a species name follows ("0 X1" is invalid anyway)
            if at + 1 >= len(tokens) or tokens[at + 1][0] not in ("ident",):
                return coeffs, at + 1
        while True:
            if at >= len(tokens):
                raise ParseError("expected a complex term", lineno, tokens[-1][2] if tokens else 1)
            kind, value, col = tokens[at]
            coeff = 1
            if kind == "int":
                coeff = parse_int(value)
                if coeff <= 0:
                    raise ParseError(f"coefficient must be positive, got {value}", lineno, col)
                at += 1
                if at >= len(tokens) or tokens[at][0] != "ident":
                    raise ParseError("expected species name after coefficient", lineno, col)
                kind, value, col = tokens[at]
            if kind != "ident":
                raise ParseError(f"expected species name, got {value!r}", lineno, col)
            idx = self._species_index(value)
            coeffs[idx] = coeffs.get(idx, 0) + coeff
            at += 1
            if at < len(tokens) and tokens[at][0] == "plus":
                at += 1
                continue
            return coeffs, at


def parse_crn(text: str) -> CrnDocument:
    """Parse the text format into a CrnDocument.

    Raises ParseError (with line/column) on malformed input.
    """
    reader = _ComplexReader()
    raw: list[tuple[dict[int, int], dict[int, int], bool]] = []
    for lineno, line_text in enumerate(text.splitlines(), start=1):
        body = line_text.split("#", 1)[0]
        if not body.strip():
            continue
        tokens = _tokenize(body, lineno)
        src, at = reader.read(tokens, 0, lineno)
        if at >= len(tokens) or tokens[at][0] != "arrow":
            col = tokens[at][2] if at < len(tokens) else (tokens[-1][2] if tokens else 1)
            raise ParseError("expected '->' or '<->'", lineno, col)
        reversible = tokens[at][1] == "<->"
        at += 1
        tgt, at = reader.read(tokens, at, lineno)
        if at != len(tokens):
            raise ParseError(f"unexpected trailing input {tokens[at][1]!r}", lineno, tokens[at][2])
        raw.append((src, tgt, reversible))

    m = len(reader.species)

    def vec(coeffs: dict[int, int]) -> tuple[int, ...]:
        return tuple(coeffs.get(i, 0) for i in range(m))

    reactions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for src, tgt, reversible in raw:
        reactions.append((vec(src), vec(tgt)))
        if reversible:
            reactions.append((vec(tgt), vec(src)))
    network = build_network(reader.species, reactions)
    return CrnDocument(network=network)


def parse_complex(text: str, net: ReactionNetwork) -> Complex:
    """Parse a single complex expression against an existing network's species.

    Unknown species names are rejected rather than added.
    """
    tokens = _tokenize(text, 1)
    reader = _ComplexReader()
    reader.species = list(net.species_names)
    reader.index = {name: i for i, name in enumerate(reader.species)}
    coeffs, at = reader.read(tokens, 0, 1)
    if at != len(tokens):
        raise ParseError(f"unexpected trailing input {tokens[at][1]!r}", 1, tokens[at][2])
    for kind, name, col in tokens:
        if kind == "ident" and reader.index[name] >= net.m:  # read as a new species
            raise ParseError(f"unknown species {name!r}", 1, col)
    return Complex(tuple(coeffs.get(i, 0) for i in range(net.m)))


def format_network(net: ReactionNetwork) -> str:
    """Render a network in normalized text form: one '->' reaction per line."""
    names = net.species_names
    lines = [
        f"{format_complex(r.source, names)} -> {format_complex(r.target, names)}"
        for r in net.reactions
    ]
    return "\n".join(lines) + ("\n" if lines else "")
