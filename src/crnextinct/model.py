"""Core data model: complexes, reactions, networks, and discrete states.

A network is a list of species names together with a list of reactions
between complexes (nonnegative integer combinations of species).
The complex list is derived from the reactions in first-appearance order
(source before target), which fixes a deterministic complex indexing used
everywhere else in the package.

Numbers meet text through rational_text and parse_int, at any number of
digits.  str() and int() refuse an int of more decimal digits than the
interpreter's limit (4,300 by default) with ValueError; past it, these two
go through Decimal, whose conversions are exact and have no such limit, and
the limit itself is left as it is.  Decimal's conversions are quadratic in
the digits: parse_int took 0.10, 0.39 and 1.52 s on 50,000, 100,000 and
200,000 digits (Python 3.11.7), where int() with the limit lifted took
0.01, 0.06 and 0.25 s.  No network or report at hand comes near that size.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from operator import add, ge
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graphs import GraphEdge, ReactionGraph


@dataclass(frozen=True)
class Complex:
    """A nonnegative integer combination of species, stored as a coefficient vector."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if type(c) is not int:  # a bool, float or Fraction is not one
                raise ValueError(f"coefficient {c!r} in {self.coeffs} is not an int")
            if c < 0:
                raise ValueError(f"negative stoichiometric coefficient in {self.coeffs}")


class Reaction(NamedTuple):
    source: Complex
    target: Complex

    @property
    def vector(self) -> tuple[int, ...]:
        """target - source, computed on each read; a network reads it for `stoich` and `firing`."""
        return tuple(t - s for s, t in zip(self.source.coeffs, self.target.coeffs))


State = tuple  # nonnegative integer counts, one per species
Need = tuple  # the nonzero (species, count) pairs of a complex


class ReactionNetwork:
    """A reaction network with derived, deterministically indexed complex list.

    Species and reactions are indexed by position.  Every public attribute
    is a value (a tuple, or a table built once), shared by every analysis of
    the network.

    Attributes:
        species: tuple of species names.
        reactions: tuple of Reaction.
        complexes: tuple of the deduplicated complexes in first-appearance
            order (per reaction: source then target, reactions in input order).
        needs, firing: the firing table, built on first use.
        next_states: the successor kernel, compiled once per network from
            `firing` on first use (O(m * r), about 1 ms for EnvZ); the oracle
            expands every state through it, and `fire` stays the
            per-reaction reference it is tested against.
        complex_names: each complex in the text format, built on first use.
        stoich, graph: the stoichiometric matrix and the reaction graph,
            built on first use; every caller reads them here, and each
            reaction's endpoint complexes from graph.edges.
        domination: the domination relation, built on first use; the
            expansion and the admissibility check both read it here.
    """

    def __init__(self, species_names: Sequence[str], reactions: Sequence[Reaction]):
        self.species = tuple(species_names)
        self.reactions = tuple(reactions)
        first: dict[tuple[int, ...], Complex] = {}
        for rxn in self.reactions:
            first.setdefault(rxn.source.coeffs, rxn.source)
            first.setdefault(rxn.target.coeffs, rxn.target)
        self.complexes = tuple(first.values())
        self._complex_index = {coeffs: i for i, coeffs in enumerate(first)}

    @property
    def m(self) -> int:
        return len(self.species)

    @property
    def r(self) -> int:
        return len(self.reactions)

    @property
    def n(self) -> int:
        return len(self.complexes)

    @cached_property
    def needs(self) -> tuple[Need, ...]:
        """Per complex, its nonzero (species, count) pairs: what a state must hold to charge it."""
        return tuple(
            tuple((i, c) for i, c in enumerate(cpx.coeffs) if c) for cpx in self.complexes
        )

    @cached_property
    def firing(self) -> tuple[tuple[Need, tuple[int, ...]], ...]:
        """Per reaction, the need of its source complex and its reaction vector.

        The one firing rule: a state fires reaction k iff it holds every count
        of the need, and the next state adds the vector.  Built on first use,
        so parsing does not pay for it.
        """
        needs = self.needs
        return tuple(
            (needs[e.src], rxn.vector) for e, rxn in zip(self.graph.edges, self.reactions)
        )

    @cached_property
    def next_states(self) -> Callable[[State], list[State]]:
        """The successors of a state, one per reaction it fires, in reaction order.

        One function compiled with exec from `firing` on first use, as
        dataclasses and namedtuple compile their methods: it unpacks the state
        into locals x0, x1, ..., tests each need on them and appends each
        successor as a tuple literal (a zero-vector reaction gives the state
        again).  Only int indices and counts enter the source, never a
        species name; counts are written in hex, which has no digit limit.
        Compiling costs O(m * r): about 1 ms for EnvZ (9 x 14), 50 ms for
        chain 1,500.  Whole tuple literals (not a copied list with the
        changed entries set) are the fastest per state, and the oracle only
        affords networks whose compile is small.  `fire` is the reference.
        """
        xs = [f"x{i}" for i in range(self.m)]
        lines = [
            "def next_states(state):",
            f"    ({''.join(x + ', ' for x in xs)}) = state",
            "    out = []",
            "    append = out.append",
        ]
        for need, delta in self.firing:
            test = " and ".join(f"x{i} >= {c:#x}" for i, c in need) or "True"
            succ = "".join(
                f"{x} + {d:#x}, " if d > 0 else f"{x} - {-d:#x}, " if d else f"{x}, "
                for x, d in zip(xs, delta)
            )
            lines.append(f"    if {test}:\n        append(({succ}))")
        lines.append("    return out")
        namespace: dict = {}
        exec("\n".join(lines), {"__builtins__": {}}, namespace)
        return namespace["next_states"]

    @cached_property
    def complex_names(self) -> tuple[str, ...]:
        """Per complex, its text form (format_complex), formatted once per network."""
        return tuple(format_complex(cpx, self.species) for cpx in self.complexes)

    @cached_property
    def stoich(self) -> tuple[tuple[int, ...], ...]:
        """The m-by-r matrix whose column k is the reaction vector of reaction k."""
        cols = [rxn.vector for rxn in self.reactions]
        return tuple(tuple(col[i] for col in cols) for i in range(self.m))

    @cached_property
    def graph(self) -> ReactionGraph:
        """The reaction graph: the reactions as edges, in index order.

        Built once per network, so it is condensed at most once.
        """
        index = self._complex_index
        edges = tuple(
            GraphEdge(index[rxn.source.coeffs], index[rxn.target.coeffs]) for rxn in self.reactions
        )
        return ReactionGraph(self.n, edges)

    @cached_property
    def domination(self) -> tuple[GraphEdge, ...]:
        """The domination relation: each (i, j) where complex i dominates complex j.

        Complex i dominates j when every coefficient of i is at least j's and
        the two differ.  The complexes are deduplicated, so two indices name
        two different complexes and the dominating one has the larger
        molecule count: each complex is compared only with those of smaller
        count.  In (source, target) order.
        """
        coeffs = [c.coeffs for c in self.complexes]
        total = list(map(sum, coeffs))
        by_total = sorted(range(self.n), key=total.__getitem__)
        totals = [total[j] for j in by_total]
        return tuple(sorted(
            GraphEdge(i, j)
            for i, big in enumerate(coeffs)
            for j in by_total[: bisect_left(totals, total[i])]
            if all(map(ge, big, coeffs[j]))
        ))

    @property
    def species_names(self) -> list[str]:
        return list(self.species)

    def complex_index(self, cpx: Complex) -> int:
        """The index of a complex; KeyError when it does not occur in the network."""
        return self._complex_index[cpx.coeffs]

    def __repr__(self) -> str:
        return f"ReactionNetwork(m={self.m}, r={self.r}, n={self.n})"


def build_network(
    species_names: Sequence[str],
    reactions: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> ReactionNetwork:
    """Build a network from species names and (source, target) coefficient pairs.

    Raises ValueError on duplicate species names, coefficient vectors whose
    length does not match the species count, or negative coefficients.
    Self-loops (source equal to target) are accepted.
    """
    names = list(species_names)
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate species name {name!r}")
        seen.add(name)
    m = len(names)
    built: list[Reaction] = []
    for k, (src, tgt) in enumerate(reactions):
        if len(src) != m or len(tgt) != m:
            raise ValueError(
                f"reaction {k}: coefficient vector length must equal species count {m}"
            )
        built.append(Reaction(Complex(tuple(src)), Complex(tuple(tgt))))
    return ReactionNetwork(names, built)


def is_charged(y: Complex, state: State) -> bool:
    """True when the state has at least the counts the complex requires."""
    if len(y.coeffs) != len(state):
        raise ValueError("complex and state have different lengths")
    return all(x >= c for c, x in zip(y.coeffs, state))


def fire(net: ReactionNetwork, state: State, k: int) -> Optional[State]:
    """Apply reaction k to the state, or return None when the source is not charged.

    Reads the network's firing table (ReactionNetwork.firing).
    """
    if not 0 <= k < net.r:
        raise IndexError(f"reaction index {k} out of range for r={net.r}")
    if len(state) != net.m:
        raise ValueError("complex and state have different lengths")
    need, delta = net.firing[k]
    if any(state[i] < c for i, c in need):
        return None
    return tuple(map(add, state, delta))


def rational_text(x: int | Fraction) -> str:
    """str(x) of an int or Fraction, at any number of digits."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def parse_int(text: str) -> int:
    """int(text), at any number of digits.

    `text` is an integer literal whose form the caller has checked (digits,
    at most a leading minus), as a parser token or json.loads hands it over.
    """
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def format_complex(cpx: Complex, species_names: Sequence[str]) -> str:
    """Render a complex in the text format, e.g. 'X1 + 2 X2' or '0'."""
    terms = []
    for coeff, name in zip(cpx.coeffs, species_names):
        if coeff == 0:
            continue
        terms.append(name if coeff == 1 else f"{rational_text(coeff)} {name}")
    return " + ".join(terms) if terms else "0"
