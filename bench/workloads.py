"""Inputs, operations and correctness checks of the three benchmark workloads.

Every generated network comes from a fixed family seed, so that its verdict can
be pinned in `reference.json`.  The workload seed then relabels the species of
every generated and oracle network: the program sees other matrices, other
species orders and other report bytes on every seed, while the verdicts (up
to the relabelling) and the search work stay the same (simplex pivots per
pass agree within 1 % between seeds).  Networks drawn afresh per seed would
need a reference per seed, and their work varies widely: the widened search
decides between 1 and 18 forests per network.

Nothing here imports the package at module level; `Inputs` receives the
imported modules, so the benchmark can time and repeat the import itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

FAMILY_SEED = 2017

FIXTURES = (
    "intro",
    "example21",
    "example22",
    "example23",
    "envz",
    "example000",
    "example001",
    "example999",
    "example100",
    "example101",
)

# The paper's hand-written answers under the default search: the verdict kind
# and, for guaranteed extinction, the transient complexes.  envz's transient
# set is every complex but X4.
ENVZ_ABSORBING = "X4"
FIXTURE_ANSWERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "intro": ("guaranteed-extinction", ("2 X1", "X1 + X2")),
    "example21": ("guaranteed-extinction", ("2 X2", "X1 + X2", "X2")),
    "example22": ("not-applicable", ()),
    "example23": ("guaranteed-extinction", ("X1 + X2",)),
    "envz": ("guaranteed-extinction", ()),
    "example000": ("inconclusive", ()),
    "example001": ("inconclusive", ()),
    "example999": ("guaranteed-extinction", ("2 X1", "X1 + X2")),
    "example100": ("inconclusive", ()),
    "example101": ("inconclusive", ()),
}

# certify: (species, reactions, networks) per grid point.
CERTIFY_GRID = ((4, 8, 8), (6, 12, 1), (8, 16, 1))
# search: the widened search with fixed caps; work per network is bounded by
# count (at most dom_cap * (1 + absorbing_cap) candidates, forest_cap forests each).
SEARCH_GRID = ((3, 5, 6), (3, 6, 6))
SEARCH_CAPS = {"dom_cap": 4, "absorbing_cap": 2, "forest_cap": 3}
# oracle: (fixture, query, target complexes, budget); None targets envz's
# certified transient set, every complex but ENVZ_ABSORBING.
ORACLE_QUERIES = (
    ("envz", "extinction", None, 3),
    ("example100", "extinction", ("X3 + X4", "X1 + X4"), 10),
    ("example101", "witness", ("X1", "X2 + X4"), 6),
)


def canon(name: str) -> tuple[tuple[str, int], ...]:
    """A complex name as sorted (species, coefficient) pairs, independent of term order."""
    if name == "0":
        return ()
    terms = []
    for term in name.split(" + "):
        parts = term.split(" ")
        terms.append((parts[-1], int(parts[0]) if len(parts) == 2 else 1))
    return tuple(sorted(terms))


def complex_text(coeffs, names) -> str:
    """A complex in the text format, its terms in species-number order."""
    terms = sorted((int(n[1:]), n, c) for c, n in zip(coeffs, names) if c)
    return " + ".join(n if c == 1 else f"{c} {n}" for _, n, c in terms) or "0"


def network_text(reactions, names) -> str:
    return "".join(
        f"{complex_text(s, names)} -> {complex_text(t, names)}\n" for s, t in reactions
    )


def _coeffs(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(m))


def certify_network(rng: random.Random, m: int, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every reaction strictly lowers a random positive species weighting.

    So the network is subconservative by construction, and no nonnegative
    T-invariant exists: the first forest the engine tries is unbalanced.
    """
    while True:
        w = [rng.randint(1, 3) for _ in range(m)]
        reactions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        while len(reactions) < r:
            src = _coeffs(rng, m)
            ws = sum(a * b for a, b in zip(w, src))
            if ws == 0:
                continue
            tgt = _coeffs(rng, m)
            if sum(a * b for a, b in zip(w, tgt)) < ws and (src, tgt) not in reactions:
                reactions.append((src, tgt))
        if all(any(s[i] or t[i] for s, t in reactions) for i in range(m)):
            return reactions


_CYCLE_SPLITS = {5: ((2, 3), (3, 2)), 6: ((2, 2, 2), (3, 3))}
# Balance-LP size grows with the domination relations, and one lexmin costs
# about the cube of it; this cap keeps one search network under a few seconds.
SEARCH_MAX_DOMINATION = 8


def domination_pairs(reactions) -> int:
    """Ordered pairs of distinct complexes where the first dominates the second."""
    cpx = {c for pair in reactions for c in pair}
    return sum(
        1 for a in cpx for b in cpx if a != b and all(x >= y for x, y in zip(a, b))
    )


def search_network(rng: random.Random, m: int, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Conversion cycles X_a -> X_b run in random molecular contexts.

    Each cycle's reactions sum to zero, so every reaction lies in the support
    of a T-invariant, as in example100 and example101.  Networks with more
    than SEARCH_MAX_DOMINATION domination relations are redrawn.
    """
    while True:
        reactions = []
        for k in rng.choice(_CYCLE_SPLITS[r]):
            cycle = rng.sample(range(m), k)
            for i in range(k):
                ctx = [1 if rng.random() < 0.3 else 0 for _ in range(m)]
                src, tgt = list(ctx), list(ctx)
                src[cycle[i]] += 1
                tgt[cycle[(i + 1) % k]] += 1
                reactions.append((tuple(src), tuple(tgt)))
        if (
            len(set(reactions)) == r
            and all(any(s[i] or t[i] for s, t in reactions) for i in range(m))
            and domination_pairs(reactions) <= SEARCH_MAX_DOMINATION
        ):
            return reactions


def family(workload: str) -> list[tuple[str, int, list]]:
    """The generated (key, species count, reactions) of a workload, from FAMILY_SEED."""
    rng = random.Random(f"{workload}:{FAMILY_SEED}")
    grid, make = (
        (CERTIFY_GRID, certify_network) if workload == "certify" else (SEARCH_GRID, search_network)
    )
    out = []
    for m, r, count in grid:
        for i in range(count):
            out.append((f"gen-{m}x{r}-{i}", m, make(rng, m, r)))
    return out


def relabel(rng: random.Random, m: int) -> list[str]:
    """Seeded species names: species i becomes X{perm[i] + 1}."""
    perm = list(range(m))
    rng.shuffle(perm)
    return [f"X{p + 1}" for p in perm]


def rename(name: str, names: list[str]) -> tuple[tuple[str, int], ...]:
    """Map a complex name over X1..Xm to the relabelled species names, canonically."""
    return tuple(sorted((names[int(s[1:]) - 1], c) for s, c in canon(name)))


@dataclass
class Item:
    """One unit of work: an analyze -> report -> verify op, or one oracle query."""

    key: str
    text: str
    net: Any
    names: Optional[list[str]]  # new name of base species Xk is names[k - 1]
    expected: Any
    query: Optional[tuple] = None  # oracle: (fixture, kind, targets, budget)
    targets: frozenset = frozenset()


@dataclass
class Inputs:
    workload: str
    items: list[Item]
    mods: dict
    cfg: Any
    digest: str
    parse_s: float


@dataclass
class OpResult:
    seconds: dict  # stage name -> wall time
    summary: dict  # what the op answered, compared between traced and untraced passes
    verified: Optional[bool] = None
    answer: Any = None
    units: int = 1  # networks, or oracle roots decided
    reference: float = 0.0  # reference-loop wall time around the op


def fixture_text(fixture_dir: Path, name: str) -> str:
    return (fixture_dir / f"{name}.crn").read_text(encoding="utf-8")


def network_texts(workload: str, seed: int, fixture_dir: Path) -> list[tuple[str, str, Optional[list[str]]]]:
    """The (key, text, relabelling) of each certify/search input: fixtures as written, then the family."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[tuple[str, str, Optional[list[str]]]] = [
        (name, fixture_text(fixture_dir, name), None) for name in FIXTURES
    ]
    for key, m, reactions in family(workload):
        names = relabel(rng, m)
        out.append((key, network_text(reactions, names), names))
    return out


def search_config(engine, workload: str):
    if workload == "search":
        return engine.SearchConfig(
            dom_strategy="all-subsets", absorbing_strategy="enumerate", **SEARCH_CAPS
        )
    return engine.SearchConfig()


def fixture_answer(key: str, net, model) -> dict:
    """FIXTURE_ANSWERS[key] in the form of a reference entry."""
    kind, transient = FIXTURE_ANSWERS[key]
    if key == "envz":
        names = (model.format_complex(c, net.species_names) for c in net.complexes)
        transient = tuple(n for n in names if n != ENVZ_ABSORBING)
    return {"kind": kind, "transient": sorted(transient)}


def build_inputs(workload: str, seed: int, mods: dict, fixture_dir: Path, clock) -> Inputs:
    """Generate, render and parse every input of a workload, with its expected answer."""
    parse = mods["parser"].parse_crn
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    items: list[Item] = []
    parse_s = 0.0
    if workload == "oracle":
        rng = random.Random(f"oracle:{seed}")
        for query in ORACLE_QUERIES:
            name = query[0]
            t0 = clock()
            base = parse(fixture_text(fixture_dir, name)).network
            parse_s += clock() - t0
            names = relabel(rng, base.m)
            reactions = [(r.source.coeffs, r.target.coeffs) for r in base.reactions]
            text = network_text(reactions, [names[int(s[1:]) - 1] for s in base.species_names])
            t0 = clock()
            net = parse(text).network
            parse_s += clock() - t0
            index = {
                canon(mods["model"].format_complex(c, net.species_names)): i
                for i, c in enumerate(net.complexes)
            }
            if query[2] is None:
                targets = frozenset(range(net.n)) - {index[rename(ENVZ_ABSORBING, names)]}
            else:
                targets = frozenset(index[rename(c, names)] for c in query[2])
            items.append(Item(name, text, net, names, reference["oracle"][name], query, targets))
        cfg = None
    else:
        for key, text, names in network_texts(workload, seed, fixture_dir):
            t0 = clock()
            net = parse(text).network
            parse_s += clock() - t0
            if workload == "certify" and names is None:
                expected = fixture_answer(key, net, mods["model"])
            else:
                expected = reference[workload][key]
            items.append(Item(key, text, net, names, expected))
        cfg = search_config(mods["engine"], workload)
    digest = hashlib.sha256(
        "".join(f"{i.key}\n{i.text}" for i in items).encode("utf-8")
    ).hexdigest()
    return Inputs(workload, items, mods, cfg, digest, parse_s)


def verdict_summary(net, verdict, model) -> dict:
    """Kind, absorbing set and transient set of a verdict, by complex name."""
    kinds = {
        "GuaranteedExtinction": "guaranteed-extinction",
        "Inconclusive": "inconclusive",
        "NotApplicable": "not-applicable",
    }
    out: dict[str, Any] = {"kind": kinds[type(verdict).__name__]}
    if out["kind"] == "guaranteed-extinction":
        names = net.species_names
        out["absorbing"] = sorted(
            model.format_complex(net.complexes[i], names) for i in verdict.certificate.absorbing
        )
        out["transient"] = sorted(
            model.format_complex(net.complexes[i], names) for i in verdict.transient
        )
    if hasattr(verdict, "stats"):
        s = verdict.stats
        out["stats"] = [s.candidates, s.forests, s.balanced, s.truncated, s.vacuous_skipped]
    return out


def network_op(inputs: Inputs, item: Item, clock) -> OpResult:
    """analyze -> JSON report -> verify_report for one network, each stage timed.

    The third party's re-check decodes the emitted bytes, as a reader of the
    report file would.
    """
    engine, report = inputs.mods["engine"], inputs.mods["report"]
    t0 = clock()
    verdict = engine.analyze(item.net, inputs.cfg)
    t1 = clock()
    data = report.emit_report(item.net, verdict, inputs.cfg)
    t2 = clock()
    verified = None
    if isinstance(verdict, engine.GuaranteedExtinction):
        verified = report.verify_report(item.net, json.loads(data))
    t3 = clock()
    summary = verdict_summary(item.net, verdict, inputs.mods["model"])
    summary["report_sha256"] = hashlib.sha256(data).hexdigest()
    return OpResult({"analyze": t1 - t0, "emit": t2 - t1, "verify": t3 - t2}, summary, verified)


def _same_names(got: list[str], want, names: Optional[list[str]]) -> bool:
    expected = sorted(rename(w, names) if names else canon(w) for w in want)
    return sorted(canon(g) for g in got) == expected


def check_network(inputs: Inputs, item: Item, result: OpResult) -> list[str]:
    """Failures of one network op; empty when the op is correct."""
    got, want = result.summary, item.expected
    if got["kind"] != want["kind"]:
        return [f"{item.key}: verdict {got['kind']}, expected {want['kind']}"]
    errors = []
    if got["kind"] == "guaranteed-extinction":
        for part in ("transient", "absorbing"):
            if part in want and not _same_names(got[part], want[part], item.names):
                errors.append(f"{item.key}: {part} set {got[part]} differs")
        if result.verified is not True:
            errors.append(f"{item.key}: JSON report fails verify_report")
    return errors


def roots_up_to(m: int, budget: int) -> int:
    """Initial states with coordinate sum at most `budget` over m species."""
    return comb(m + budget, m)


def oracle_op(inputs: Inputs, item: Item, clock) -> OpResult:
    """One oracle query: an extinction sweep or a recurrent-witness search."""
    oracle = inputs.mods["oracle"]
    _, kind, _, budget = item.query
    t0 = clock()
    if kind == "extinction":
        answer = oracle.guaranteed_extinction_on(item.net, item.targets, budget=budget)
    else:
        answer = oracle.find_recurrent_witness(item.net, item.targets, budget=budget)
    t1 = clock()
    units = roots_up_to(item.net.m, budget)
    if kind == "witness" and answer is not None:
        # the roots tried up to and including the witness, in the oracle's order
        root = tuple(answer[0])
        units = roots_up_to(item.net.m, sum(root) - 1)
        for state in oracle.states_with_total(item.net.m, sum(root)):
            units += 1
            if tuple(state) == root:
                break
    summary = {"answer": answer}
    return OpResult({"query": t1 - t0}, summary, answer=answer, units=units)


def check_oracle(inputs: Inputs, item: Item, result: OpResult) -> list[str]:
    """An extinction answer must equal its reference; a witness must be genuinely recurrent."""
    _, kind, _, budget = item.query
    answer = result.answer
    if kind == "extinction":
        if answer != item.expected:
            return [f"{item.key}: oracle says {answer}, reference {item.expected}"]
        return []
    if (answer is not None) != item.expected:
        return [f"{item.key}: witness {answer}, reference says one exists: {item.expected}"]
    if answer is None:
        return []
    oracle = inputs.mods["oracle"]
    root, ci = answer
    if ci not in item.targets or sum(root) > budget:
        return [f"{item.key}: witness {answer} is outside the query"]
    graph = oracle.explore(item.net, root)
    if not oracle.complex_recurrent(item.net, graph, item.net.complexes[ci]):
        return [f"{item.key}: complex {ci} is not recurrent from {root}"]
    return []
