"""Command-line interface.

Subcommands: analyze, oracle, structure, invariants, forests, petri.
Exit codes: 0 completed (any verdict), 1 stdout closed before the output was
written, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, TypeVar

from .domination import maximal_admissible
from .engine import SearchConfig, analyze
from .exactlp import Feasible
from .forests import (
    ANY_EDGE,
    TRUE_REACTIONS,
    Balanced,
    BalanceStore,
    decide_forests,
    edge_label,
    enumerate_forests,
)
from .graphs import (
    enumerate_absorbing_sets,
    linkage_classes,
    strong_linkage_classes,
    terminal_slcs,
)
from .invariants import is_conservative, is_subconservative
from .model import ReactionNetwork, parse_int, rational_text
from .oracle import (
    StateCapExceeded,
    explore,
    extinction_on,
    guaranteed_extinction_on,
    recurrent_complexes,
    recurrent_states,
)
from .parser import INTEGER, ParseError, parse_complex, parse_crn, format_network
from .petri import petri_export, petri_import
from .report import emit_report, render_text

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

T = TypeVar("T")


class InputError(Exception):
    pass


def _read(path: str, decode: Callable[[str], T]) -> T:
    """Decode a UTF-8 file, dropping a leading byte order mark.

    Unreadable or malformed input becomes an InputError.
    """
    try:
        return decode(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8; JSON nested too deep
        raise InputError(f"{path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _load_network(path: str) -> ReactionNetwork:
    return _read(path, lambda text: parse_crn(text).network)


def _pieces(text: str) -> list[str]:
    """The comma-separated pieces of a flag, stripped, empty ones dropped."""
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _complex_list(net: ReactionNetwork, text: str) -> list[int]:
    indices = []
    for piece in _pieces(text):
        try:
            indices.append(net.complex_index(parse_complex(piece, net)))
        except ParseError as exc:
            raise InputError(f"complex {piece!r}: {exc}") from exc
        except KeyError:
            raise InputError(f"complex {piece!r} does not occur in the network") from None
    if not indices:
        raise InputError("empty complex list")
    return indices


def _parse_init(net: ReactionNetwork, text: str) -> tuple[int, ...]:
    names = net.species_names
    counts: dict[str, int] = {}
    for piece in _pieces(text):
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in names:
            raise InputError(f"unknown species {name!r} in --init")
        if name in counts:
            raise InputError(f"species {name!r} given twice in --init")
        value = value.strip()
        if not INTEGER.fullmatch(value):  # a count reads like a network coefficient
            raise InputError(f"bad count for {name!r} in --init")
        counts[name] = parse_int(value)
    return tuple(counts.get(name, 0) for name in names)


def _search_config(net: ReactionNetwork, args: argparse.Namespace) -> SearchConfig:
    kwargs: dict = {"forest_cap": _count(args.forest_cap, "--forest-cap")}
    dom = args.dom  # "maximal" and "terminal" are the defaults
    if dom.startswith("all:"):
        kwargs["dom_strategy"] = "all-subsets"
        kwargs["dom_cap"] = _count(dom[4:], "--dom all:N")
    elif dom != "maximal":
        raise InputError("--dom expects 'maximal' or 'all:N'")
    absorbing = args.absorbing
    if absorbing.startswith("enumerate:"):
        kwargs["absorbing_strategy"] = "enumerate"
        kwargs["absorbing_cap"] = _count(absorbing[10:], "--absorbing enumerate:N")
    elif absorbing.startswith("set:"):
        kwargs["absorbing_strategy"] = "explicit"
        kwargs["explicit_absorbing"] = _complex_list(net, absorbing[4:])
    elif absorbing != "terminal":
        raise InputError("--absorbing expects 'terminal', 'enumerate:N', or 'set:...'")
    kwargs["nontriviality"] = (
        ANY_EDGE if args.nontriviality == "any" else TRUE_REACTIONS
    )
    return SearchConfig(**kwargs)


def _int_list(values) -> str:
    """The ints as a list would print them, at any number of digits."""
    return "[" + ", ".join(map(rational_text, values)) + "]"


def _int_tuple(values) -> str:
    """The ints as a tuple would print them, at any number of digits."""
    text = ", ".join(map(rational_text, values))
    return f"({text},)" if len(values) == 1 else f"({text})"


def _complex_set(net: ReactionNetwork, indices) -> str:
    """The complexes at the indices, ascending, as {a, b}."""
    return "{" + ", ".join(net.complex_names[i] for i in sorted(indices)) + "}"


def _count(text: str, what: str, least: int = 1) -> int:
    """A flag's count in least..sys.maxsize, written as the text format writes a coefficient.

    At most one leading '-' is read too, so that a negative count is out of range.
    """
    if not INTEGER.fullmatch(text.removeprefix("-")):
        raise InputError(f"{what} needs an integer")
    value = parse_int(text)
    if value < least:
        raise InputError(f"{what} must be >= {least}")
    if value > sys.maxsize:
        raise InputError(f"{what} must be <= {sys.maxsize}")
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    net = _load_network(args.file)
    cfg = _search_config(net, args)
    verdict = analyze(net, cfg)
    if args.json:  # before any output, so a failed write prints no verdict
        _write(args.json, emit_report(net, verdict, cfg))
    sys.stdout.write(render_text(net, verdict))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    net = _load_network(args.file)
    root = _parse_init(net, args.init)
    budget = _count(args.budget, "--budget", least=0)
    state_cap = _count(args.state_cap, "--state-cap")
    targets = _complex_list(net, args.check_extinction) if args.check_extinction is not None else None
    graph = explore(net, root, hard_cap=state_cap)
    flags = recurrent_states(graph)
    print(f"root: {_int_tuple(root)}")
    print(f"reachable states: {len(graph.states)}")
    print(f"recurrent states: {sum(flags)}")
    alive = recurrent_complexes(net, graph)
    for i, name in enumerate(net.complex_names):
        label = "recurrent" if i in alive else "transient"
        print(f"complex {name}: {label}")
    if targets is not None:
        local = extinction_on(net, graph, targets)
        print(f"extinction event on listed complexes from root: {local}")
        swept = guaranteed_extinction_on(
            net, targets, budget=budget, hard_cap=state_cap
        )
        print(
            f"extinction from every initial state with total <= {budget}: {swept}"
        )
    return EXIT_OK


def _cmd_structure(args: argparse.Namespace) -> int:
    net = _load_network(args.file)
    cap = _count(args.cap, "--cap")
    names = net.complex_names
    g = net.graph

    def fmt_blocks(blocks) -> str:
        return "; ".join(_complex_set(net, b) for b in blocks)

    print(f"species ({net.m}): " + ", ".join(net.species_names))
    print(f"reactions ({net.r}):")
    for k, (src, dst) in enumerate(g.edges):
        print(f"  {k + 1}: {names[src]} -> {names[dst]}")
    print(f"complexes ({net.n}):")
    for i, name in enumerate(names):
        print(f"  c{i}: {name}")
    print("linkage classes: " + fmt_blocks(linkage_classes(g)))
    print("strong linkage classes: " + fmt_blocks(strong_linkage_classes(g)))
    print("terminal SLCs: " + fmt_blocks(terminal_slcs(g)))
    sets = enumerate_absorbing_sets(g, cap)
    print(f"absorbing complex sets (first {len(sets)}):")
    for s in sets:
        print("  " + _complex_set(net, s))
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    net = _load_network(args.file)
    gamma = net.stoich
    print("stoichiometric matrix (rows = species):")
    for name, row in zip(net.species_names, gamma):
        print(f"  {name}: {_int_list(row)}")
    deciders = {"conservative": is_conservative, "subconservative": is_subconservative}
    for label, decide in deciders.items():
        outcome = decide(gamma)
        if isinstance(outcome, Feasible):
            print(f"{label}: True, witness c = {list(map(rational_text, outcome.witness))}")
        else:
            print(f"{label}: False")
    return EXIT_OK


def _cmd_forests(args: argparse.Namespace) -> int:
    net = _load_network(args.file)
    cap = _count(args.forest_cap, "--forest-cap")
    names = net.complex_names
    dcrn = maximal_admissible(net)
    print("maximal admissible domination expansion:")
    if dcrn.dom_edges:
        for j, e in enumerate(dcrn.dom_edges):
            print(f"  D{j + 1}: {names[e.src]} -> {names[e.dst]}")
    else:
        print("  (no domination edges)")
    print("absorbing set: " + _complex_set(net, dcrn.absorbing))
    if len(dcrn.absorbing) == net.n:
        print("every complex is absorbing: no transient complex, nothing to decide")
        return EXIT_OK
    sub = is_subconservative(net.stoich)
    witness = sub.witness if isinstance(sub, Feasible) else None
    if witness is None:
        print("the network is not subconservative: no forest below certifies an extinction event")
    stream = enumerate_forests(dcrn)
    forests = list(islice(stream, cap))
    if next(stream, None) is not None:
        print(f"(enumeration truncated at {cap})")
    decided = decide_forests(dcrn, forests, TRUE_REACTIONS, BalanceStore(net, witness))
    for idx, (forest, outcome) in enumerate(decided, start=1):
        if isinstance(outcome, Balanced):
            status = f"balanced, alpha = {_int_list(outcome.alpha)}"
        else:
            covered = [edge_label(v, net.r) for cands, _ in outcome.witnesses for v in cands]
            status = f"unbalanced, refuted on candidates {{{', '.join(covered)}}}"
        print(f"forest {idx}: edges {{{', '.join(forest.edge_labels(net.r))}}}: {status}")
    return EXIT_OK


def _cmd_petri(args: argparse.Namespace) -> int:
    if args.direction == "export":
        net = _load_network(args.file)
        try:
            text = json.dumps(petri_export(net), indent=2) + "\n"
        except ValueError:  # json writes an int with int.__repr__, which has a digit limit
            raise InputError(f"{args.file}: a multiplicity has too many digits for JSON") from None
    else:
        net = _read(args.file, lambda text: petri_import(json.loads(text, parse_int=parse_int)))
        text = format_network(net)
        kept = parse_crn(text).network.species_names  # by first use, unused ones dropped
        moved = [p for i, p in enumerate(net.species_names) if kept[i:i + 1] != [p]]
        if moved:
            fate = "moved" if moved[0] in kept else "lost"
            raise InputError(f"{args.file}: place {moved[0]!r} would be {fate} in the text form")
    if args.out:
        _write(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnextinct",
        description="Structural extinction-event certificates for discrete reaction networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="search for a guaranteed extinction certificate")
    p.add_argument("file")
    p.add_argument("--dom", default="maximal", help="maximal | all:N")
    p.add_argument("--absorbing", default="terminal", help="terminal | enumerate:N | set:'c1,c2'")
    p.add_argument("--forest-cap", default="10000")
    p.add_argument("--nontriviality", choices=["true-reactions", "any"], default="true-reactions")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", help="explicit state-space exploration from a root state")
    p.add_argument("file")
    p.add_argument("--init", required=True, help='e.g. "X1=2,X2=0"')
    p.add_argument(
        "--budget",
        default="6",
        help="--check-extinction sweeps every initial state whose counts total at most this",
    )
    p.add_argument(
        "--state-cap",
        default="200000",
        help="most states to store: in the root's closure, and in the one closure "
        "shared by all roots of the --check-extinction sweep (exit 3 beyond it)",
    )
    p.add_argument("--check-extinction", help="comma-separated complexes")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("structure", help="complexes, linkage classes, absorbing sets")
    p.add_argument("file")
    p.add_argument("--cap", default="64")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("invariants", help="stoichiometric matrix and conservation verdicts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("forests", help="exterior forests of the maximal admissible expansion")
    p.add_argument("file")
    p.add_argument("--forest-cap", default="64")
    p.set_defaults(func=_cmd_forests)

    p = sub.add_parser("petri", help="Petri-net JSON import/export")
    p.add_argument("direction", choices=["export", "import"])
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_petri)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
