import importlib.util
import os
import random
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from crnextinct import engine, graphs
from crnextinct.exactlp import Feasible, check_farkas
from crnextinct.forests import (
    Unbalanced,
    build_balancing_system,
    decide_balance,
    enumerate_forests,
    subconservation_refutation,
    subconservation_slack,
)
from crnextinct.invariants import is_subconservative
from crnextinct.model import ReactionNetwork, build_network
from crnextinct.parser import parse_crn
from forests_reference import verify_balance_outcome

settings.register_profile(
    "suite", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def subprocess_env() -> dict[str, str]:
    """The environment for a Python subprocess, with this checkout's src/ on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def bench_module(name: str):
    """Import bench/<name>.py read-only, under the module name bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module

FIXTURE_NAMES = [
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
]


def chain_text(n: int) -> str:
    """Chain n: k X + (n - k) Y -> (k - 1) X + (n - k + 1) Y for k = n ... 1.

    Its n + 1 complexes form one path, none dominates another, and c = (2, 1)
    lowers along every reaction, so the network is strictly subconservative.
    """

    def term(count: int, name: str) -> list[str]:
        return [] if count == 0 else [name if count == 1 else f"{count} {name}"]

    def cpx(x: int, y: int) -> str:
        return " + ".join(term(x, "X") + term(y, "Y")) or "0"

    return "".join(f"{cpx(k, n - k)} -> {cpx(k - 1, n - k + 1)}\n" for k in range(n, 0, -1))


def reversible_chain_text(n: int, k: int) -> str:
    """Chain n with its step k (0-based, from n X) also run backwards.

    The step and its reverse cancel, so no c >= 1 lowers both: the network
    is conservative, c = (1, 1), but not strictly subconservative.
    """
    step = chain_text(n).splitlines()[k]
    src, tgt = step.split(" -> ")
    return chain_text(n) + f"{tgt} -> {src}\n"


def adv_text(k: int) -> str:
    """Adv k: S -> A; Ci -> T1 and Ci -> T2 for i < k; A -> Z, A -> T1, Z -> A.

    k + 5 complexes, each one species, so none dominates another; T1 and T2
    are terminal.  A's first option, A -> Z, closes the cycle A -> Z -> A
    only at Z, the last exterior complex, so a walk that backtracks one
    position at a time tries all 2^k choices of the Ci first.
    """
    ci = "".join(f"C{i} -> T1\nC{i} -> T2\n" for i in range(k))
    return f"S -> A\n{ci}A -> Z\nA -> T1\nZ -> A\n"


def load_fixture(name: str) -> ReactionNetwork:
    text = (FIXTURE_DIR / f"{name}.crn").read_text(encoding="utf-8")
    return parse_crn(text).network


@pytest.fixture(scope="session")
def nets() -> dict[str, ReactionNetwork]:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture
def condense_calls(monkeypatch) -> list[list[list[int]]]:
    """Per graphs.condense call, in order, what `expand` returned for each key, by key.

    For a reaction graph the keys are its vertices, so a call over a whole
    graph reads back as the graph's successors().
    """
    calls = []
    real = graphs.condense

    def spy(roots, expand, *stores, **options):
        listed = {}

        def recorded(key):
            listed[key] = list(expand(key))
            return listed[key]

        found = real(roots, recorded, *stores, **options)
        calls.append([listed[key] for key in sorted(listed)])
        return found

    monkeypatch.setattr(graphs, "condense", spy)
    return calls


def complex_names(net: ReactionNetwork, indices) -> list[str]:
    from crnextinct.model import format_complex

    return sorted(format_complex(net.complexes[i], net.species_names) for i in indices)


def name_to_index(net: ReactionNetwork) -> dict[str, int]:
    from crnextinct.model import format_complex

    return {
        format_complex(c, net.species_names): i for i, c in enumerate(net.complexes)
    }


def state_of(net: ReactionNetwork, **counts: int) -> tuple[int, ...]:
    """A state vector from species-name keyword counts (unset species are 0)."""
    names = net.species_names
    unknown = set(counts) - set(names)
    if unknown:
        raise KeyError(f"unknown species {sorted(unknown)}")
    return tuple(counts.get(name, 0) for name in names)


def random_network(rng: random.Random) -> ReactionNetwork:
    m = rng.randint(1, 4)
    r = rng.randint(1, 6)

    def cvec():
        return tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(m))

    reactions = [(cvec(), cvec()) for _ in range(r)]
    return build_network([f"X{i + 1}" for i in range(m)], reactions)


def random_subconservative(seed: int, count: int) -> list[ReactionNetwork]:
    rng = random.Random(seed)
    found: list[ReactionNetwork] = []
    while len(found) < count:
        net = random_network(rng)
        if isinstance(is_subconservative(net.stoich), Feasible):
            found.append(net)
    return found


def strict_subconservation(net: ReactionNetwork):
    """(c, s) when is_subconservative's witness, scaled to integers c, is strict; else None.

    s = -c^T Gamma (forests.subconservation_slack), one entry per reaction,
    and strict means every s_k >= 1.
    """
    sub = is_subconservative(net.stoich)
    if not isinstance(sub, Feasible):
        return None
    c, slack = subconservation_slack(net, sub.witness)
    return (c, slack) if all(s >= 1 for s in slack) else None


def check_network_refutations(net: ReactionNetwork, configs, forest_cap: int) -> int:
    """Audit the strict vector's refutation on the first forests of every candidate.

    For a strictly subconservative network, each of the first forest_cap
    forests of every candidate of every config, which the search finds with
    the scaled witness c as analyze does: the refutation passes
    check_farkas, decide_balance also finds the forest unbalanced, and
    verify_balance_outcome accepts it.  Changing any one multiplier by +1 or
    -1 breaks it, except on an equality row that is zero over the support,
    whose multiplier is free.  Returns the number of forests checked.
    """
    strict = strict_subconservation(net)
    if strict is None:
        return 0
    c, slack = strict
    checked = 0
    for cfg in configs:
        for dcrn in engine._candidate_pairs(net, cfg, c):
            for forest in islice(enumerate_forests(dcrn), forest_cap):
                system = build_balancing_system(dcrn, forest)
                outcome = subconservation_refutation(system, c, slack)
                assert isinstance(decide_balance(system), Unbalanced)
                assert verify_balance_outcome(dcrn, forest, outcome)
                checked += 1
                for candidates, cert in outcome.witnesses:
                    lin = system.linear_system(candidates)
                    assert check_farkas(lin, cert)
                    _assert_every_multiplier_matters(lin, cert)
    return checked


def _assert_every_multiplier_matters(system, cert) -> None:
    fields = ("eq_mult", "ge_mult", "nonneg_mult")
    zero_eq = [not entries for entries, _ in system.eq]
    for field in fields:
        values = getattr(cert, field)
        for i in range(len(values)):
            if field == "eq_mult" and zero_eq[i]:
                continue
            for delta in (1, -1):
                changed = list(values)
                changed[i] += delta
                mutant = cert._replace(**{field: tuple(changed)})
                assert not check_farkas(system, mutant), (field, i, delta)
