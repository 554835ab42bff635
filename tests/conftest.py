import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from crnextinct.exactlp import Feasible
from crnextinct.invariants import is_subconservative
from crnextinct.model import ReactionNetwork, build_network, stoich_matrix
from crnextinct.parser import parse_crn

settings.register_profile(
    "suite", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


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


def load_fixture(name: str) -> ReactionNetwork:
    text = (FIXTURE_DIR / f"{name}.crn").read_text(encoding="utf-8")
    return parse_crn(text).network


@pytest.fixture(scope="session")
def nets() -> dict[str, ReactionNetwork]:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


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
        if isinstance(is_subconservative(stoich_matrix(net)), Feasible):
            found.append(net)
    return found
