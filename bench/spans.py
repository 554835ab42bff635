"""Spans around the package's public functions, installed from outside.

The modules import each other's functions by name (`from .exactlp import
lexmin`), so a wrapper must replace the name in every module that holds it,
not only in the defining module.  `Tracer.install` does that and
`Tracer.uninstall` puts the original functions back, so untraced passes run
the unmodified code.  Spans are kept in memory as (name, start, end, parent)
and written out by the caller at the end of the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

PACKAGE = "crnextinct"

# Layer metric -> the functions whose outermost spans it sums.
LAYERS = {
    "invariants.subconservative_s": ("invariants.is_subconservative",),
    "exactlp.solve_s": ("exactlp.solve_feasibility",),
    "exactlp.lexmin_s": ("exactlp.lexmin",),
    "exactlp.audit_s": ("exactlp.check_feasible", "exactlp.check_farkas"),
    "engine.analyze_s": ("engine.analyze",),
    "engine.audit_s": ("engine.audit_extinction",),
    "report.verify_s": ("report.verify_report",),
    "report.emit_s": ("report.emit_report",),
    "forests.enumerate_s": ("forests.enumerate_forests",),
    "forests.decide_s": ("forests.decide_balance",),
    "domination.expand_s": (
        "domination.domination_set",
        "domination.build_dom_crn",
        "domination.check_slc_coincidence",
    ),
    "graphs.absorbing_s": (
        "graphs.enumerate_absorbing_sets",
        "graphs.is_absorbing_set",
        "graphs.terminal_complexes",
    ),
    "oracle.explore_s": ("oracle.explore",),
    "oracle.recurrence_s": (
        "oracle.extinction_on",
        "oracle.complex_recurrent",
        "oracle.recurrent_complexes",
    ),
}

# Function -> counter it increments per call.
CALL_COUNTS = {
    "invariants.is_subconservative": "invariants.subconservative_calls",
    "exactlp.solve_feasibility": "exactlp.solve_calls",
    "exactlp.lexmin": "exactlp.lexmin_calls",
    "exactlp.minimize": "exactlp.minimize_calls",
    "forests.decide_balance": "forests.decided",
    "oracle.explore": "oracle.explore_calls",
}

# The exactlp audit functions are also called inside the solver as self-checks;
# those calls are solver work, so they are wrapped only where other modules
# import them.
NOT_IN_DEFINING_MODULE = {"exactlp.check_feasible", "exactlp.check_farkas"}


def _tableau_cells(system) -> int:
    """Rows x columns of the phase-1 tableau exactlp builds for this system (computed)."""
    rows = len(system.eq) + len(system.ge)
    struct = system.n if getattr(system, "nonneg", True) else 2 * system.n
    return rows * (struct + len(system.ge) + rows + 1)


def _observe(name: str, args: tuple, result: Any, counts: Counter) -> None:
    """Counts that the result of a call carries."""
    if name in ("exactlp.solve_feasibility", "exactlp.minimize"):
        counts["exactlp.tableau_cells"] += _tableau_cells(args[0])
    elif name == "forests.enumerate_forests":
        forests = getattr(result, "forests", None)
        if hasattr(forests, "__len__"):  # a lazy enumeration has no count here
            counts["forests.enumerated"] += len(forests)
    elif name == "forests.decide_balance":
        if type(result).__name__ == "Balanced":
            counts["forests.balanced"] += 1
        else:
            counts["forests.refutations"] += len(result.witnesses)
    elif name == "oracle.explore":
        counts["oracle.states"] += len(result.states)
        counts["oracle.edges"] += len(result.edges)
    elif name == "report.emit_report":
        counts["report.bytes"] += len(result)
    elif name == "engine.analyze":
        stats = getattr(result, "stats", None)
        if stats is not None:
            counts["engine.candidates"] += stats.candidates
            counts["engine.vacuous_skipped"] += stats.vacuous_skipped
            counts["engine.truncated_verdicts"] += int(stats.truncated)


def _targets() -> list[str]:
    names = {f for group in LAYERS.values() for f in group}
    return sorted(names | set(CALL_COUNTS))


class Tracer:
    """Records spans and counts for every wrapped call while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        counter = CALL_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if counter:
                counts[counter] += 1
            _observe(name, args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every module-level reference to a traced function with its wrapper."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in _targets():
            home, attr = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is not original:
                    continue
                if name in NOT_IN_DEFINING_MODULE and mod.__name__ == f"{PACKAGE}.{home}":
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def layer_seconds(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Per layer metric, the summed duration of its outermost spans (no double counting)."""
    group_of: dict[str, list[str]] = {}
    for metric, names in LAYERS.items():
        for name in names:
            group_of.setdefault(name, []).append(metric)
    totals = {metric: 0.0 for metric in LAYERS}
    for name, start, end, parent in spans:
        for metric in group_of.get(name, ()):
            members = LAYERS[metric]
            p = parent
            while p != -1 and spans[p][0] not in members:
                p = spans[p][3]
            if p == -1:
                totals[metric] += end - start
    return totals


def self_seconds(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Per function, span time not covered by its direct child spans."""
    out: Counter = Counter()
    for name, start, end, _ in spans:
        out[name] += end - start
    for name, start, end, parent in spans:
        if parent != -1:
            out[spans[parent][0]] -= end - start
    return dict(out)

