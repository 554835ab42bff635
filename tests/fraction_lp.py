"""Reference exact simplex over `fractions.Fraction`, for differential tests.

This is the dense two-phase Bland-rule simplex that `crnextinct.exactlp` ran
before its tableau moved to Python ints, started from the same basis: a ge
row with rhs <= 0 is negated and its slack starts basic, every other row gets
an artificial.  Both walk the same rational tableau through the same pivots,
so `solve_feasibility`, `minimize` and `lexmin` here must return results
equal (`==`) to the package's.  `lexmin` is the original one: a fresh phase 1
per coordinate, with each optimum fixed by an equality row before the next
coordinate is minimized.

`dense_check_feasible` and `dense_check_farkas` are the audits as exactlp had
them before they skipped zero terms and summed integers: every multiplier
times every coefficient, in Fraction.  The reference solver audits its own
answers with them, and the package's audits must agree with them on every
input.

Rows are densified on entry (`_dense`), so this stays a dense reference
to the package's sparse rows.  `int_row` and `dense_system` go the other
way for tests: they build a package system from dense rows of ints or
Fractions, through `exactlp.sparse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from crnextinct.exactlp import (
    Farkas,
    Feasible,
    LinearSystem,
    Outcome,
    Row,
    UnboundedError,
    scale_to_integers,
    sparse,
)

Rat = Fraction


def _rat_vec(values: Sequence) -> tuple[Rat, ...]:
    return tuple(Fraction(v) for v in values)


def int_row(coeffs: Sequence, rhs) -> Row:
    """A dense row of ints or Fractions as a package row: scaled to integers
    by the lcm of its denominators, then its nonzeros."""
    *scaled, b = scale_to_integers([*coeffs, rhs])[0]
    return sparse(scaled), b


def dense_system(n: int, eq: Sequence = (), ge: Sequence = ()) -> LinearSystem:
    """The package system of dense rows (coefficients, rhs), each of n ints or Fractions."""
    if any(len(coeffs) != n for coeffs, _ in [*eq, *ge]):
        raise ValueError(f"a dense row needs {n} coefficients")
    return LinearSystem(n, tuple(int_row(*row) for row in eq), tuple(int_row(*row) for row in ge))


def _dense(entries, n: int) -> list[int]:
    """The n coefficients of a package row's entries."""
    coeffs = [0] * n
    for j, c in entries:
        coeffs[j] = c
    return coeffs


def dense_check_feasible(system: LinearSystem, x: Sequence) -> bool:
    xv = _rat_vec(x)
    if len(xv) != system.n:
        return False
    if any(v < 0 for v in xv):
        return False
    for entries, rhs in system.eq:
        if sum(c * v for c, v in zip(_dense(entries, system.n), xv)) != rhs:
            return False
    for entries, rhs in system.ge:
        if sum(c * v for c, v in zip(_dense(entries, system.n), xv)) < rhs:
            return False
    return True


def dense_check_farkas(system: LinearSystem, cert: Farkas) -> bool:
    if len(cert.eq_mult) != len(system.eq) or len(cert.ge_mult) != len(system.ge):
        return False
    if len(cert.nonneg_mult) != system.n:
        return False
    if any(m < 0 for m in cert.ge_mult) or any(m < 0 for m in cert.nonneg_mult):
        return False
    combo = [Fraction(0)] * system.n
    rhs_total = Fraction(0)
    for m, (entries, rhs) in zip(cert.eq_mult, system.eq):
        for j, c in enumerate(_dense(entries, system.n)):
            combo[j] += m * c
        rhs_total += m * rhs
    for m, (entries, rhs) in zip(cert.ge_mult, system.ge):
        for j, c in enumerate(_dense(entries, system.n)):
            combo[j] += m * c
        rhs_total += m * rhs
    for j, m in enumerate(cert.nonneg_mult):
        combo[j] += m
    return all(c == 0 for c in combo) and rhs_total > 0


def _normalize_multipliers(values: list[Rat]) -> list[Rat]:
    """The positive multiple of the vector that is a primitive integer vector."""
    scale = lcm(*(v.denominator for v in values))
    ints = [v * scale for v in values]
    g = gcd(*(v.numerator for v in ints)) or 1
    return [v / g for v in ints]


class _Tableau:
    """Dense simplex tableau; rows carry rhs in the last slot."""

    def __init__(self, rows: list[list[Rat]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        piv = row[c]
        inv = Fraction(1) / piv
        self.rows[r] = [v * inv for v in row]
        row = self.rows[r]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            factor = other[c]
            if factor:
                self.rows[i] = [a - factor * b for a, b in zip(other, row)]
        self.basis[r] = c

    def minimize(self, cost: list[Rat], banned: set[int]) -> tuple[Rat, list[Rat]]:
        """Bland-rule simplex from a canonical tableau; (optimal value, reduced costs)."""
        ncols = self.ncols
        rc = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                row = self.rows[r]
                rc = [a - cb * row[j] for j, a in enumerate(rc)]
        while True:
            enter = -1
            for j in range(ncols):
                if j not in banned and rc[j] < 0:
                    enter = j
                    break
            if enter == -1:
                z = sum(
                    (cost[b] * self.rows[i][-1] for i, b in enumerate(self.basis)),
                    Fraction(0),
                )
                return z, rc
            leave = -1
            best: Optional[Rat] = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave == -1:
                raise UnboundedError("objective unbounded below")
            factor = rc[enter]
            self.pivot(leave, enter)
            row = self.rows[leave]
            rc = [a - factor * row[j] for j, a in enumerate(rc)]


def _standardize(system: LinearSystem) -> tuple[list[list[Rat]], list[int], list[int], list[int], int]:
    """Phase-1 rows [x | slacks | artificials | rhs]; (rows, flips, basis, art_cols, ncols).

    As in exactlp: a ge row with rhs <= 0 is negated and its slack starts
    basic; every other row gets an artificial that starts basic.
    """
    n = system.n
    rows_in = [(_dense(entries, n), rhs, "eq") for entries, rhs in system.eq]
    rows_in += [(_dense(entries, n), rhs, "ge") for entries, rhs in system.ge]
    n_slack = len(system.ge)
    slack_basic = [kind == "ge" and rhs <= 0 for _, rhs, kind in rows_in]
    ncols = n + n_slack + slack_basic.count(False)
    rows: list[list[Rat]] = []
    flips: list[int] = []
    basis: list[int] = []
    slack_at = 0
    art_at = 0
    for i, (coeffs, rhs, kind) in enumerate(rows_in):
        flip = -1 if rhs < 0 or slack_basic[i] else 1
        flips.append(flip)
        row = [Fraction(0)] * (ncols + 1)
        for j, c in enumerate(coeffs):  # int rows become Fraction rows here
            row[j] = Fraction(flip * c)
        if kind == "ge":
            row[n + slack_at] = Fraction(-flip)
            if slack_basic[i]:
                basis.append(n + slack_at)
            slack_at += 1
        if not slack_basic[i]:
            row[n + n_slack + art_at] = Fraction(1)
            basis.append(n + n_slack + art_at)
            art_at += 1
        row[-1] = Fraction(flip * rhs)
        rows.append(row)
    art_cols = list(range(n + n_slack, ncols))
    return rows, flips, basis, art_cols, ncols


def _extract_point(system: LinearSystem, tab: _Tableau) -> tuple[Rat, ...]:
    values = [Fraction(0)] * tab.ncols
    for r, b in enumerate(tab.basis):
        values[b] = tab.rows[r][-1]
    return tuple(values[: system.n])


def _extract_farkas(
    system: LinearSystem, rc: list[Rat], flips: list[int], start: list[int], art_cols: list[int]
) -> Farkas:
    """Artificial-basic row: flip * (1 - rc[artificial]); slack-basic row: rc[slack]."""
    n_eq = len(system.eq)
    y = [
        flips[i] * (Fraction(1) - rc[b]) if b in art_cols else rc[b]
        for i, b in enumerate(start)
    ]
    combo = [Fraction(0)] * system.n
    for m, (entries, _) in zip(y, list(system.eq) + list(system.ge)):
        for j, c in enumerate(_dense(entries, system.n)):
            combo[j] += m * c
    scaled = _normalize_multipliers(y + [-c for c in combo])
    n_rows = len(y)
    cert = Farkas(
        tuple(scaled[:n_eq]), tuple(scaled[n_eq:n_rows]), tuple(scaled[n_rows:])
    )
    assert dense_check_farkas(system, cert)
    return cert


def _phase1(system: LinearSystem) -> tuple[Optional[_Tableau], Optional[Farkas]]:
    rows, flips, start, art_cols, ncols = _standardize(system)
    tab = _Tableau(rows, list(start), ncols)
    cost = [Fraction(0)] * ncols
    for c in art_cols:
        cost[c] = Fraction(1)
    z, rc = tab.minimize(cost, banned=set())
    if z > 0:
        return None, _extract_farkas(system, rc, flips, start, art_cols)
    art_set = set(art_cols)
    r = 0
    while r < len(tab.rows):
        b = tab.basis[r]
        if b in art_set:
            pivot_col = next(
                (j for j in range(system.n + len(system.ge)) if tab.rows[r][j] != 0), None
            )
            if pivot_col is None:
                del tab.rows[r]
                del tab.basis[r]
                continue
            tab.pivot(r, pivot_col)
        r += 1
    return tab, None


def solve_feasibility(system: LinearSystem) -> Outcome:
    tab, farkas = _phase1(system)
    if farkas is not None:
        return farkas
    point = _extract_point(system, tab)
    assert dense_check_feasible(system, point)
    return Feasible(point)


def minimize(system: LinearSystem, direction: Sequence) -> tuple[Optional[Rat], Outcome]:
    d = _rat_vec(direction)
    tab, farkas = _phase1(system)
    if farkas is not None:
        return None, farkas
    cost = list(d) + [Fraction(0)] * (tab.ncols - system.n)
    banned = set(range(system.n + len(system.ge), tab.ncols))
    z, _ = tab.minimize(cost, banned=banned)
    point = _extract_point(system, tab)
    assert dense_check_feasible(system, point)
    return z, Feasible(point)


def lexmin(system: LinearSystem) -> Outcome:
    current = system
    values: list[Rat] = []
    for i in range(system.n):
        direction = [Fraction(0)] * system.n
        direction[i] = Fraction(1)
        opt, outcome = minimize(current, direction)
        if isinstance(outcome, Farkas):
            assert not values
            return outcome
        values.append(opt)
        current = LinearSystem(current.n, current.eq + (int_row(direction, opt),), current.ge)
    witness = tuple(values)
    assert dense_check_feasible(system, witness)
    return Feasible(witness)
