"""Exact rational linear feasibility with self-certifying answers.

Every query is a system of equalities and inequalities over rational vectors.
The answer is either a feasible point (checkable by substitution) or a Farkas
certificate: multipliers, nonnegative on inequality rows, whose combination
cancels every variable while combining the right-hand sides to something
positive, i.e. the contradiction 0 >= 1.  No floating point enters any path.

Rows are sparse and hold Python ints from construction on: a row is
(entries, rhs), where entries are the (column, nonzero int coefficient) pairs
in ascending column order and rhs is an int.  Every caller builds its rows
in this form (`sparse` takes a dense row's nonzeros), scaling a rational row
by the lcm of its denominators itself (scale_to_integers), which changes no
solution set, and LinearSystem is the one check of a row, in O(nonzeros).
Only _standardize writes dense rows, those of the tableau.  The solver is a
dense two-phase simplex with Bland's rule, which terminates on every input.
Its tableau holds the integer rows as given, kept primitive by
integer-preserving pivots (Edmonds 1967), so it stands for exactly the
rational tableau and takes the same pivots.  The objective is the
tableau's last row, basic in a column of its own whose entry is the
reduced-cost denominator, so one row operation, _combine, rewrites every
row, the objective's included, in a pivot and in a cost stage's setup.
_standardize writes phase 1's objective row with the rows: each
artificial costs 1 and starts basic in its one row, so the row is the cost
minus those rows.  One path, _solve, runs phase 1 and then any cost
stages; only a cost stage needs the zero-level artificials pivoted out of
the basis, so a feasibility query skips those pivots.  Phase 1 starts from
the slack basis where it can: a row a.x >= b with b <= 0 holds at x = 0, so
it is negated and its slack starts basic; only equality rows and rows with
b > 0 get an artificial column.  So a system with
no equality row and every right-hand side <= 0 holds at the origin, and
solve_feasibility returns that point, as phase 1 would, without building a
tableau.  A Farkas certificate is read off the final phase-1 objective
row, the reduced costs rc / den: an artificial row's multiplier is
flip * (den - rc[artificial]), a slack-basic row's is rc[slack], and that
of x_j >= 0 is rc[j].  Witnesses and
certificates leave the solver as fractions.Fraction and are audited by
check_feasible / check_farkas independently of the tableau: the witness, or
all multipliers, are scaled to integers by one lcm, and each row becomes an
integer sum over its entries.  Scaling by a positive number changes no sign,
so the audit is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Entries = tuple[tuple[int, int], ...]  # (column, nonzero coefficient), ascending column
Row = tuple[Entries, int]  # (entries, rhs)


def sparse(coeffs: Iterable[int]) -> Entries:
    """The entries of a dense row: its (column, coefficient) pairs with a nonzero coefficient."""
    return tuple((j, c) for j, c in enumerate(coeffs) if c)


@dataclass(frozen=True)
class LinearSystem:
    """Constraints over `n` nonnegative variables: eq rows a.x = b, ge rows a.x >= b.

    A row is (entries, rhs): a tuple of (column, coefficient) pairs, columns
    ascending within 0..n-1 and every coefficient a nonzero int, and an int
    rhs (scale_to_integers turns a rational row into one, sparse a dense
    one).  Anything else, a bool or a dense row of ints included, is a
    ValueError.  This is the only check of a row, and it reads each entry
    once.  The implicit rows x >= 0 participate in Farkas certificates
    through `nonneg` multipliers.
    """

    n: int
    eq: tuple[Row, ...] = ()
    ge: tuple[Row, ...] = ()

    def __post_init__(self) -> None:
        rows = self.eq + self.ge
        try:
            for row in rows:
                entries, rhs = row
                if type(entries) is not tuple or type(rhs) is not int:
                    raise ValueError
                last = -1
                for j, c in entries:
                    if not (type(j) is type(c) is int and c and last < j < self.n):
                        raise ValueError
                    last = j
        except (TypeError, ValueError):  # also a row or an entry that is not a pair
            want = f"a row is (ascending (column, nonzero int) pairs in 0..{self.n - 1}, int rhs)"
            raise ValueError(f"{want}, got {row!r:.60}") from None


class Feasible(NamedTuple):
    witness: tuple[Fraction, ...]


class Farkas(NamedTuple):
    """Multipliers proving infeasibility: sum of scaled rows collapses to 0 >= positive.

    The solver's multipliers are Fractions; a refutation built outside it
    may hold ints, which every audit and the report encoding read alike.
    """

    eq_mult: tuple[Fraction, ...]
    ge_mult: tuple[Fraction, ...]
    nonneg_mult: tuple[Fraction, ...]  # one per variable, for the rows x >= 0


Outcome = Union[Feasible, Farkas]


class UnboundedError(ArithmeticError):
    """An optimization direction is unbounded (never expected from our callers)."""


def check_feasible(system: LinearSystem, x: Sequence) -> bool:
    """Is x (ints or Fractions) a nonnegative point satisfying every row exactly?

    x is scaled to integers s*x by the lcm s of its denominators; each row
    a.x = b (or >= b) is checked as the integer sum a.(s*x) against s*b.
    """
    if len(x) != system.n:
        return False
    xs, scale = scale_to_integers(x)
    if any(v < 0 for v in xs):
        return False
    for entries, rhs in system.eq:
        if sum(c * xs[j] for j, c in entries) != rhs * scale:
            return False
    for entries, rhs in system.ge:
        if sum(c * xs[j] for j, c in entries) < rhs * scale:
            return False
    return True


def check_farkas(system: LinearSystem, cert: Farkas) -> bool:
    """Re-derive the contradiction exactly; True only if every step checks.

    All multipliers are scaled to integers by the lcm of their denominators,
    so the combination and its right-hand side are integer sums over the
    nonzero multipliers and entries.
    """
    n_eq, n_ge = len(system.eq), len(system.ge)
    if len(cert.eq_mult) != n_eq or len(cert.ge_mult) != n_ge:
        return False
    if len(cert.nonneg_mult) != system.n:
        return False
    mults, _ = scale_to_integers([*cert.eq_mult, *cert.ge_mult, *cert.nonneg_mult])
    if any(m < 0 for m in mults[n_eq:]):
        return False
    combo = mults[n_eq + n_ge:]  # the rows x >= 0 contribute their multipliers
    rhs_total = 0
    for m, (entries, rhs) in zip(mults, chain(system.eq, system.ge)):
        if m:
            for j, c in entries:
                combo[j] += m * c
            rhs_total += m * rhs
    return not any(combo) and rhs_total > 0


def scale_to_integers(values: Sequence) -> tuple[list[int], int]:
    """Scale ints or rationals by the lcm of their denominators: (integers, lcm)."""
    scale = 1
    for v in values:
        d = v.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return [v.numerator * (scale // v.denominator) for v in values], scale


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (a zero vector stays zero)."""
    g = gcd(*ints)
    if g > 1:
        return tuple(v // g for v in ints)
    return tuple(ints)


def _combine(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """p*row - f*pivot_row, for p and f the entries of pivot_row and row in column c, over its gcd.

    Column c of the result is 0.  This is the one step of Edmonds'
    integer-preserving elimination: every rewritten row of the tableau,
    the objective's included, comes from it.
    """
    p, f = pivot_row[c], row[c]
    new = [p * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*new)
    return [v // g for v in new] if g > 1 else new


class _Tableau:
    """Dense integer simplex tableau: constraint rows, then the objective row.

    A row is [columns 0..ncols-1 | objective column ncols | rhs].  Constraint
    row i stands for the rational row rows[i] / rows[i][basis[i]], whose
    basic entry is 1; it is 0 in column ncols.  The last row is the
    objective, basic in column ncols: its entry there is the reduced-cost
    denominator den, so rows[-1][j] / den is column j's reduced cost and
    rows[-1][-1] / den is minus the objective's value.  basis lists the
    constraint rows' basic columns only.  Every integer basic entry, den
    included, is kept positive, and every rewritten row comes from _combine
    (Edmonds' integer-preserving elimination).  The rational tableau is the
    one a Fraction simplex would hold, so the pivots are the same, and so is
    every answer.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        if row[c] < 0:  # only while artificials are driven out
            row = self.rows[r] = [-v for v in row]
        for i, other in enumerate(self.rows):
            if other[c] and i != r:
                self.rows[i] = _combine(other, row, c)
        self.basis[r] = c

    def drive_out(self, first_art: int) -> None:
        """Pivot each basic artificial (column >= first_art, at level 0) out; drop redundant rows."""
        r = 0
        while r < len(self.basis):
            if self.basis[r] >= first_art:
                row = self.rows[r]
                col = next((j for j in range(first_art) if row[j]), None)
                if col is None:
                    del self.rows[r], self.basis[r]
                    continue
                self.pivot(r, col)
            r += 1

    def set_cost(self, cost: list[int]) -> None:
        """Make the objective row an integer cost, reduced in the current basis.

        cost covers the first columns, the system's variables; the rest cost 0.
        """
        obj = cost + [0] * (self.ncols - len(cost)) + [1, 0]
        for row, b in zip(self.rows, self.basis):
            if obj[b]:
                obj = _combine(obj, row, b)
        self.rows[-1] = obj

    def minimize(self, banned: set[int]) -> None:
        """Run Bland-rule simplex on the objective row from the current basis.

        The tableau must be canonical for its current basis, and the
        objective row 0 at every basic column.  At the end no column outside
        banned has a negative reduced cost.  Raises UnboundedError when the
        objective is unbounded below.  Bland's rule (lowest eligible
        entering column, lowest basic index on ratio ties) guarantees
        termination.  The ratio test skips the objective row by itself: its
        entry in the entering column is negative.
        """
        ncols = self.ncols
        rows, basis = self.rows, self.basis
        while True:
            rc = rows[-1]
            enter = -1
            for j in range(ncols):
                if rc[j] < 0 and j not in banned:
                    enter = j
                    break
            if enter == -1:
                return
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave == -1:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave == -1:
                raise UnboundedError("objective unbounded below")
            self.pivot(leave, enter)


def _standardize(system: LinearSystem) -> tuple[list[list[int]], list[int], list[int], int]:
    """Build the dense phase-1 tableau rows and their start basis.

    A row is [x | slacks | artificials | objective column | rhs].  A ge
    row a.x >= b with b <= 0 is negated to -a.x + s = -b (its flip is -1):
    x = 0 satisfies it, so its slack starts basic and it gets no
    artificial.  Every other row, an equality or a ge row with b > 0, gets an
    artificial column that starts basic; an equality with b < 0 is negated
    so that the start basis is feasible.  The last row is phase 1's
    objective, the sum of the artificials, reduced in the start basis: each
    artificial costs 1 and holds a 1 in the one row basic in it, so the row
    is the cost minus those rows, with den = 1.  Returns (rows, flips,
    basis, ncols).
    """
    n = system.n
    rows_in = [(entries, rhs, False) for entries, rhs in system.eq]
    rows_in += [(entries, rhs, True) for entries, rhs in system.ge]
    n_slack = len(system.ge)
    n_art = sum(1 for _, rhs, is_ge in rows_in if not (is_ge and rhs <= 0))
    ncols = n + n_slack + n_art
    obj = [0] * (n + n_slack) + [1] * n_art + [1, 0]
    rows: list[list[int]] = []
    flips: list[int] = []
    basis: list[int] = []
    slack_at, art_at = n, n + n_slack
    for entries, rhs, is_ge in rows_in:
        slack_basic = is_ge and rhs <= 0
        flip = -1 if rhs < 0 or slack_basic else 1
        flips.append(flip)
        row = [0] * (ncols + 1) + [flip * rhs]
        for j, c in entries:
            row[j] = flip * c
        if is_ge:
            row[slack_at] = -flip
            if slack_basic:
                basis.append(slack_at)
            slack_at += 1
        if not slack_basic:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
            obj = [o - v for o, v in zip(obj, row)]
        rows.append(row)
    return rows + [obj], flips, basis, ncols


def _extract_point(system: LinearSystem, tab: _Tableau) -> tuple[Fraction, ...]:
    values = [Fraction(0)] * system.n
    for row, b in zip(tab.rows, tab.basis):
        if b < system.n:
            values[b] = Fraction(row[-1], row[b])
    return tuple(values)


def _extract_farkas(system: LinearSystem, tab: _Tableau, flips: list[int], start: list[int]) -> Farkas:
    """The certificate in the optimal phase-1 objective row, reduced costs rc / den = c - yA.

    Row i started basic in column start[i].  If that is its artificial, the
    row's multiplier is flip_i * (den - rc[artificial_i]); if it is the slack
    of a negated ge row, the multiplier is the slack's reduced cost rc[s].
    The multiplier of x_j >= 0 is rc[j], which cancels column j of the
    combined rows (LP duality); the vector is made primitive and audited.
    """
    n_eq = len(system.eq)
    first_art = system.n + len(system.ge)
    *rc, den, _ = tab.rows[-1]
    y = [
        flip * (den - rc[b]) if b >= first_art else rc[b] for flip, b in zip(flips, start)
    ]
    n_rows = len(y)
    scaled = tuple(map(Fraction, primitive(y + rc[: system.n])))
    cert = Farkas(scaled[:n_eq], scaled[n_eq:n_rows], scaled[n_rows:])
    if not check_farkas(system, cert):
        raise AssertionError("internal error: produced Farkas certificate fails its own audit")
    return cert


def _phase1(system: LinearSystem) -> tuple[Optional[_Tableau], Optional[Farkas]]:
    """Minimize the sum of the artificials from the start basis."""
    rows, flips, start, ncols = _standardize(system)
    tab = _Tableau(rows, list(start), ncols)
    tab.minimize(banned=set())
    if tab.rows[-1][-1] < 0:  # the least sum of artificials, -rows[-1][-1] / den, is positive
        return None, _extract_farkas(system, tab, flips, start)
    return tab, None  # artificials may stay basic, at level 0


def _solve(system: LinearSystem, costs: Iterable[list[int]]) -> tuple[Outcome, Optional[Fraction]]:
    """Phase 1, then each integer cost minimized over the optimal face of the last.

    The artificials are driven out of the basis before the first stage.
    After a stage every column with positive reduced cost is banned and the
    next stage continues from the same basis.  Returns (Farkas, None) or the
    final point with the last stage's optimal value (with no stages, phase
    1's: 0).
    """
    tab, farkas = _phase1(system)
    if farkas is not None:
        return farkas, None
    ncols, first_art = tab.ncols, system.n + len(system.ge)
    banned = set(range(first_art, ncols))  # the artificials built
    for stage, cost in enumerate(costs):
        if not stage:
            tab.drive_out(first_art)
        tab.set_cost(cost)
        tab.minimize(banned=banned)
        banned.update(j for j, v in enumerate(tab.rows[-1][:ncols]) if v > 0)
    point = _extract_point(system, tab)
    if not check_feasible(system, point):
        raise AssertionError("internal error: produced point fails its own audit")
    *_, den, neg_value = tab.rows[-1]
    return Feasible(point), Fraction(-neg_value, den)


def solve_feasibility(system: LinearSystem) -> Outcome:
    """Decide the system exactly, returning a checkable witness either way.

    A system with no equality row and every right-hand side <= 0 holds at
    the origin, which is where phase 1 stops on it (every slack starts
    basic); it is returned without building a tableau.
    """
    if not system.eq and all(rhs <= 0 for _, rhs in system.ge):
        return Feasible((Fraction(0),) * system.n)
    return _solve(system, ())[0]


def minimize(system: LinearSystem, direction: Sequence) -> tuple[Optional[Fraction], Outcome]:
    """Minimize direction.x over the system.

    Returns (optimal value, Feasible minimizer) or (None, Farkas) when the
    system is infeasible.  Raises UnboundedError for unbounded directions.
    """
    d = tuple(map(Fraction, direction))
    if len(d) != system.n:
        raise ValueError("direction length mismatch")
    cost, scale = scale_to_integers(d)
    outcome, value = _solve(system, [cost])
    return (None if value is None else value / scale), outcome


def lexmin(system: LinearSystem) -> Outcome:
    """The lexicographically least feasible point (canonical witness).

    One solve with n unit-cost stages: x_1 is minimized, then x_2 over the
    optimal face of x_1, and so on, all in one tableau.  Every variable is
    nonnegative, so each stage is bounded and the least point is unique.
    Deterministic: repeated calls return identical witnesses.
    """
    n = system.n
    return _solve(system, ([int(j == i) for j in range(n)] for i in range(n)))[0]
