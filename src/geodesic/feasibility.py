"""Exact rational feasibility for betweenness distance systems.

A total middle assignment on a hypergraph turns into one linear system
over pair variables: an equality ``d(u,v) + d(v,w) - d(u,w) = 0`` per
hyperedge (its tight triangle), a strict triangle ``>= 1`` three ways per
non-hyperedge triple, and ``>= 1`` on every variable.  The strict system
is positively homogeneous, so strict feasibility is equivalent to
feasibility with unit slacks: any strict solution scales to one.

The solver looks for a solution with every variable ``>= START`` (10)
instead, strict rows still ``>= 1``.  By the same homogeneity this loses
nothing: if ``x`` solves the system, ``START * x`` has every variable
``>= START`` and every strict row ``>= START >= 1``; and a solution of the
raised system solves the original.  Substituting ``x = START + y`` puts
every strict row at ``y_a + y_b - y_c >= 1 - START``, so its slack starts
basic at ``START - 1 > 0``: the first basis is not degenerate, as it
would be with ``x = 1 + y``, where every strict row has rhs 0.

A leaf has ``3 * (C(n,3) - |T|)`` strict rows, and few of them bind, so
the system is solved by row generation (delayed constraint generation,
Dantzig, Fulkerson and Johnson, Oper. Res. 1954).  The first LP holds the
equalities and the bounds alone.  Every strict row not yet in the LP is
checked on the vertex's integer numerators, each one it violates joins
the LP, and the LP is solved again, until the vertex meets every strict
row or the LP is infeasible.

- Sound: each round's LP keeps a subset of the rows, a relaxation of the
  system, so an infeasible round means an infeasible system; and the
  last vertex meets every row, which the witness check confirms.
- Finite: a round that does not stop adds at least one row, so there
  are at most ``len(inequalities) + 1`` rounds.
- Deterministic: the LP holds its strict rows in system order, so each
  round's LP, and so its pivots, are a fixed function of the system.
- Each round solves from scratch instead of warm-starting the last
  tableau: the first round is the small equality-only LP, and almost
  every leaf stops in the second round (every leaf of the benchmark's
  ``paper`` and ``random-n7`` batches; 103 of 123 leaves of
  ``enum-n6-sample``, where 15 stop in one round and 5 in three), so a
  re-solve repeats little work.  Feasible leaves on 14-16 vertices take
  3-5 rounds; on one measured leaf the five rounds cost 1.4 times the
  LP over all rows.

Solved by a phase-1 simplex over exact integers.  The entering column is
Dantzig's: the most negative phase-1 reduced cost, ties by the smallest
index.  After ``BLAND_AFTER`` (50) consecutive degenerate pivots (leaving
row rhs 0) it switches to Bland's smallest index until a pivot makes
progress.  That keeps the search finite: a progressing pivot strictly
lowers the phase-1 objective, so no basis recurs across one, and a cycle
would need an endless degenerate run, which from its ``BLAND_AFTER``-th
pivot on is Bland's, and Bland's rule cannot cycle.  The leaving row is
the minimum ratio, ties by the smallest basic variable.

Each tableau row is stored sparsely, as its nonzero integer entries over
its own positive denominator, so a pivot rewrites only the rows with a
nonzero entry in the entering column and divides each rewritten row by
the gcd of its entries and denominator.  The phase-1 objective is one
more such row.  The denominators are positive, so they scale reduced
costs without reordering them and cancel in the cross-multiplied ratio
test: every entering and leaving choice, and so the vertex found, is the
one the same pivots pick on the dense tableau.

The witness is checked against every row and bound of the original
system on integer numerators: ``x`` times the LCM ``L`` of the solver's
denominators, so a strict row must reach ``L`` and a bound
``LOWER_BOUND * L``.  Scaling by a positive ``L`` keeps every comparison,
and the returned distances are the ``Fraction``s ``x``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hypergraphs import Hypergraph3, Pair, Triple, sorted_pair

Constraint = tuple[Pair, Pair, Pair]  # var_a + var_b - var_c  (= 0 or >= 1)

LOWER_BOUND = 1  # every distance variable is at least this

# The solver's variables are at least START, which makes its first basis
# nondegenerate; equivalent by homogeneity (module docstring).
START = 10

# Consecutive degenerate pivots after which entering falls back from
# Dantzig's rule to Bland's until a pivot makes progress.
BLAND_AFTER = 50


@dataclass(frozen=True)
class FeasibilitySystem:
    """Distance constraints for one total orientation of a hypergraph.

    ``equalities``: a + b - c = 0; ``inequalities``: a + b - c >= 1;
    every variable is bounded below by ``LOWER_BOUND``.
    """

    n: int
    variables: tuple[Pair, ...]
    equalities: tuple[Constraint, ...]
    inequalities: tuple[Constraint, ...]


def triangle_constraints(triple: Triple, middle: int) -> Constraint:
    """The tight-triangle constraint of a hyperedge with the given middle."""
    ends = [v for v in triple if v != middle]
    a, b = ends
    return (sorted_pair(a, middle), sorted_pair(middle, b), sorted_pair(a, b))


def strictness_constraints(triple: Triple) -> list[Constraint]:
    """The three strict triangle rows ruling every middle out of a triple."""
    return [triangle_constraints(triple, middle) for middle in triple]


def build_feasibility_system(h: Hypergraph3, assignment: dict[Triple, int]) -> FeasibilitySystem:
    """System for a total middle assignment on ``h``.

    Raises ``ValueError`` if the assignment misses a hyperedge, assigns a
    non-hyperedge, or picks a middle outside its triple.
    """
    missing = h.triples - set(assignment)
    if missing:
        raise ValueError(f"assignment is not total: {sorted(missing)[:3]}...")
    return partial_feasibility_system(h, assignment)


def partial_feasibility_system(h: Hypergraph3, assignment: dict[Triple, int]) -> FeasibilitySystem:
    """Like :func:`build_feasibility_system` but the assignment may be partial.

    The system of a partial assignment is a relaxation of that of every
    total extension: infeasible here means infeasible for all of them.
    """
    eqs = []
    for t in sorted(assignment):
        mid = assignment[t]
        if t not in h.triples:
            raise ValueError(f"assigned triple {t} is not a hyperedge")
        if mid not in t:
            raise ValueError(f"middle {mid} outside triple {t}")
        eqs.append(triangle_constraints(t, mid))
    ineqs = []
    for t in itertools.combinations(range(h.n), 3):
        if t not in h.triples:
            ineqs.extend(strictness_constraints(t))
    variables = tuple(itertools.combinations(range(h.n), 2))
    return FeasibilitySystem(h.n, variables, tuple(eqs), tuple(ineqs))


def solve_exact_feasibility(system: FeasibilitySystem) -> Optional[dict[Pair, Fraction]]:
    """Exact feasibility with witness, or None if genuinely infeasible.

    Solves the equivalent system with every variable ``>= START``, so
    the witness's distances are at least ``START``: a solution scales by
    ``START`` into that system, whose rows and bounds imply the original
    ones (module docstring).  Solves by row generation: the equalities
    first, then again with every strict row a vertex violated added, until
    a vertex violates none or a round is infeasible (module docstring).
    Deterministic: the rounds and their pivots are a fixed function of the
    system.  The witness is the last round's vertex, verified against
    every constraint of ``system`` before being returned.
    """
    var_index = {p: i for i, p in enumerate(system.variables)}
    nv = len(system.variables)

    def row_of(c: Constraint, shift_rhs: int) -> tuple[list[int], int]:
        # substitute x = START + y:  a + b - c (cmp) r  ->  y_a+y_b-y_c (cmp) r - START
        coeffs = [0] * nv
        a, b, neg = c
        coeffs[var_index[a]] += 1
        coeffs[var_index[b]] += 1
        coeffs[var_index[neg]] -= 1
        return coeffs, shift_rhs - START

    eq_rows = [row_of(c, 0) for c in system.equalities]
    # Row generation (module docstring): the strict rows in the LP so far,
    # by index into system.inequalities, each with its solver row.
    active: dict[int, tuple[list[int], int]] = {}
    while True:
        y = solve_nonneg_feasibility(nv, eq_rows, [active[k] for k in sorted(active)])
        if y is None:
            return None
        # x = START + y over the LCM of y's denominators, as integer numerators
        scale = math.lcm(*(v.denominator for v in y))
        scaled = {p: START * scale + y[i].numerator * (scale // y[i].denominator) for p, i in var_index.items()}
        # Only rows outside the LP: a round then adds a row or stops, even
        # on a wrong vertex, which _verify_witness rejects.
        violated = [
            k
            for k, (a, b, c) in enumerate(system.inequalities)
            if k not in active and scaled[a] + scaled[b] - scaled[c] < scale
        ]
        if not violated:
            break
        for k in violated:
            active[k] = row_of(system.inequalities[k], 1)
    _verify_witness(system, scaled, scale)
    return {p: Fraction(x, scale) for p, x in scaled.items()}


def _verify_witness(system: FeasibilitySystem, scaled: dict[Pair, int], scale: int) -> None:
    """Check every row and bound of ``system`` on the witness ``scaled / scale``
    (``scale`` positive), comparing integer numerators."""
    for a, b, c in system.equalities:
        if scaled[a] + scaled[b] - scaled[c] != 0:
            raise AssertionError("solver returned a witness violating an equality")
    for a, b, c in system.inequalities:
        if scaled[a] + scaled[b] - scaled[c] < scale:
            raise AssertionError("solver returned a witness violating an inequality")
    if any(v < LOWER_BOUND * scale for v in scaled.values()):
        raise AssertionError("solver returned a witness below the lower bound")


def solve_nonneg_feasibility(
    num_vars: int,
    equalities: Sequence[tuple[list[int], int]],
    inequalities: Sequence[tuple[list[int], int]],
) -> Optional[list[Fraction]]:
    """Find y >= 0 with A_eq y = b_eq and A_in y >= b_in, or None.

    Integer input rows; phase-1 simplex, minimizing artificial variables,
    with Dantzig's entering rule and Bland's as the anti-cycling fallback
    (module docstring).
    """
    num_slack = len(inequalities)
    slack_at = num_vars
    artif_start = num_vars + num_slack
    rhs_col = artif_start

    # Row i is a sparse map {column: integer} over its own positive
    # denominator dens[i]: tableau entry (i, j) = rows[i].get(j, 0) / dens[i].
    # Zeros are never stored; the rhs sits under rhs_col.  Every row starts
    # with a nonnegative rhs.  A basic column must be +identity, so an
    # inequality a.y - s = rhs (surplus s >= 0) with rhs <= 0 is negated,
    # giving its slack a +1 and a valid basic start; with rhs > 0 it keeps
    # the -1 slack and starts on an artificial, as every equality does.
    # Artificials are tracked through basis markers only (index
    # artif_start + row); their columns are never consulted once they
    # leave, so no row stores them.
    rows: list[dict[int, int]] = []
    basis: list[int] = []
    for si, (coeffs, rhs) in enumerate(inequalities):
        sign = -1 if rhs <= 0 else 1
        row = {j: sign * c for j, c in enumerate(coeffs) if c}
        row[slack_at + si] = -sign
        if rhs:
            row[rhs_col] = sign * rhs
        rows.append(row)
        basis.append(slack_at + si if rhs <= 0 else artif_start + si)
    for coeffs, rhs in equalities:
        sign = -1 if rhs < 0 else 1
        row = {j: sign * c for j, c in enumerate(coeffs) if c}
        if rhs:
            row[rhs_col] = sign * rhs
        basis.append(artif_start + len(rows))
        rows.append(row)
    dens = [1] * len(rows)

    # Phase-1 objective row: the sum of the artificial-basic rows, kept
    # as one more sparse row over obj_den and pivoted like the others, so
    # it stays that sum as artificials leave.  Its entry in a column is
    # minus that column's phase-1 reduced cost.
    obj: dict[int, int] = {}
    for row, b in zip(rows, basis):
        if b >= artif_start:
            for j, v in row.items():
                obj[j] = obj.get(j, 0) + v
    obj = {j: v for j, v in obj.items() if v}
    obj_den = 1

    # The basic artificials' values are nonnegative, so they are all zero
    # exactly when their sum, the objective's rhs, is.
    degenerate_run = 0
    while obj.get(rhs_col, 0):
        # Entering: among the non-artificial columns whose phase-1 reduced
        # cost is negative, the most negative (Dantzig), ties by smallest
        # index; the smallest index (Bland) after BLAND_AFTER degenerate
        # pivots in a row.  Artificials never re-enter.
        if degenerate_run < BLAND_AFTER:
            _, entering = min(((-v, j) for j, v in obj.items() if v > 0 and j < artif_start), default=(0, -1))
        else:
            entering = min((j for j, v in obj.items() if v > 0 and j < artif_start), default=-1)
        if entering < 0:
            return None  # phase-1 optimum positive: infeasible
        # Leaving (Bland): min ratio, ties by smallest basic variable.
        # The row denominators cancel in the cross-multiplied ratio test.
        # Only the rows with a nonzero entry in that column change.
        leave = -1
        hits = []
        for i, row in enumerate(rows):
            a = row.get(entering)
            if a is None:
                continue
            hits.append((i, row, a))
            if a < 0:
                continue
            if leave < 0:
                leave = i
                continue
            diff = row.get(rhs_col, 0) * rows[leave][entering] - rows[leave].get(rhs_col, 0) * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; solver bug")
        if basis[leave] == entering:
            # A basic column has reduced cost 0: the objective row is stale,
            # and pivoting again would change nothing, forever.
            raise RuntimeError("entering column is already basic; solver bug")
        prow = rows[leave]
        piv = prow[entering]
        degenerate_run = 0 if prow.get(rhs_col) else degenerate_run + 1
        for i, row, f in hits:
            if i != leave:
                dens[i] = _pivot_row(row, dens[i], f, piv, prow)
        obj_den = _pivot_row(obj, obj_den, obj[entering], piv, prow)
        # The pivot row itself becomes prow / piv.
        g = math.gcd(*prow.values())
        if g > 1:
            for j in prow:
                prow[j] //= g
        dens[leave] = piv // g
        basis[leave] = entering

    result = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            result[b] = Fraction(rows[i].get(rhs_col, 0), dens[i])
    return result


def _pivot_row(row: dict[int, int], den: int, f: int, piv: int, prow: dict[int, int]) -> int:
    """Eliminate the pivot column from ``row`` in place; return its new denominator.

    ``row`` (over ``den``) has entry ``f`` in the pivot column and the pivot
    row ``prow`` has ``piv`` there: row <- row * piv - f * prow over
    den * piv, then both are divided by their gcd.
    """
    if piv != 1:
        for j in row:
            row[j] *= piv
        den *= piv
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]
    if den > 1:
        g = math.gcd(den, *row.values())
        if g > 1:
            for j in row:
                row[j] //= g
            den //= g
    return den
