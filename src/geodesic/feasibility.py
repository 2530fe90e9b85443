"""Exact rational feasibility for betweenness distance systems.

A total middle assignment on a hypergraph turns into one linear system
over pair variables: an equality ``d(u,v) + d(v,w) - d(u,w) = 0`` per
hyperedge (its tight triangle), a strict triangle ``>= 1`` three ways per
non-hyperedge triple, and ``>= 1`` on every variable.  The strict system
is positively homogeneous, so strict feasibility is equivalent to
feasibility with unit slacks: any strict solution scales to one.

Solved by a phase-1 simplex with Bland's rule (deterministic, cycle
free), run on an integer tableau with fraction-free pivoting: after a
pivot every entry is divided exactly by the previous pivot, so entries
stay integers and never touch gcd-heavy Fraction arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hypergraphs import Hypergraph3, Pair, Triple, sorted_pair

Constraint = tuple[Pair, Pair, Pair]  # var_a + var_b - var_c  (= 0 or >= 1)


@dataclass(frozen=True)
class FeasibilitySystem:
    """Distance constraints for one total orientation of a hypergraph.

    ``equalities``: a + b - c = 0; ``inequalities``: a + b - c >= 1;
    every variable is bounded below by ``lower_bound``.
    """

    n: int
    variables: tuple[Pair, ...]
    equalities: tuple[Constraint, ...]
    inequalities: tuple[Constraint, ...]
    lower_bound: int = 1


def triangle_constraints(triple: Triple, middle: int) -> Constraint:
    """The tight-triangle constraint of a hyperedge with the given middle."""
    ends = [v for v in triple if v != middle]
    a, b = ends
    return (sorted_pair(a, middle), sorted_pair(middle, b), sorted_pair(a, b))


def strictness_constraints(triple: Triple) -> list[Constraint]:
    """The three strict triangle rows ruling every middle out of a triple."""
    u, v, w = triple
    rows = []
    for mid in (u, v, w):
        ends = [x for x in triple if x != mid]
        rows.append((sorted_pair(ends[0], mid), sorted_pair(mid, ends[1]), sorted_pair(ends[0], ends[1])))
    return rows


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

    Deterministic: Bland's smallest-index rule everywhere.  The witness
    is verified against every constraint before being returned.
    """
    var_index = {p: i for i, p in enumerate(system.variables)}
    nv = len(system.variables)
    lb = system.lower_bound

    def row_of(c: Constraint, shift_rhs: int) -> tuple[list[int], int]:
        # substitute x = lb + y:  a + b - c (cmp) r  ->  y_a+y_b-y_c (cmp) r - lb
        coeffs = [0] * nv
        a, b, neg = c
        coeffs[var_index[a]] += 1
        coeffs[var_index[b]] += 1
        coeffs[var_index[neg]] -= 1
        return coeffs, shift_rhs - lb

    eq_rows = [row_of(c, 0) for c in system.equalities]
    ineq_rows = [row_of(c, 1) for c in system.inequalities]
    y = solve_nonneg_feasibility(nv, eq_rows, ineq_rows)
    if y is None:
        return None
    witness = {p: lb + y[i] for p, i in var_index.items()}
    _verify_witness(system, witness)
    return witness


def _verify_witness(system: FeasibilitySystem, witness: dict[Pair, Fraction]) -> None:
    for a, b, c in system.equalities:
        if witness[a] + witness[b] - witness[c] != 0:
            raise AssertionError("solver returned a witness violating an equality")
    for a, b, c in system.inequalities:
        if witness[a] + witness[b] - witness[c] < 1:
            raise AssertionError("solver returned a witness violating an inequality")
    if any(v < system.lower_bound for v in witness.values()):
        raise AssertionError("solver returned a witness below the lower bound")


def solve_nonneg_feasibility(
    num_vars: int,
    equalities: Sequence[tuple[list[int], int]],
    inequalities: Sequence[tuple[list[int], int]],
) -> Optional[list[Fraction]]:
    """Find y >= 0 with A_eq y = b_eq and A_in y >= b_in, or None.

    Integer input rows; phase-1 simplex, minimizing artificial variables.
    """
    num_slack = len(inequalities)
    slack_at = num_vars
    artif_start = num_vars + num_slack

    # Normalize rows to nonnegative rhs.  A basic column must be +identity,
    # so inequalities with rhs <= 0 are negated to give their slack a +1
    # coefficient and a valid basic start; rhs > 0 keeps the -1 slack and
    # starts on an artificial.  tag > 0 / < 0: slack sign (index
    # abs(tag)-1); tag 0: equality (always artificial).
    specs: list[tuple[list[int], int, int]] = []
    for si, (coeffs, rhs) in enumerate(inequalities):
        if rhs <= 0:
            specs.append(([-x for x in coeffs], -rhs, si + 1))
        else:
            specs.append((list(coeffs), rhs, -(si + 1)))
    for coeffs, rhs in equalities:
        row = list(coeffs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        specs.append((row, rhs, 0))

    # Artificials are tracked through basis markers only (index
    # artif_start + row); their columns are never consulted once they
    # leave, so the tableau does not store them.
    width = artif_start + 1
    rhs_col = width - 1
    rows: list[list[int]] = []
    basis: list[int] = []
    for ri, (coeffs, rhs, tag) in enumerate(specs):
        full = [0] * width
        full[:num_vars] = coeffs
        if tag != 0:
            full[slack_at + abs(tag) - 1] = 1 if tag > 0 else -1
        if tag > 0:
            basis.append(slack_at + tag - 1)
        else:
            basis.append(artif_start + ri)
        full[rhs_col] = rhs
        rows.append(full)

    den = 1  # previous pivot; real tableau value = rows[i][j] / den
    while True:
        art_rows = [i for i, b in enumerate(basis) if b >= artif_start]
        if all(rows[i][rhs_col] == 0 for i in art_rows):
            break
        # Entering (Bland): smallest non-artificial column whose phase-1
        # reduced cost is negative, i.e. column sum over artificial basic
        # rows is positive.  Artificials never re-enter.
        entering = -1
        for j in range(artif_start):
            if sum(rows[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering < 0:
            return None  # phase-1 optimum positive: infeasible
        # Leaving (Bland): min ratio, ties by smallest basic variable.
        leave = -1
        for i in range(len(rows)):
            a = rows[i][entering]
            if a <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            diff = rows[i][rhs_col] * rows[leave][entering] - rows[leave][rhs_col] * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; solver bug")
        piv = rows[leave][entering]
        prow = rows[leave]
        for i, row in enumerate(rows):
            if i == leave:
                continue
            f = row[entering]
            for j in range(width):
                q, r = divmod(row[j] * piv - f * prow[j], den)
                if r:
                    raise RuntimeError("fraction-free pivot lost exactness; solver bug")
                row[j] = q
        den = piv
        basis[leave] = entering

    result = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            result[b] = Fraction(rows[i][rhs_col], den)
    return result
