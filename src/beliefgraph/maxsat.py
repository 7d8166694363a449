"""Weighted partial MaxSAT encoding of a belief graph and an exact solver.

The solver is bucket elimination (Dechter, "Bucket elimination: a unifying
framework for reasoning", AIJ 1999) over a greedy min-degree variable order.
Unit clauses add up to one pair of costs per variable, [cost if false, cost
if true]; each wider clause becomes a cost table over its variables.  A
violated hard clause costs infinity.  Eliminating a variable starts from its
unit costs, adds the tables that mention it and minimizes it out, which
leaves one table over its remaining neighbours; walking the eliminated
variables back in reverse order then recovers the optimal assignment.  Time
and memory grow as 2**width, where the width is the number of neighbours a
variable has when it is eliminated.  Belief graphs are nearly trees, so the
width stays small; an instance whose width exceeds MAX_WIDTH raises
SolverLimitError instead of being approximated.  The exhaustive reference
the tests compare against lives in tests/reference_solver.py.

Tie-breaking among equal-cost optima is deterministic: the flip pattern
(flipped = 1, kept = 0, read along the variable order) is minimized
lexicographically, so earlier variables prefer keeping their initial
label.  Tables hold (cost, flips) pairs, where flips is an integer with bit
n-1-pos set for each flipped variable at position pos, so comparing the
integers compares the patterns.  Both parts add up over disjoint sets of
variables, which keeps elimination exact.  Cost comparisons use absolute
epsilon 1e-9.  The reported cost is summed over the clauses in their order
from the final assignment, so it does not depend on the elimination order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import SolverLimitError
from .model import HARD, BeliefGraph, Clause, StatementId

EPSILON = 1e-9
# The flip integers grow to one bit per variable, so the variable count
# bounds memory as well as time.
MAX_VARIABLES = 2000
# A bucket's table has 2**(MAX_WIDTH + 1) rows; at 16 that is 131072 rows,
# a few megabytes.  Under the min-degree order, synthetic graphs of up to
# 1000 statements measure width 3 and construction graphs 3 to 8.
MAX_WIDTH = 16

# A cost table (scope, costs, flips) over variable positions: row r assigns
# scope[j] the value of bit j of r.  A clause's table flips nothing, so its
# flips are None.
_Table = tuple[tuple[int, ...], list[float], list[int] | None]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class WeightedClause:
    literals: Clause
    weight: float  # HARD for hard clauses, else positive

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("empty clause")
        variables = [var for var, _ in self.literals]
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in clause {self.literals!r}")
        if self.weight != HARD and not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"clause weight must be positive or HARD, got {self.weight!r}")

    @property
    def is_hard(self) -> bool:
        return self.weight == HARD


@dataclass(frozen=True)
class WeightedClauseSet:
    clauses: tuple[WeightedClause, ...]
    variable_order: tuple[StatementId, ...]
    initial_labels: Mapping[StatementId, bool]

    def __post_init__(self) -> None:
        in_order = set(self.variable_order)
        for clause in self.clauses:
            for var, _ in clause.literals:
                if var not in in_order:
                    raise ValueError(f"variable {var} missing from variable order")
        for var in self.variable_order:
            if var not in self.initial_labels:
                raise ValueError(f"variable {var} has no initial label")


@dataclass(frozen=True)
class SolveResult:
    """Optimal assignment and its cost.

    ``nodes_explored`` counts the table rows evaluated while eliminating
    variables; ``width`` is the largest number of neighbours a variable had
    when it was eliminated.
    """

    assignment: dict[StatementId, bool]
    optimal_cost: float
    status: SolveStatus
    nodes_explored: int = 0
    width: int = 0


def encode(graph: BeliefGraph, pins: Mapping[StatementId, bool] | None = None) -> WeightedClauseSet:
    """Translate the MPE objective over a belief graph into weighted MaxSAT.

    One soft unit clause per statement asserts its initial label at weight
    equal to its confidence; each rule contributes its clause(s) at the
    rule's confidence.  Zero-confidence statements and rules add no clause.
    Pins become hard unit clauses.
    """
    clauses: list[WeightedClause] = []
    for sid, node in graph.statements.items():
        if node.confidence > 0.0:
            clauses.append(WeightedClause(((sid, node.label),), node.confidence))
    for rule in graph.rules:
        if rule.confidence > 0.0:
            for clause in rule.clauses():
                clauses.append(WeightedClause(clause, rule.confidence))
    if pins:
        for sid, value in pins.items():
            clauses.append(WeightedClause(((sid, bool(value)),), HARD))

    # The order decides ties: hypotheses first, then descending confidence.
    rest = sorted(
        (sid for sid in graph.statements if sid not in graph.hypotheses),
        key=lambda sid: (-graph.statements[sid].confidence, sid),
    )
    order = tuple(graph.hypotheses) + tuple(rest)
    return WeightedClauseSet(tuple(clauses), order, graph.initial_assignment())


def _min_degree_order(neighbours: dict[int, set[int]]) -> list[int]:
    """Greedy min-degree elimination order of the interaction graph.

    Repeatedly eliminates the variable with the fewest neighbours, ties
    going to the smaller position, and joins those neighbours into a
    clique.  Consumes ``neighbours``.  Raises SolverLimitError once a
    variable would be eliminated with more than MAX_WIDTH neighbours.
    """
    heap = [(len(around), v) for v, around in neighbours.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in neighbours or len(neighbours[v]) != degree:
            continue  # stale entry: v was eliminated or its degree changed
        around = neighbours.pop(v)
        if len(around) > MAX_WIDTH:
            raise SolverLimitError(
                f"elimination width {len(around)} exceeds the limit of {MAX_WIDTH}"
            )
        order.append(v)
        for a in around:
            neighbours[a].discard(v)
            neighbours[a].update(b for b in around if b != a)
            heapq.heappush(heap, (len(neighbours[a]), a))
    return order


def _projection(bits: Sequence[int], width: int) -> list[int]:
    """Row of a narrower table for each row of a ``width``-bit table.

    Bit j of the narrower table's row number is bit ``bits[j]`` of the
    wider table's row number.
    """
    step = {b: 1 << j for j, b in enumerate(bits)}
    rows = [0]
    for b in range(width):
        s = step.get(b, 0)
        rows += [r + s for r in rows]
    return rows


def solve(cs: WeightedClauseSet) -> SolveResult:
    """Exact minimum-cost assignment over all variables; deterministic."""
    n = len(cs.variable_order)
    if n > MAX_VARIABLES:
        raise SolverLimitError(f"{n} variables exceeds the limit of {MAX_VARIABLES}")
    position = {var: i for i, var in enumerate(cs.variable_order)}
    value = [bool(cs.initial_labels[var]) for var in cs.variable_order]

    # unit[v] = [cost if v is false, cost if v is true], summed in clause
    # order over v's unit clauses.
    unit: dict[int, list[float]] = {}
    tables: list[_Table] = []
    neighbours: dict[int, set[int]] = {}
    for clause in cs.clauses:
        if len(clause.literals) == 1:
            ((var, pol),) = clause.literals
            v = position[var]
            if v not in unit:
                unit[v] = [0.0, 0.0]
                neighbours.setdefault(v, set())
            unit[v][not pol] += clause.weight
            continue
        scope = tuple(position[var] for var, _ in clause.literals)
        costs = [0.0] * (1 << len(scope))
        violated = sum(1 << j for j, (_, pol) in enumerate(clause.literals) if not pol)
        costs[violated] = clause.weight
        tables.append((scope, costs, None))
        for v in scope:
            neighbours.setdefault(v, set()).update(u for u in scope if u != v)

    # Variables in no clause are absent here and keep their initial labels,
    # which is optimal and flip-minimal.
    order = _min_degree_order(neighbours)
    rank = {v: r for r, v in enumerate(order)}
    buckets: list[list[_Table]] = [[] for _ in order]
    for table in tables:
        buckets[min(rank[v] for v in table[0])].append(table)

    # (bit positions of a table's scope, width) -> _projection of them
    projections: dict[tuple[tuple[int, ...], int], list[int]] = {}
    # (variable, remaining scope, whether to flip it for each scope row)
    eliminated: list[tuple[int, tuple[int, ...], list[bool]]] = []
    nodes = 0
    width = 0
    for x, bucket in zip(order, buckets):
        others = {v for t in bucket for v in t[0] if v != x}
        scope = tuple(sorted(others, key=rank.__getitem__))
        bit = {v: j + 1 for j, v in enumerate(scope)}
        bit[x] = 0
        size = 2 << len(scope)
        nodes += size
        width = max(width, len(scope))
        # Rows alternate x false, x true.  encode puts a statement's soft
        # unit clause before its rule clauses and its pin, which adds 0 or
        # infinity, after them; so starting from the unit costs gives the
        # same sums as one table per unit clause would.
        costs = unit.get(x, [0.0, 0.0]) * (size >> 1)
        flips = [0] * size
        for t_scope, t_costs, t_flips in bucket:
            key = (tuple(bit[v] for v in t_scope), len(scope) + 1)
            rows = projections.get(key)
            if rows is None:
                rows = projections[key] = _projection(*key)
            costs = [c + t_costs[r] for c, r in zip(costs, rows)]
            if t_flips is not None:
                flips = [f + t_flips[r] for f, r in zip(flips, rows)]

        keep = int(value[x])  # bit 0 of a row is x's value
        x_flip = 1 << (n - 1 - x)
        best_costs: list[float] = []
        best_flips: list[int] = []
        flip_x: list[bool] = []
        for r in range(0, size, 2):
            kept_cost, kept_flips = costs[r + keep], flips[r + keep]
            flip_cost, flip_flips = costs[r + 1 - keep], flips[r + 1 - keep] + x_flip
            better = flip_cost < kept_cost - EPSILON or (
                flip_cost <= kept_cost + EPSILON and flip_flips < kept_flips
            )
            best_costs.append(flip_cost if better else kept_cost)
            best_flips.append(flip_flips if better else kept_flips)
            flip_x.append(better)
        eliminated.append((x, scope, flip_x))
        # A table over no variables is a constant and changes no choice.
        if scope:
            buckets[rank[scope[0]]].append((scope, best_costs, best_flips))

    for x, scope, flip_x in reversed(eliminated):
        row = sum(1 << j for j, v in enumerate(scope) if value[v])
        if flip_x[row]:
            value[x] = not value[x]

    assignment = dict(zip(cs.variable_order, value))
    cost = 0.0
    for clause in cs.clauses:
        if not any(assignment[var] == pol for var, pol in clause.literals):
            cost += clause.weight
    if math.isinf(cost):
        return SolveResult({}, math.inf, SolveStatus.INFEASIBLE, nodes, width)
    return SolveResult(assignment, cost, SolveStatus.OPTIMAL, nodes, width)
