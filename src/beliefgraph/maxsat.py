"""Weighted partial MaxSAT encoding of a belief graph and an exact solver.

`encode` compiles a graph once, straight into the form `solve` reads
(`WeightedClauseSet`): variable positions in the tie-break order, unit costs
per variable and one cost table per wider clause, each rule's clauses read
off its premises and hypotheses by rule type.  The graph was validated when
it was built, so encoding checks nothing again but the pins; a clause set
built from `WeightedClause`s is validated once by its constructor.  The
`clauses` of a set are a view, rebuilt from the compiled form when read.

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
from typing import Iterable, Mapping, Sequence

from .errors import SolverLimitError
from .model import HARD, BeliefGraph, Clause, RuleType, StatementId

EPSILON = 1e-9
# The flip integers grow to one bit per variable, so the variable count
# bounds memory as well as time.
MAX_VARIABLES = 2000
# A bucket's table has 2**(MAX_WIDTH + 1) rows; at 16 that is 131072 rows,
# a few megabytes.  Under the min-degree order, synthetic graphs of up to
# 1000 statements measure width 3 and construction graphs 3 to 8.
MAX_WIDTH = 16

# A clause over variable positions: (scope, the values of the scope's
# variables that violate it, weight).
_Clause = tuple[tuple[int, ...], tuple[bool, ...], float]
# A cost table (scope, costs, flips) over variable positions: row r assigns
# scope[j] the value of bit j of r.  Where no row flips anything, as in a
# clause's table, flips is None.
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


class WeightedClauseSet:
    """A weighted MaxSAT instance in the compiled form that `solve` reads.

    Variables are numbered by their position in ``variable_order``, the
    tie-break order.  The form holds each variable's initial label, its
    unit costs [cost if false, cost if true] summed in clause order, one
    cost table per wider clause, and every clause in order as (scope, the
    values that violate it, weight), which the optimal cost is summed over.
    The constructor checks its clauses once and compiles them; `encode`
    compiles a belief graph into the same form without building clauses.
    """

    def __init__(
        self,
        clauses: Iterable[WeightedClause],
        variable_order: Sequence[StatementId],
        initial_labels: Mapping[StatementId, bool],
    ):
        position = {var: i for i, var in enumerate(variable_order)}
        compiled: list[_Clause] = []
        for clause in clauses:
            for var, _ in clause.literals:
                if var not in position:
                    raise ValueError(f"variable {var} missing from variable order")
            scope = tuple(position[var] for var, _ in clause.literals)
            compiled.append((scope, tuple(not pol for _, pol in clause.literals), clause.weight))
        for var in variable_order:
            if var not in initial_labels:
                raise ValueError(f"variable {var} has no initial label")
        labels = [bool(initial_labels[var]) for var in variable_order]
        self._compile(tuple(variable_order), labels, compiled)

    def _compile(
        self, variable_order: tuple[StatementId, ...], labels: list[bool], clauses: list[_Clause]
    ) -> None:
        units: dict[int, list[float]] = {}
        tables: list[_Table] = []
        for scope, violating, weight in clauses:
            if len(scope) == 1:
                costs = units.get(scope[0])
                if costs is None:
                    costs = units[scope[0]] = [0.0, 0.0]
                costs[violating[0]] += weight
            else:
                costs = [0.0] * (1 << len(scope))
                costs[sum(1 << j for j, bad in enumerate(violating) if bad)] = weight
                tables.append((scope, costs, None))
        self.variable_order = variable_order
        self._labels = labels
        self._clauses = clauses
        self._units = units
        self._tables = tables

    @property
    def initial_labels(self) -> dict[StatementId, bool]:
        """Each variable's initial label, rebuilt on each read."""
        return dict(zip(self.variable_order, self._labels))

    @property
    def clauses(self) -> tuple[WeightedClause, ...]:
        """The clauses in order, rebuilt from the compiled form on each read."""
        order = self.variable_order
        return tuple(
            WeightedClause(tuple((order[v], not bad) for v, bad in zip(scope, violating)), weight)
            for scope, violating, weight in self._clauses
        )


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
    """Compile the MPE objective over a belief graph into weighted MaxSAT.

    One soft unit clause per statement asserts its initial label at weight
    equal to its confidence; each rule contributes its clause(s) at the
    rule's confidence, read off its premises and hypotheses by rule type.
    Zero-confidence statements and rules add no clause.  Pins become hard
    unit clauses.  `BeliefGraph` and `RuleNode` have checked everything
    else already, so only the pins are checked here.
    """
    statements = graph.statements
    # The order decides ties: hypotheses first, then descending confidence.
    hypotheses = set(graph.hypotheses)
    rest = sorted(
        (sid for sid in statements if sid not in hypotheses),
        key=lambda sid: (-statements[sid].confidence, sid),
    )
    order = tuple(graph.hypotheses) + tuple(rest)
    position = {sid: i for i, sid in enumerate(order)}

    clauses: list[_Clause] = []
    for sid, node in statements.items():
        if node.confidence > 0.0:
            clauses.append(((position[sid],), (not node.label,), node.confidence))
    for rule in graph.rules:
        weight = rule.confidence
        if weight <= 0.0:
            continue
        kind = rule.rule_type
        if kind is RuleType.XOR_PAIR or kind is RuleType.MC_PAIRWISE:
            a, b = rule.hypothesis_ids
            scope = (position[a], position[b])
            if kind is RuleType.XOR_PAIR:
                clauses.append((scope, (False, False), weight))  # a or b
            clauses.append((scope, (True, True), weight))  # not a or not b
        else:
            # Entailment and MC_HARD: violated when every premise is true
            # and every hypothesis false.
            premises, conclusions = rule.premise_ids, rule.hypothesis_ids
            scope = tuple(position[sid] for sid in premises + conclusions)
            clauses.append((scope, (True,) * len(premises) + (False,) * len(conclusions), weight))
    if pins:
        for sid, value in pins.items():
            if sid not in position:
                raise ValueError(f"variable {sid} missing from variable order")
            clauses.append(((position[sid],), (not value,), HARD))

    cs = WeightedClauseSet.__new__(WeightedClauseSet)
    cs._compile(order, [statements[sid].label for sid in order], clauses)
    return cs


def _min_degree_order(neighbours: dict[int, set[int]]) -> list[int]:
    """Greedy min-degree elimination order of the interaction graph.

    Repeatedly eliminates the variable with the fewest neighbours, ties
    going to the smaller position, and joins those neighbours into a
    clique.  Consumes ``neighbours``.  Raises SolverLimitError once a
    variable would be eliminated with more than MAX_WIDTH neighbours.
    """
    # The heap holds an entry (degree, v) for each variable's current
    # degree; an entry whose degree is out of date is skipped.
    heap = [(len(around), v) for v, around in neighbours.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        around = neighbours.get(v)
        if around is None or len(around) != degree:
            continue  # stale entry: v was eliminated or its degree changed
        del neighbours[v]
        if degree > MAX_WIDTH:
            raise SolverLimitError(f"elimination width {degree} exceeds the limit of {MAX_WIDTH}")
        order.append(v)
        for a in around:
            near = neighbours[a]
            before = len(near)
            near |= around
            near.discard(a)
            near.discard(v)
            if len(near) != before:
                heapq.heappush(heap, (len(near), a))
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


# (bit positions of a table's scope, width) -> _projection of them, kept
# across calls for widths up to 6: at most 2371 keys of at most 64 rows.
# Each entry is a pure function of its key and is never written to, so
# sharing them changes no result.
_SHARED_WIDTH = 6
_shared_projections: dict[tuple[tuple[int, ...], int], list[int]] = {}


def solve(cs: WeightedClauseSet) -> SolveResult:
    """Exact minimum-cost assignment over all variables; deterministic."""
    n = len(cs.variable_order)
    if n > MAX_VARIABLES:
        raise SolverLimitError(f"{n} variables exceeds the limit of {MAX_VARIABLES}")
    value = list(cs._labels)
    unit = cs._units
    neighbours: dict[int, set[int]] = {v: set() for v in unit}
    for scope, _, _ in cs._tables:
        for v in scope:
            around = neighbours.get(v)
            if around is None:
                around = neighbours[v] = set()
            around.update(scope)
    for v, around in neighbours.items():
        around.discard(v)

    # Variables in no clause are absent here and keep their initial labels,
    # which is optimal and flip-minimal.
    order = _min_degree_order(neighbours)
    rank = {v: r for r, v in enumerate(order)}
    buckets: list[list[_Table]] = [[] for _ in order]
    for table in cs._tables:
        buckets[min(map(rank.__getitem__, table[0]))].append(table)

    # _shared_projections for the wider tables, kept for this call only
    projections: dict[tuple[tuple[int, ...], int], list[int]] = {}
    # (variable, remaining scope, whether to flip it for each scope row),
    # for the variables that some row flips
    eliminated: list[tuple[int, tuple[int, ...], list[bool]]] = []
    nodes = 0
    width = 0
    for x, bucket in zip(order, buckets):
        others = {v for t in bucket for v in t[0]}
        others.discard(x)
        scope = tuple(sorted(others, key=rank.__getitem__))
        k = len(scope)
        bit = {v: j for j, v in enumerate(scope, 1)}
        bit[x] = 0
        size = 2 << k
        nodes += size
        width = max(width, k)
        cache = _shared_projections if k < _SHARED_WIDTH else projections
        # Rows alternate x false, x true.  encode puts a statement's soft
        # unit clause before its rule clauses and its pin, which adds 0 or
        # infinity, after them; so starting from the unit costs gives the
        # same sums as one table per unit clause would.
        costs = unit.get(x, [0.0, 0.0]) * (size >> 1)
        flips = None  # all 0 until a table with flips is added
        for t_scope, t_costs, t_flips in bucket:
            key = (tuple(map(bit.__getitem__, t_scope)), k + 1)
            rows = cache.get(key)
            if rows is None:
                rows = cache[key] = _projection(*key)
            costs = [c + t_costs[r] for c, r in zip(costs, rows)]
            if t_flips is not None:
                if flips is None:
                    flips = [t_flips[r] for r in rows]
                else:
                    flips = [f + t_flips[r] for f, r in zip(flips, rows)]

        # For each row of the scope, keep x's initial value unless flipping
        # it costs less, or costs the same and gives a smaller flip pattern.
        keep = int(value[x])  # bit 0 of a row is x's value
        x_flip = 1 << (n - 1 - x)
        kept_costs, flip_costs = costs[keep::2], costs[1 - keep::2]
        if flips is None:
            # Flipping x always gives the larger pattern.
            kept_flips = None
            flip_x = [fc < kc - EPSILON for fc, kc in zip(flip_costs, kept_costs)]
        else:
            kept_flips = flips[keep::2]
            flip_flips = [f + x_flip for f in flips[1 - keep::2]]
            flip_x = [
                fc < kc - EPSILON or (fc <= kc + EPSILON and ff < kf)
                for fc, kc, ff, kf in zip(flip_costs, kept_costs, flip_flips, kept_flips)
            ]
        best_costs, best_flips = kept_costs, kept_flips
        if True in flip_x:
            eliminated.append((x, scope, flip_x))
            best_costs = [fc if b else kc for b, fc, kc in zip(flip_x, flip_costs, kept_costs)]
            if flips is None:
                best_flips = [x_flip if b else 0 for b in flip_x]
            else:
                best_flips = [ff if b else kf for b, ff, kf in zip(flip_x, flip_flips, kept_flips)]
        # A table over no variables is a constant and changes no choice.
        if scope:
            buckets[rank[scope[0]]].append((scope, best_costs, best_flips))

    for x, scope, flip_x in reversed(eliminated):
        row = 0
        for v in reversed(scope):
            row = row << 1 | value[v]
        if flip_x[row]:
            value[x] = not value[x]

    # Adding 0.0 for a satisfied clause would change no sum, so only the
    # violated clauses are added, in clause order.
    cost = 0.0
    get = value.__getitem__
    for scope, violating, weight in cs._clauses:
        if tuple(map(get, scope)) == violating:
            cost += weight
    assignment = dict(zip(cs.variable_order, value))
    if math.isinf(cost):
        return SolveResult({}, math.inf, SolveStatus.INFEASIBLE, nodes, width)
    return SolveResult(assignment, cost, SolveStatus.OPTIMAL, nodes, width)
