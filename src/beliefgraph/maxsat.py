"""Weighted partial MaxSAT encoding of a belief graph and an exact solver.

`encode` compiles a graph into the record `solve` reads,
`WeightedClauseSet`: the variables in the tie-break order
(`variable_order`), their initial labels (`labels`), the settled values
(`settled`), the other statements' unit costs (`units`) and the rule
tables conditioned on the settled statements (`tables`), plus the `graph`
and `pins` they were compiled from.  Its `clauses` property expands those
two into every clause in order with the id of the rule it encodes, a
zero-confidence rule's at weight 0, on each read.  No package code reads
`clauses`, `graph` or `pins`: they are kept for the tests and for the
benchmark's clause count.  The graph was validated when it was built, so
encoding checks nothing again but the pins.

A statement is settled when one value is cheaper by more than EPSILON
whatever its neighbours take: a soft statement whose confidence exceeds its
reach by more than EPSILON keeps its label, and a pinned statement takes
its pin.  Its reach is the summed weights of the rules its label can
violate, those where the label lies on the violating side: a premise's true
or a conclusion's false in an entailment or MC_HARD rule, either value in
an XOR pair, true in a pairwise MC rule.  Flipping the statement costs its
confidence and can lower the cost of those rules only, by at most their
weights, since a rule its label satisfies can only become violated by the
flip.  So a HARD rule its label can violate makes its reach infinite, and
only a pin settles it, while a HARD rule its label satisfies adds nothing.
This is dead-end elimination for weighted CSP (de Givry, Prestwich and
O'Sullivan, CP 2013), a sign-aware form of node consistency (Larrosa and
Schiex, AIJ 2004) and of label hardening in MaxSAT preprocessing (Korhonen
et al., SAT 2017).  Every optimum, and every near-tie the solver weighs,
gives a settled statement that value (every feasible assignment gives a
pinned statement its pin), so `encode` builds each rule's table
conditioned on it as it goes: a rule that a settled value satisfies gets
no table, the settled statements leave the others' scopes, and a pair left
with one side becomes a unit cost on it.  Settled statements are then in
no table and have no unit costs, and `solve` copies their values.  Pins
that no assignment satisfies are still found, by `reason`'s scoring.

The solver is bucket elimination (Dechter, "Bucket elimination: a unifying
framework for reasoning", AIJ 1999), which eliminates each variable as a
greedy min-degree order picks it: fewest neighbours first, ties to the
smaller position, read off one bit set of variables per degree (one bucket
per degree, as in Amestoy, Davis and Duff, SIAM J. Matrix Anal. Appl. 1996).
Unit clauses add up to one pair of costs per variable, [cost if false, cost
if true]; wider clauses become cost tables.  A violated hard clause costs
infinity.  A settled variable keeps `encode`'s value, and one with unit
costs but in no table is decided first by one comparison; so is the last
variable of each connected component, eliminated with no neighbours, from
its unit costs plus the tables left over it alone, under the tie-break
below, since no later choice reads it.  Eliminating a variable starts from
its unit costs, adds the tables that mention it and are not yet used (input
tables in clause order, then the tables made by earlier eliminations) and
minimizes it out, which leaves one table over its neighbours, sorted by
position; the neighbours are joined into a clique.  A variable with one,
two or three neighbours has only tables over itself and those neighbours
left, so its 4, 8 or 16 rows are summed directly, in the same order.  The
direct steps at degrees 0 to 2 take about 92% of the eliminations on
acceptance graphs and the degree-3 step the other 8% (synthetic graphs have
width at most 3); on shared-premise construction graphs with three premises
per fact, degree 3 takes 15% and degrees 4 and up 7%.  Walking the other
eliminated variables back in reverse order then recovers the optimal
assignment.  Time and memory grow as 2**width, where the width is the
number of neighbours a variable has when it is eliminated.  Belief graphs
are nearly trees, so the width stays small; an instance whose width exceeds
MAX_WIDTH raises SolverLimitError instead of being approximated; `reason`
raises it too for an optimum that scores infinite because the soft weights
overflow (no proof of infeasibility).
The exhaustive reference and the clause-by-clause scorer the tests compare
against live in tests/reference_solver.py.

Tie-breaking among equal-cost optima is deterministic: the flip pattern
(flipped = 1, kept = 0, read along the variable order) is minimized
lexicographically, so earlier variables prefer keeping their initial
label.  Tables hold (cost, flips) pairs, where flips is an integer with bit
n-1-pos set for each flipped variable at position pos, so comparing the
integers compares the patterns.  Both parts add up over disjoint sets of
variables, which keeps elimination exact.  Cost comparisons use absolute
epsilon 1e-9.  `solve` returns the assignment and its search counters,
not a cost: `reason` scores the assignment off the graph (`scan_rules`),
so the reported cost does not depend on the elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import add, itemgetter
from typing import Mapping

from .errors import SolverLimitError
from .model import HARD, BeliefGraph, RuleType, StatementId

EPSILON = 1e-9
# The flip integers grow to one bit per variable, so the variable count
# bounds memory as well as time.
MAX_VARIABLES = 2000
# A bucket's table has 2**(MAX_WIDTH + 1) rows; at 16 that is 131072 rows,
# a few megabytes.  Under the min-degree order, synthetic graphs of up to
# 1000 statements measure width 3 and the tests' shared-premise construction
# graphs 3 to 5; with three or four premises per fact over 400 facts, 60
# such graphs measure 3 to 12, and none exceeds the limit.
MAX_WIDTH = 16

# A clause over variable positions: (scope, the values of the scope's
# variables that violate it, weight, the id of the rule it encodes or None).
_Clause = tuple[tuple[int, ...], tuple[bool, ...], float, str | None]
# A cost table (scope, costs, flips) over variable positions: row r assigns
# scope[j] the value of bit j of r.  Where no row flips anything, as in a
# clause's table, flips is None.
_Table = tuple[tuple[int, ...], list[float], list[int] | None]


@dataclass(frozen=True)
class WeightedClauseSet:
    """A weighted MaxSAT instance in the compiled form that `solve` reads,
    as `encode` builds it.

    Variables are numbered by their position in ``variable_order``, the
    tie-break order; ``labels`` holds their initial labels by position.
    ``settled`` maps each settled statement, pinned or not, to its value,
    and ``units`` another's position to its unit costs [cost if false, cost
    if true], summed in clause order; ``tables`` holds the cost tables of
    the wider rules conditioned on the settled statements, in clause order,
    where a rule left with one statement adds to ``units`` and one that a
    settled value satisfies or that has weight 0 adds nothing.  ``graph``
    and ``pins`` are what it was compiled from, and ``clauses`` expands
    them; no package code reads these three, which are kept for the tests
    and for the benchmark's clause count.
    """

    variable_order: tuple[StatementId, ...]
    labels: list[bool]
    settled: dict[StatementId, bool]
    units: dict[int, list[float]]
    tables: list[_Table]
    graph: BeliefGraph
    pins: dict[StatementId, bool]

    @property
    def clauses(self) -> list[_Clause]:
        """Every clause in full and in order, as (scope, the values that
        violate it, weight, the id of the rule it encodes or None): one soft
        unit per statement of positive confidence in statement order, each
        rule's in rule order, a zero-confidence rule's at weight 0 (two for
        an XOR pair, "a or b" first), then one HARD unit per pin.  Each read
        builds a new list."""
        position = {sid: i for i, sid in enumerate(self.variable_order)}
        clauses: list[_Clause] = [
            ((position[sid],), (not node.label,), node.confidence, None)
            for sid, node in self.graph.statements.items() if node.confidence > 0.0
        ]
        xor_pair, mc_pairwise = RuleType.XOR_PAIR, RuleType.MC_PAIRWISE
        for rule in self.graph.rules:
            weight = rule.confidence
            kind = rule.rule_type
            if kind is xor_pair or kind is mc_pairwise:
                a, b = rule.hypothesis_ids
                scope = (position[a], position[b])
                if kind is xor_pair:
                    clauses.append((scope, (False, False), weight, rule.id))  # a or b
                clauses.append((scope, (True, True), weight, rule.id))  # not a or not b
            else:
                # Entailment and MC_HARD: violated when every premise is
                # true and every hypothesis false.
                premises, conclusions = rule.premise_ids, rule.hypothesis_ids
                scope = tuple(map(position.__getitem__, premises + conclusions))
                violating = (True,) * len(premises) + (False,) * len(conclusions)
                clauses.append((scope, violating, weight, rule.id))
        clauses += [((position[sid],), (not value,), HARD, None) for sid, value in self.pins.items()]
        return clauses


def _add_table(
    units: dict[int, list[float]], tables: list[_Table],
    scope: tuple[int, ...], rows: tuple[int, ...], weight: float,
) -> None:
    """Add ``weight`` at the violated ``rows`` of a table over ``scope``;
    a one-variable table adds to that variable's unit costs instead, and a
    zero weight adds nothing."""
    if not weight:
        return
    if len(scope) == 1:
        costs = units.get(scope[0])
        if costs is None:
            costs = units[scope[0]] = [0.0, 0.0]
        costs[rows[0]] += weight
    else:
        costs = [0.0] * (1 << len(scope))
        for row in rows:
            costs[row] = weight
        tables.append((scope, costs, None))


@dataclass(frozen=True)
class SolveResult:
    """An optimal assignment and the search that found it; `reason` scores
    the assignment, so neither its cost nor the rules it violates are here.

    ``decided`` counts the variables decided before elimination, the
    settled ones and those with unit costs in no table, and
    ``eliminated_by_degree[k]`` those eliminated with k neighbours, up to
    ``width``, the largest such k (empty, and ``width`` 0, when none is
    eliminated).  ``nodes_explored`` counts the table rows evaluated: 2 for
    each variable decided and 2**(k + 1) for each variable eliminated with
    k neighbours.
    """

    assignment: dict[StatementId, bool]
    nodes_explored: int
    width: int
    decided: int
    eliminated_by_degree: tuple[int, ...]


def encode(graph: BeliefGraph, pins: Mapping[StatementId, bool] | None = None) -> WeightedClauseSet:
    """Compile the MPE objective over a belief graph into weighted MaxSAT.

    One soft unit per statement asserts its initial label at a cost equal
    to its confidence; each rule adds its table at the rule's confidence,
    read off its premises and hypotheses by rule type.  A zero-confidence
    statement or rule adds nothing.  A pinned statement is settled to its
    pin, and a soft one to its label when its confidence exceeds by more
    than EPSILON the summed weights of the rules its label can violate;
    settled statements get no unit costs, and each rule's table is built
    conditioned on them (see the module docstring).  Only what `solve`
    eliminates is built: the clause list is derived from the stored graph
    and pins when ``clauses`` is read, which only the tests and the
    benchmark's clause count do.  `BeliefGraph` and `RuleNode` have checked
    everything else already, so only the pins are checked here.
    """
    statements = graph.statements
    # The order decides ties: hypotheses first, then descending confidence,
    # then ascending id (the sort is stable).
    hypotheses = set(graph.hypotheses)
    rest = sorted([sid for sid in statements if sid not in hypotheses])
    rest.sort(key=lambda sid: -statements[sid].confidence)
    order = tuple(graph.hypotheses) + tuple(rest)
    position = {sid: i for i, sid in enumerate(order)}

    rules = graph.rules
    xor_pair, mc_pairwise = RuleType.XOR_PAIR, RuleType.MC_PAIRWISE
    # What flipping a statement off its label can gain: the summed weights
    # of the rules its label can violate, infinite if one of them is HARD.
    reach = dict.fromkeys(statements, 0.0)
    for rule in rules:
        weight = rule.confidence
        kind = rule.rule_type
        if kind is xor_pair:
            for sid in rule.hypothesis_ids:
                reach[sid] += weight
        elif kind is mc_pairwise:
            for sid in rule.hypothesis_ids:
                if statements[sid].label:
                    reach[sid] += weight
        else:
            for sid in rule.premise_ids:
                if statements[sid].label:
                    reach[sid] += weight
            for sid in rule.hypothesis_ids:
                if not statements[sid].label:
                    reach[sid] += weight
    # settled statement -> the value every optimum gives it
    settled: dict[StatementId, bool] = {}

    units: dict[int, list[float]] = {}
    tables: list[_Table] = []
    for sid, node in statements.items():
        weight = node.confidence
        if weight > 0.0:
            if weight > reach[sid] + EPSILON:
                settled[sid] = node.label
            else:  # the first unit on its variable: [cost if false, cost if true]
                units[position[sid]] = [weight, 0.0] if node.label else [0.0, weight]
    if pins:
        for sid, value in pins.items():
            if sid not in position:
                raise ValueError(f"variable {sid} missing from variable order")
            settled[sid] = value
            units.pop(position[sid], None)
    # Each rule's table is conditioned on its settled statements: a rule
    # that a settled value satisfies gets none, and otherwise the settled
    # statements leave its scope.
    for rule in rules:
        weight = rule.confidence
        kind = rule.rule_type
        if kind is xor_pair or kind is mc_pairwise:
            a, b = rule.hypothesis_ids
            scope = (position[a], position[b])
            xor = kind is xor_pair
            sa, sb = settled.get(a), settled.get(b)
            if sa is None and sb is None:
                _add_table(units, tables, scope, (0, 3) if xor else (3,), weight)
            elif sa is None or sb is None:
                # With one side settled to s, an XOR pair is violated where
                # the other side is s, a pairwise MC where both are true.
                v, s = (scope[0], sb) if sa is None else (scope[1], sa)
                if xor or s:
                    _add_table(units, tables, (v,), (int(s),), weight)
        else:
            # Entailment and MC_HARD: violated when every premise is true
            # and every hypothesis false.
            premises, conclusions = rule.premise_ids, rule.hypothesis_ids
            # A settled premise that is false or a conclusion that is true
            # satisfies the rule.  Otherwise the unsettled statements stay,
            # premises first, and the violated row sets the premises' bits.
            kept = []
            for sid in premises:
                value = settled.get(sid)
                if value is None:
                    kept.append(position[sid])
                elif not value:
                    break
            else:
                row = (1 << len(kept)) - 1
                for sid in conclusions:
                    value = settled.get(sid)
                    if value is None:
                        kept.append(position[sid])
                    elif value:
                        break
                else:
                    if kept:
                        _add_table(units, tables, tuple(kept), (row,), weight)
    labels = [statements[sid].label for sid in order]
    return WeightedClauseSet(order, labels, settled, units, tables, graph, dict(pins or ()))


def _pick(bits: tuple[int, ...], width: int) -> itemgetter:
    """An itemgetter of the row of a narrower table for each row of a
    ``width``-bit table.

    Bit j of the narrower table's row number is bit ``bits[j]`` of the
    wider table's row number.
    """
    step = {b: 1 << j for j, b in enumerate(bits)}
    rows = [0]
    for b in range(width):
        s = step.get(b, 0)
        rows += [r + s for r in rows]
    return itemgetter(*rows)


# [bit positions of a table's scope] -> the _pick of their rows in a 3-bit
# and in a 4-bit table, for the degree-2 and degree-3 steps: every ordered
# tuple of distinct positions that contains bit 0, x's, since each table
# they read mentions x (11 and 49 of them).  Built at import and never
# written to.
_PICK_3, _PICK_4 = (
    {bits: _pick(bits, width)
     for size in range(1, width + 1) for bits in permutations(range(width), size) if 0 in bits}
    for width in (3, 4)
)
# The rows (x, y) = 00, 10, 01, 11 of x's elimination with one neighbour y,
# read off a table over (x,), (x, y) or (y, x).
_PICK_X, _PICK_XY, _PICK_YX = itemgetter(0, 1, 0, 1), itemgetter(*range(4)), itemgetter(0, 2, 1, 3)
_NO_COST = [0.0, 0.0]


def solve(cs: WeightedClauseSet) -> SolveResult:
    """Exact minimum-cost assignment over all variables; deterministic.

    Reads every field of ``cs`` but ``graph`` and ``pins``.
    When the hard constraints conflict it still returns an assignment, one
    that violates some of them: only scoring the assignment, as `reason`
    does, tells an infeasible instance apart.
    """
    n = len(cs.variable_order)
    if n > MAX_VARIABLES:
        raise SolverLimitError(f"{n} variables exceeds the limit of {MAX_VARIABLES}")
    value = list(cs.labels)
    unit = cs.units
    # The input tables in clause order, then those made by eliminations; a
    # table is set to None once an elimination has used it.
    tables: list[_Table | None] = list(cs.tables)
    # variable -> the indices of the tables that mention it, ascending
    mentions: dict[int, list[int]] = {}
    neighbours: dict[int, set[int]] = {}
    for i, (scope, _, _) in enumerate(cs.tables):
        if len(scope) == 2:  # each side gains the other, directly
            x, y = scope
            if x in neighbours:
                neighbours[x].add(y)
                mentions[x].append(i)
            else:
                neighbours[x], mentions[x] = {y}, [i]
            if y in neighbours:
                neighbours[y].add(x)
                mentions[y].append(i)
            else:
                neighbours[y], mentions[y] = {x}, [i]
            continue
        for v in scope:
            around = neighbours.get(v)
            if around is None:
                around = neighbours[v] = set()
                mentions[v] = [i]
            else:
                mentions[v].append(i)
            around.update(scope)
            around.discard(v)
    # Variables in no clause keep their initial labels, which is optimal and
    # flip-minimal; settled ones take encode's value at the end.  A variable
    # with unit costs but no table flips only where that costs less by more
    # than EPSILON, as eliminating it would.
    decided = len(cs.settled)
    for v, costs in unit.items():
        if v not in neighbours:
            decided += 1
            keep = value[v]
            if costs[not keep] < costs[keep] - EPSILON:
                value[v] = not keep
    # The others are eliminated in min-degree order: bit v of buckets[d] is
    # set while variable v is left with d neighbours, and the lowest bit of
    # the first non-empty bucket is eliminated next.
    buckets = [0] * (n + 1)
    for v, around in neighbours.items():
        buckets[len(around)] |= 1 << v
    # [k][bit positions of a table's scope] -> their _pick in a (k + 1)-bit
    # table, for the general step at degree k; kept for this call only
    projections: dict[int, dict[tuple[int, ...], itemgetter]] = {}
    # (variable, remaining scope, whether to flip it for each scope row),
    # for the variables that some row flips
    eliminated: list[tuple[int, tuple[int, ...], list[bool]]] = []
    # degree -> the number of variables eliminated with that many neighbours
    counts = [0] * (MAX_WIDTH + 1)
    k = 0
    while neighbours:
        # Every degree was at least k before the last elimination, which
        # lowered each by at most one.
        if k:
            k -= 1
        while not buckets[k]:
            k += 1
        if k > MAX_WIDTH:
            raise SolverLimitError(f"elimination width {k} exceeds the limit of {MAX_WIDTH}")
        counts[k] += 1
        low = buckets[k] & -buckets[k]
        buckets[k] ^= low
        x = low.bit_length() - 1
        around = neighbours.pop(x)
        keep = int(value[x])  # bit 0 of a row is x's value
        x_flip = 1 << (n - 1 - x)
        if not k:
            # The last variable of its component, decided at once.
            c0, c1 = unit.get(x, _NO_COST)
            f0 = f1 = 0
            for i in mentions.pop(x):
                table = tables[i]
                if table is not None:
                    _, (r0, r1), t_flips = table
                    c0, c1 = c0 + r0, c1 + r1
                    if t_flips is not None:
                        f0, f1 = f0 + t_flips[0], f1 + t_flips[1]
            if keep:
                c0, c1, f0, f1 = c1, c0, f1, f0
            if c1 < c0 - EPSILON or (c1 <= c0 + EPSILON and f1 + x_flip < f0):
                value[x] = not keep
            continue
        if k == 1:
            # Every table left on x is over (x,), (x, y) or (y, x): sum its
            # rows (x, y) = 00, 10, 01, 11 directly, in the order used below.
            (y,) = scope = (*around,)
            near = neighbours[y]
            near.discard(x)
            buckets[len(near) + 1] ^= 1 << y
            buckets[len(near)] |= 1 << y
            c0, c1, c2, c3 = unit.get(x, _NO_COST) * 2
            f0 = f1 = f2 = f3 = 0
            for i in mentions.pop(x):
                table = tables[i]
                if table is None:
                    continue
                tables[i] = None
                t_scope, t_costs, t_flips = table
                pick = _PICK_X if len(t_scope) == 1 else _PICK_XY if t_scope[0] == x else _PICK_YX
                r0, r1, r2, r3 = pick(t_costs)
                c0, c1, c2, c3 = c0 + r0, c1 + r1, c2 + r2, c3 + r3
                if t_flips is not None:
                    r0, r1, r2, r3 = pick(t_flips)
                    f0, f1, f2, f3 = f0 + r0, f1 + r1, f2 + r2, f3 + r3
            if keep:  # the kept row of each pair first
                c0, c1, c2, c3, f0, f1, f2, f3 = c1, c0, c3, c2, f1, f0, f3, f2
            f1, f3 = f1 + x_flip, f3 + x_flip
            flip0 = c1 < c0 - EPSILON or (c1 <= c0 + EPSILON and f1 < f0)
            flip1 = c3 < c2 - EPSILON or (c3 <= c2 + EPSILON and f3 < f2)
            if flip0 or flip1:
                eliminated.append((x, scope, [flip0, flip1]))
            costs = [c1 if flip0 else c0, c3 if flip1 else c2]
            flips = [f1 if flip0 else f0, f3 if flip1 else f2]
            mentions[y].append(len(tables))
            tables.append((scope, costs, flips if flips[0] or flips[1] else None))
            continue
        # Join x's neighbours into a clique, as the table over them will.
        for a in around:
            near = neighbours[a]
            before = len(near)
            near.discard(x)
            near |= around
            near.discard(a)
            if len(near) != before:
                buckets[before] ^= 1 << a
                buckets[len(near)] |= 1 << a
        if k == 2:
            # The same for neighbours y < z, over the rows (x, y, z) = 000,
            # 100, 010, 110, 001, 101, 011, 111, reading tables by _PICK_3.
            y, z = around
            y, z = scope = (y, z) if y < z else (z, y)
            bit = (x, y, z).index
            c0, c1, c2, c3, c4, c5, c6, c7 = unit.get(x, _NO_COST) * 4
            f0 = f1 = f2 = f3 = f4 = f5 = f6 = f7 = 0
            for i in mentions.pop(x):
                table = tables[i]
                if table is None:
                    continue
                tables[i] = None
                t_scope, t_costs, t_flips = table
                pick = _PICK_3[tuple(map(bit, t_scope))]
                r0, r1, r2, r3, r4, r5, r6, r7 = pick(t_costs)
                c0, c1, c2, c3 = c0 + r0, c1 + r1, c2 + r2, c3 + r3
                c4, c5, c6, c7 = c4 + r4, c5 + r5, c6 + r6, c7 + r7
                if t_flips is not None:
                    r0, r1, r2, r3, r4, r5, r6, r7 = pick(t_flips)
                    f0, f1, f2, f3 = f0 + r0, f1 + r1, f2 + r2, f3 + r3
                    f4, f5, f6, f7 = f4 + r4, f5 + r5, f6 + r6, f7 + r7
            if keep:
                c0, c1, c2, c3, c4, c5, c6, c7 = c1, c0, c3, c2, c5, c4, c7, c6
                f0, f1, f2, f3, f4, f5, f6, f7 = f1, f0, f3, f2, f5, f4, f7, f6
            f1, f3, f5, f7 = f1 + x_flip, f3 + x_flip, f5 + x_flip, f7 + x_flip
            flip0 = c1 < c0 - EPSILON or (c1 <= c0 + EPSILON and f1 < f0)
            flip1 = c3 < c2 - EPSILON or (c3 <= c2 + EPSILON and f3 < f2)
            flip2 = c5 < c4 - EPSILON or (c5 <= c4 + EPSILON and f5 < f4)
            flip3 = c7 < c6 - EPSILON or (c7 <= c6 + EPSILON and f7 < f6)
            if flip0 or flip1 or flip2 or flip3:
                eliminated.append((x, scope, [flip0, flip1, flip2, flip3]))
            costs = [c1 if flip0 else c0, c3 if flip1 else c2, c5 if flip2 else c4, c7 if flip3 else c6]
            flips = [f1 if flip0 else f0, f3 if flip1 else f2, f5 if flip2 else f4, f7 if flip3 else f6]
            mentions[y].append(len(tables))
            mentions[z].append(len(tables))
            tables.append((scope, costs, flips if any(flips) else None))
            continue
        scope = tuple(sorted(around))
        if k == 3:
            # The same for neighbours a < b < c, over the 16 rows of (x, a, b, c),
            # reading tables by _PICK_4.
            bit = ((x,) + scope).index
            c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15 = unit.get(x, _NO_COST) * 8
            f0 = f1 = f2 = f3 = f4 = f5 = f6 = f7 = f8 = f9 = f10 = f11 = f12 = f13 = f14 = f15 = 0
            for i in mentions.pop(x):
                table = tables[i]
                if table is None:
                    continue
                tables[i] = None
                t_scope, t_costs, t_flips = table
                pick = _PICK_4[tuple(map(bit, t_scope))]
                r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15 = pick(t_costs)
                c0, c1, c2, c3 = c0 + r0, c1 + r1, c2 + r2, c3 + r3
                c4, c5, c6, c7 = c4 + r4, c5 + r5, c6 + r6, c7 + r7
                c8, c9, c10, c11 = c8 + r8, c9 + r9, c10 + r10, c11 + r11
                c12, c13, c14, c15 = c12 + r12, c13 + r13, c14 + r14, c15 + r15
                if t_flips is not None:
                    r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15 = pick(t_flips)
                    f0, f1, f2, f3 = f0 + r0, f1 + r1, f2 + r2, f3 + r3
                    f4, f5, f6, f7 = f4 + r4, f5 + r5, f6 + r6, f7 + r7
                    f8, f9, f10, f11 = f8 + r8, f9 + r9, f10 + r10, f11 + r11
                    f12, f13, f14, f15 = f12 + r12, f13 + r13, f14 + r14, f15 + r15
            if keep:
                c0, c1, c2, c3, c4, c5, c6, c7 = c1, c0, c3, c2, c5, c4, c7, c6
                c8, c9, c10, c11, c12, c13, c14, c15 = c9, c8, c11, c10, c13, c12, c15, c14
                f0, f1, f2, f3, f4, f5, f6, f7 = f1, f0, f3, f2, f5, f4, f7, f6
                f8, f9, f10, f11, f12, f13, f14, f15 = f9, f8, f11, f10, f13, f12, f15, f14
            f1, f3, f5, f7 = f1 + x_flip, f3 + x_flip, f5 + x_flip, f7 + x_flip
            f9, f11, f13, f15 = f9 + x_flip, f11 + x_flip, f13 + x_flip, f15 + x_flip
            flip_x = [
                c1 < c0 - EPSILON or (c1 <= c0 + EPSILON and f1 < f0),
                c3 < c2 - EPSILON or (c3 <= c2 + EPSILON and f3 < f2),
                c5 < c4 - EPSILON or (c5 <= c4 + EPSILON and f5 < f4),
                c7 < c6 - EPSILON or (c7 <= c6 + EPSILON and f7 < f6),
                c9 < c8 - EPSILON or (c9 <= c8 + EPSILON and f9 < f8),
                c11 < c10 - EPSILON or (c11 <= c10 + EPSILON and f11 < f10),
                c13 < c12 - EPSILON or (c13 <= c12 + EPSILON and f13 < f12),
                c15 < c14 - EPSILON or (c15 <= c14 + EPSILON and f15 < f14),
            ]
            flip0, flip1, flip2, flip3, flip4, flip5, flip6, flip7 = flip_x
            if True in flip_x:
                eliminated.append((x, scope, flip_x))
            costs = [c1 if flip0 else c0, c3 if flip1 else c2, c5 if flip2 else c4, c7 if flip3 else c6,
                     c9 if flip4 else c8, c11 if flip5 else c10, c13 if flip6 else c12, c15 if flip7 else c14]
            flips = [f1 if flip0 else f0, f3 if flip1 else f2, f5 if flip2 else f4, f7 if flip3 else f6,
                     f9 if flip4 else f8, f11 if flip5 else f10, f13 if flip6 else f12, f15 if flip7 else f14]
            for v in scope:
                mentions[v].append(len(tables))
            tables.append((scope, costs, flips if any(flips) else None))
            continue
        bit = ((x,) + scope).index
        size = 2 << k
        cache = projections.setdefault(k, {})
        # Rows alternate x false, x true.  encode puts a statement's soft
        # unit clause before its rule clauses, and a pinned statement is
        # settled; so starting from the unit costs gives the same sums as
        # one table per unit clause would.
        costs = unit.get(x, _NO_COST) * (size >> 1)
        flips = None  # all 0 until a table with flips is added
        for i in mentions.pop(x):
            table = tables[i]
            if table is None:
                continue
            tables[i] = None
            t_scope, t_costs, t_flips = table
            key = tuple(map(bit, t_scope))
            pick = cache.get(key)
            if pick is None:
                pick = cache[key] = _pick(key, k + 1)
            costs = [*map(add, costs, pick(t_costs))]
            if t_flips is not None:
                flips = [*pick(t_flips)] if flips is None else [*map(add, flips, pick(t_flips))]
        if flips is None:
            flips = [0] * size

        # For each row of the scope, keep x's initial value unless flipping
        # it costs less, or costs the same and gives a smaller flip pattern.
        kept_costs, flip_costs = costs[keep::2], costs[1 - keep::2]
        # x's own bit is added to a flipped row's flips where they are used.
        kept_flips, flip_flips = flips[keep::2], flips[1 - keep::2]
        flip_x = [
            fc < kc - EPSILON or (fc <= kc + EPSILON and ff + x_flip < kf)
            for fc, kc, ff, kf in zip(flip_costs, kept_costs, flip_flips, kept_flips)
        ]
        best_costs, best_flips = kept_costs, kept_flips
        if True in flip_x:
            eliminated.append((x, scope, flip_x))
            best_costs = [fc if b else kc for b, fc, kc in zip(flip_x, flip_costs, kept_costs)]
            best_flips = [ff + x_flip if b else kf for b, ff, kf in zip(flip_x, flip_flips, kept_flips)]
        for v in scope:
            mentions[v].append(len(tables))
        tables.append((scope, best_costs, best_flips if any(best_flips) else None))

    by_degree = tuple(counts[:max([d + 1 for d, c in enumerate(counts) if c], default=0)])
    width = max(len(by_degree) - 1, 0)
    nodes = 2 * decided + sum([c << (d + 1) for d, c in enumerate(by_degree)])
    for x, scope, flip_x in reversed(eliminated):
        row = 0
        for v in reversed(scope):
            row = row << 1 | value[v]
        if flip_x[row]:
            value[x] = not value[x]

    assignment = dict(zip(cs.variable_order, value))
    assignment.update(cs.settled)
    return SolveResult(assignment, nodes, width, decided, by_degree)
