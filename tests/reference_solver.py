"""Exhaustive reference solver the tests check ``beliefgraph.solve`` against,
the clause-by-clause scorer they read its optimum with, the random clause
sets they check it on, and the clause-literal form the tests build and
read clause sets in.

The reference enumerates every assignment with numpy bitmasks, so it shares
no search logic with the solver and is limited to small instances.  The
scorer sums an assignment's violated clauses in clause order, independently
of `reason`, which scores off the graph's rules.

A clause here is a pair (literals, weight): the literals are (variable,
polarity) pairs, and the clause holds when some variable has its polarity.
The weight is HARD for a hard clause, else positive, or 0 for a
zero-confidence rule's clause as `encode` lists it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from beliefgraph import maxsat
from beliefgraph.maxsat import EPSILON, SolverLimitError
from beliefgraph.model import HARD

BRUTE_FORCE_MAX_VARIABLES = 22

Literals = tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class ClauseSet:
    """A clause set built from clause literals: the five fields `solve`
    reads, as `WeightedClauseSet` has them, with no statement settled
    unless ``settled`` is given, plus the clause list itself, as (scope,
    the values that violate it, weight, rule id or None)."""

    variable_order: tuple[int, ...]
    labels: list[bool]
    units: dict[int, list[float]]
    tables: list
    clauses: list
    settled: dict[int, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Scored:
    """An assignment read against a clause list, as the tests compare
    optima: ``optimal_cost`` sums the violated clauses' weights in clause
    order, and ``violated`` lists their indices, weight-0 clauses included.
    An infeasible assignment, one violating a HARD clause, reads as an
    empty ``assignment``, an infinite cost and no violated clauses, with
    ``feasible`` False.  ``nodes_explored`` counts the assignments the
    brute force enumerated, and is 0 from `score`."""

    assignment: dict
    optimal_cost: float
    feasible: bool
    violated: tuple[int, ...] = ()
    nodes_explored: int = 0


def score(cs, result) -> Scored:
    """``result.assignment`` scored over ``cs.clauses`` in clause order.

    One comparison settles every unit clause and most others.  The violated
    clauses' weights are added in clause order, and not by sum(), which
    compensates float rounding from Python 3.12 on.  An infinite cost
    raises `SolverLimitError` when the soft weights themselves sum past the
    largest float, as `reason` does."""
    clauses = cs.clauses
    value = [result.assignment[sid] for sid in cs.variable_order]
    get = value.__getitem__
    violated = [
        i for i, (scope, bad, _, _) in enumerate(clauses)
        if value[scope[0]] == bad[0] and (len(bad) == 1 or tuple(map(get, scope)) == bad)
    ]
    cost = 0.0
    for i in violated:
        cost += clauses[i][2]
    if math.isinf(cost):
        if math.isinf(sum([clause[2] for clause in clauses if clause[2] != HARD])):
            raise SolverLimitError("the soft clause weights sum past the largest float")
        return Scored({}, math.inf, False)
    return Scored(result.assignment, cost, True, tuple(violated))


def solve_and_score(cs):
    """``solve(cs)`` and its `score`."""
    result = maxsat.solve(cs)
    return result, score(cs, result)


def clause_set(
    clauses: Iterable[tuple[Literals, float]], order: Sequence[int], labels: Mapping[int, bool]
) -> ClauseSet:
    """The compiled form of ``clauses`` over the variables in ``order``, with
    initial ``labels``; each clause gets its table through the helper
    `encode` uses, and no rule id."""
    position = {var: i for i, var in enumerate(order)}
    units: dict = {}
    tables: list = []
    compiled = []
    for literals, weight in clauses:
        scope = tuple(position[var] for var, _ in literals)
        violating = tuple(not pol for _, pol in literals)
        compiled.append((scope, violating, weight, None))
        row = sum(1 << j for j, bad in enumerate(violating) if bad)
        maxsat._add_table(units, tables, scope, (row,), weight)
    return ClauseSet(tuple(order), [labels[var] for var in order], units, tables, compiled)


def literal_clauses(cs) -> list[tuple[Literals, float]]:
    """``cs.clauses`` in order, as (literals, weight) over the variables."""
    order = cs.variable_order
    return [
        (tuple((order[v], not bad) for v, bad in zip(scope, violating)), weight)
        for scope, violating, weight, _ in cs.clauses
    ]


def _lex_key(positions: Iterable[int]) -> tuple[int, ...]:
    """Order key for the flip-pattern tie-break.

    Comparing flip patterns lexicographically (kept = 0 before flipped = 1,
    scanning along the variable order) is the same as comparing the sorted
    flip positions negated: a pattern is smaller when, at the first
    position where the two differ, it keeps the initial label.
    """
    return tuple(-p for p in sorted(positions))


def brute_force_solve(cs, max_variables: int = BRUTE_FORCE_MAX_VARIABLES) -> Scored:
    """Exhaustive reference enumeration, independent of the search path."""
    order = cs.variable_order
    n = len(order)
    if n > max_variables:
        raise SolverLimitError(
            f"{n} variables exceeds the brute-force limit of {max_variables}"
        )
    init_bits = 0
    for i, label in enumerate(cs.labels):
        if label:
            init_bits |= 1 << i

    m = np.arange(1 << n, dtype=np.uint32)
    costs = np.zeros(1 << n, dtype=np.float64)
    feasible = np.ones(1 << n, dtype=bool)
    full = np.uint32((1 << n) - 1)
    for scope, violating, weight, _ in cs.clauses:
        pos_mask = np.uint32(0)
        neg_mask = np.uint32(0)
        for i, bad in zip(scope, violating):
            bit = np.uint32(1 << i)
            if bad:
                neg_mask |= bit
            else:
                pos_mask |= bit
        satisfied = ((m & pos_mask) != 0) | ((~m & full & neg_mask) != 0)
        if weight == HARD:
            feasible &= satisfied
        else:
            costs += np.where(satisfied, 0.0, weight)

    if not feasible.any():
        return Scored({}, math.inf, False, (), 1 << n)
    costs[~feasible] = np.inf
    best_cost = costs.min()
    candidates = np.nonzero(costs <= best_cost + EPSILON)[0]

    def key(mask: int) -> tuple[int, ...]:
        flips = int(mask) ^ init_bits
        return _lex_key(i for i in range(n) if flips >> i & 1)

    winner = int(min(candidates, key=key))
    assignment = {var: bool(winner >> i & 1) for i, var in enumerate(order)}
    return Scored(assignment, float(costs[winner]), True, (), 1 << n)


def random_clause_set(
    seed: int,
    min_variables: int = 8,
    max_variables: int = 18,
) -> ClauseSet:
    """A random mixed hard/soft instance for solver cross-checking."""
    rng = random.Random(seed)
    n = rng.randint(min_variables, max_variables)
    variables = list(range(n))
    initial = {v: rng.random() < 0.5 for v in variables}
    clauses: list[tuple[Literals, float]] = []
    for v in variables:
        if rng.random() < 0.8:
            clauses.append((((v, initial[v]),), round(rng.uniform(0.05, 1.0), 3)))
    for _ in range(rng.randint(n // 2, 2 * n)):
        width = rng.randint(2, min(4, n))
        chosen = rng.sample(variables, width)
        literals = tuple((v, rng.random() < 0.5) for v in chosen)
        clauses.append((literals, round(rng.uniform(0.05, 1.2), 3)))
    for _ in range(rng.randint(0, 2)):
        width = rng.randint(2, min(4, n))
        chosen = rng.sample(variables, width)
        literals = tuple((v, rng.random() < 0.5) for v in chosen)
        clauses.append((literals, HARD))
    return clause_set(clauses, variables, initial)
