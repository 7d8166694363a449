"""Exhaustive reference solver the tests check ``beliefgraph.solve`` against,
and the random clause sets they check it on.

It enumerates every assignment with numpy bitmasks, so it shares no search
logic with the solver and is limited to small instances.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np

from beliefgraph.maxsat import (
    EPSILON,
    SolveResult,
    SolverLimitError,
    SolveStatus,
    WeightedClause,
    WeightedClauseSet,
)
from beliefgraph.model import HARD

BRUTE_FORCE_MAX_VARIABLES = 22


def _lex_key(positions: Iterable[int]) -> tuple[int, ...]:
    """Order key for the flip-pattern tie-break.

    Comparing flip patterns lexicographically (kept = 0 before flipped = 1,
    scanning along the variable order) is the same as comparing the sorted
    flip positions negated: a pattern is smaller when, at the first
    position where the two differ, it keeps the initial label.
    """
    return tuple(-p for p in sorted(positions))


def brute_force_solve(
    cs: WeightedClauseSet, max_variables: int = BRUTE_FORCE_MAX_VARIABLES
) -> SolveResult:
    """Exhaustive reference enumeration, independent of the search path."""
    order = cs.variable_order
    n = len(order)
    if n > max_variables:
        raise SolverLimitError(
            f"{n} variables exceeds the brute-force limit of {max_variables}"
        )
    index = {var: i for i, var in enumerate(order)}
    init_bits = 0
    for var, i in index.items():
        if cs.initial_labels[var]:
            init_bits |= 1 << i

    m = np.arange(1 << n, dtype=np.uint32)
    costs = np.zeros(1 << n, dtype=np.float64)
    feasible = np.ones(1 << n, dtype=bool)
    full = np.uint32((1 << n) - 1)
    for clause in cs.clauses:
        pos_mask = np.uint32(0)
        neg_mask = np.uint32(0)
        for var, pol in clause.literals:
            bit = np.uint32(1 << index[var])
            if pol:
                pos_mask |= bit
            else:
                neg_mask |= bit
        satisfied = ((m & pos_mask) != 0) | ((~m & full & neg_mask) != 0)
        if clause.is_hard:
            feasible &= satisfied
        else:
            costs += np.where(satisfied, 0.0, clause.weight)

    if not feasible.any():
        return SolveResult({}, math.inf, SolveStatus.INFEASIBLE, 1 << n)
    costs[~feasible] = np.inf
    best_cost = costs.min()
    candidates = np.nonzero(costs <= best_cost + EPSILON)[0]

    def key(mask: int) -> tuple[int, ...]:
        flips = int(mask) ^ init_bits
        return _lex_key(i for i in range(n) if flips >> i & 1)

    winner = int(min(candidates, key=key))
    assignment = {var: bool(winner >> index[var] & 1) for var in order}
    return SolveResult(assignment, float(costs[winner]), SolveStatus.OPTIMAL, 1 << n)


def random_clause_set(
    seed: int,
    min_variables: int = 8,
    max_variables: int = 18,
) -> WeightedClauseSet:
    """A random mixed hard/soft instance for solver cross-checking."""
    rng = random.Random(seed)
    n = rng.randint(min_variables, max_variables)
    variables = list(range(n))
    initial = {v: rng.random() < 0.5 for v in variables}
    clauses: list[WeightedClause] = []
    for v in variables:
        if rng.random() < 0.8:
            clauses.append(
                WeightedClause(((v, initial[v]),), round(rng.uniform(0.05, 1.0), 3))
            )
    for _ in range(rng.randint(n // 2, 2 * n)):
        width = rng.randint(2, min(4, n))
        chosen = rng.sample(variables, width)
        literals = tuple((v, rng.random() < 0.5) for v in chosen)
        clauses.append(WeightedClause(literals, round(rng.uniform(0.05, 1.2), 3)))
    for _ in range(rng.randint(0, 2)):
        width = rng.randint(2, min(4, n))
        chosen = rng.sample(variables, width)
        literals = tuple((v, rng.random() < 0.5) for v in chosen)
        clauses.append(WeightedClause(literals, HARD))
    return WeightedClauseSet(tuple(clauses), tuple(variables), initial)
