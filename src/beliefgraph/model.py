"""Belief-graph data model: statement and rule nodes, assignments, costs.

A belief graph is a bipartite factor graph: statement nodes carry a
true/false label and a confidence, rule nodes are disjunctive constraints
over statements.  All cost arithmetic stays in negative-log space, so
large graphs never underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

# Hard constraints carry an infinite confidence marker instead of a large
# finite weight, so solver correctness never depends on a magic constant.
HARD = math.inf


class RuleType(Enum):
    ENTAILMENT = "entailment"
    XOR_PAIR = "xor"
    MC_HARD = "mc_hard"
    MC_PAIRWISE = "mc_pairwise"


# Reading an Enum member off its class is a descriptor call (≈150 ns on
# CPython 3.11); the per-rule loops test these module names instead.
_ENTAILMENT, _XOR_PAIR, _MC_PAIRWISE = RuleType.ENTAILMENT, RuleType.XOR_PAIR, RuleType.MC_PAIRWISE

StatementId = int
Assignment = Mapping[StatementId, bool]


# The two node records are slotted: a graph holds thousands of them, and
# an instance without a ``__dict__`` is 48 bytes smaller on CPython 3.11.
@dataclass(frozen=True, slots=True)
class StatementNode:
    """A natural-language statement with a believed label and confidence."""

    id: StatementId
    text: str
    label: bool
    confidence: float
    depth: int = 0
    is_negation_of: StatementId | None = None
    raw_score: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"statement confidence must be in [0, 1], got {self.confidence!r}"
            )
        if self.depth < 0:
            raise ValueError("statement depth must be non-negative")


@dataclass(frozen=True, slots=True)
class RuleNode:
    """A disjunctive constraint, viewed as conjunctive premises -> disjunctive hypotheses.

    XOR pairs store a statement and its negation in ``hypothesis_ids`` and
    expand to their two clauses; MC_PAIRWISE holds the two mutually
    exclusive hypotheses and expands to a single all-negative clause.
    """

    id: str
    rule_type: RuleType
    premise_ids: tuple[StatementId, ...]
    hypothesis_ids: tuple[StatementId, ...]
    confidence: float
    raw_score: float = 1.0

    def __post_init__(self) -> None:
        if not self.hypothesis_ids:
            raise ValueError(f"rule {self.id}: hypothesis_ids must be non-empty")
        ids = self.premise_ids + self.hypothesis_ids
        if len(set(ids)) != len(ids):
            raise ValueError(f"rule {self.id}: premises and hypotheses repeat a statement")
        if self.rule_type is RuleType.MC_HARD:
            if self.confidence != HARD:
                raise ValueError(f"rule {self.id}: MC_HARD must have HARD confidence")
        else:
            if not math.isfinite(self.confidence) or self.confidence < 0.0:
                raise ValueError(
                    f"rule {self.id}: soft confidence must be finite and >= 0"
                )
        if self.rule_type is RuleType.ENTAILMENT and len(self.hypothesis_ids) != 1:
            raise ValueError(f"rule {self.id}: entailment rules have one hypothesis")
        if self.rule_type in (RuleType.XOR_PAIR, RuleType.MC_PAIRWISE):
            if self.premise_ids or len(self.hypothesis_ids) != 2:
                raise ValueError(
                    f"rule {self.id}: {self.rule_type.value} rules pair two statements"
                )

    @property
    def is_hard(self) -> bool:
        return self.confidence == HARD

    def statement_ids(self) -> tuple[StatementId, ...]:
        return self.premise_ids + self.hypothesis_ids


@dataclass(frozen=True, eq=True)
class BeliefGraph:
    """Bipartite factor graph of statement and rule nodes; ``hypotheses`` alone
    marks the answer candidates."""

    statements: dict[StatementId, StatementNode]
    rules: tuple[RuleNode, ...]
    hypotheses: tuple[StatementId, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValueError("belief graph needs at least one hypothesis")
        if len(set(self.hypotheses)) != len(self.hypotheses):
            raise ValueError("hypothesis ids must be unique")
        for sid, node in self.statements.items():
            if node.id != sid:
                raise ValueError("each statement must be keyed by its own id")
            negated = node.is_negation_of
            if negated is not None and negated not in self.statements:
                raise ValueError(f"statement {sid} negates unknown statement {negated}")
            if negated == sid:
                raise ValueError(f"statement {sid} negates itself")
        if len({rule.id for rule in self.rules}) != len(self.rules):
            raise ValueError("rule ids must be unique")
        for h in self.hypotheses:
            if h not in self.statements:
                raise ValueError(f"hypothesis {h} has no statement node")
        for rule in self.rules:
            for sid in rule.statement_ids():
                if sid not in self.statements:
                    raise ValueError(f"rule {rule.id} references unknown statement {sid}")

    def initial_assignment(self) -> dict[StatementId, bool]:
        return {sid: node.label for sid, node in self.statements.items()}

    def with_labels(self, assignment: Assignment) -> "BeliefGraph":
        """A copy of the graph with the assignment's labels; unchanged nodes are kept."""
        statements = {}
        for sid, node in self.statements.items():
            label = bool(assignment[sid])
            statements[sid] = node if node.label is label else replace(node, label=label)
        return BeliefGraph(statements, self.rules, self.hypotheses)

    def without_rules(self, rule_ids: Iterable[str]) -> "BeliefGraph":
        dropped = set(rule_ids)
        kept = tuple(r for r in self.rules if r.id not in dropped)
        return BeliefGraph(dict(self.statements), kept, self.hypotheses)


def scan_rules(
    rules: Iterable[RuleNode],
    assignment: Assignment,
    supports: dict[StatementId, list[RuleNode]] | None = None,
) -> tuple[int, int, list[RuleNode]]:
    """The rule semantics, in one pass: how many clauses of ``rules`` are
    applicable, how many violated, and the violated rules in rule order (a
    rule violates one clause at most).  A clause is applicable when every
    statement on its premise side (its negative literals) is true, and
    violated when also none on its hypothesis side is; both are read off
    each rule by type, without building its clauses.  Given ``supports``,
    each held entailment rule whose premises are all true joins its
    conclusion's list.  A statement missing from the assignment raises
    `KeyError`: every value of a rule is read before any is tested."""
    applicable = 0
    violated = []
    for rule in rules:
        kind = rule.rule_type
        if kind is _XOR_PAIR or kind is _MC_PAIRWISE:
            a, b = rule.hypothesis_ids
            a, b = assignment[a], assignment[b]
            if a and b:  # (not a or not b) applies, and fails
                applicable += 2 if kind is _XOR_PAIR else 1
                violated.append(rule)
            elif kind is _XOR_PAIR:  # (a or b) always applies
                applicable += 1
                if not (a or b):
                    violated.append(rule)
            continue
        # Entailment and MC_HARD: (not p1 or ... or h1 or ...).
        applies, held = True, False
        for sid in rule.premise_ids:
            if not assignment[sid]:
                applies = False
        for sid in rule.hypothesis_ids:
            if assignment[sid]:
                held = True
        if applies:
            applicable += 1
            if not held:
                violated.append(rule)
            elif supports is not None and kind is _ENTAILMENT:
                supports.setdefault(rule.hypothesis_ids[0], []).append(rule)
    return applicable, len(violated), violated


def total_cost(graph: BeliefGraph, assignment: Assignment) -> float:
    """The confidences of the statements assigned against their believed
    label plus those of the violated rules, summed in graph order; infinite
    if a hard rule is violated.  A statement missing from the assignment
    raises `KeyError`."""
    cost = 0.0
    for sid, node in graph.statements.items():
        if assignment[sid] != node.label:
            cost += node.confidence
    for rule in scan_rules(graph.rules, assignment)[2]:
        cost += rule.confidence
    return cost
