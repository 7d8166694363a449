"""Belief-graph data model: statement and rule nodes, assignments, costs.

A belief graph is a bipartite factor graph: statement nodes carry a
true/false label and a confidence, rule nodes are disjunctive constraints
over statements.  All cost arithmetic stays in negative-log space, so
large graphs never underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


StatementId = int
Literal = tuple[StatementId, bool]
Clause = tuple[Literal, ...]
Assignment = Mapping[StatementId, bool]


class EvaluationError(KeyError):
    """A rule or cost evaluation referenced a statement missing from the assignment."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return _checked_graph(_relabel(self.statements, assignment), self.rules, self.hypotheses)

    def without_rules(self, rule_ids: Iterable[str]) -> "BeliefGraph":
        dropped = set(rule_ids)
        kept = tuple(r for r in self.rules if r.id not in dropped)
        return _checked_graph(dict(self.statements), kept, self.hypotheses)


def _checked_graph(statements: dict, rules: tuple, hypotheses: tuple) -> BeliefGraph:
    """A graph from the relabelled statements and a subset of the rules of a
    graph already checked; `BeliefGraph.__post_init__` is not run again."""
    graph = object.__new__(BeliefGraph)
    graph.__dict__.update(statements=statements, rules=rules, hypotheses=hypotheses)
    return graph


def _relabel(
    statements: Mapping[StatementId, StatementNode], assignment: Assignment
) -> dict[StatementId, StatementNode]:
    """``statements`` with the assignment's labels; unchanged nodes are kept."""
    relabelled = {}
    for sid, node in statements.items():
        label = bool(assignment[sid])
        if node.label is not label:
            node = StatementNode(node.id, node.text, label, node.confidence, node.depth,
                                 node.is_negation_of, node.raw_score)
        relabelled[sid] = node
    return relabelled


def statement_cost(node: StatementNode, assigned: bool) -> float:
    """0 when the assignment agrees with the believed label, else the confidence."""
    return 0.0 if assigned == node.label else node.confidence


def clause_counts(rule: RuleNode, assignment: Assignment) -> tuple[int, int]:
    """How many of the rule's clauses are applicable, and how many violated.

    A clause is applicable when every statement on its premise side (its
    negative literals) is true, and violated when additionally no
    statement on its hypothesis side is.  The counts are read off the
    rule's premises and hypotheses by rule type, without building its
    clauses.  Every statement of the rule must be in the assignment.
    """
    try:
        values = list(map(assignment.__getitem__, rule.premise_ids + rule.hypothesis_ids))
    except KeyError as exc:
        raise EvaluationError(f"assignment missing statement {exc.args[0]}") from exc
    kind = rule.rule_type
    if kind is RuleType.XOR_PAIR or kind is RuleType.MC_PAIRWISE:
        a, b = values
        both = 1 if a and b else 0
        if kind is RuleType.MC_PAIRWISE:
            return both, both  # (not a or not b) applies, and fails, when both hold
        # (a or b) always applies; (not a or not b) applies when both hold.
        return 1 + both, both + (0 if a or b else 1)
    # Entailment and MC_HARD: (not p1 or ... or h1 or ...).
    premises = len(rule.premise_ids)
    if not all(values[:premises]):
        return 0, 0
    return 1, 0 if any(values[premises:]) else 1


def rule_satisfied(rule: RuleNode, assignment: Assignment) -> bool:
    return not clause_counts(rule, assignment)[1]


def rule_cost(rule: RuleNode, assignment: Assignment) -> float:
    """0 if satisfied, the confidence if violated (infinite for hard rules)."""
    return 0.0 if rule_satisfied(rule, assignment) else rule.confidence


def total_cost(graph: BeliefGraph, assignment: Assignment) -> float:
    """Summed statement and rule costs; infinite if a hard rule is violated."""
    cost = 0.0
    for sid, node in graph.statements.items():
        if sid not in assignment:
            raise EvaluationError(f"assignment missing statement {sid}")
        cost += statement_cost(node, assignment[sid])
    for rule in graph.rules:
        cost += rule_cost(rule, assignment)
    return cost
