"""Belief revision: solve the graph, flip beliefs, discard conflicting rules.

The output graph keeps every statement (with its post-reasoning label) and
exactly the rules satisfied by the optimal assignment, so it is
self-consistent by construction and yields faithful explanation subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .maxsat import SolveStatus, encode, solve
from .model import (
    Assignment,
    BeliefGraph,
    RuleType,
    StatementId,
    rule_satisfied,
)

DEFAULT_QUERY_BUDGET = 5


class ReasoningError(RuntimeError):
    """The MaxSAT instance was infeasible (conflicting hard constraints)."""


@dataclass(frozen=True)
class ExplanationSubgraph:
    """Supporting entailment rules whose premises and conclusion are all believed."""

    root: StatementId
    statement_ids: frozenset[StatementId]
    rule_ids: tuple[str, ...]
    # conclusion id -> ids of included rules concluding it
    support: dict[StatementId, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ReasoningOutcome:
    initial_graph: BeliefGraph
    final_assignment: dict[StatementId, bool]
    flipped: frozenset[StatementId]
    discarded_rules: frozenset[str]
    updated_graph: BeliefGraph
    predictions: frozenset[StatementId]
    explanation_roots: dict[StatementId, ExplanationSubgraph]
    optimal_cost: float = 0.0


def _explain(updated: BeliefGraph, root: StatementId) -> ExplanationSubgraph:
    assignment = updated.initial_assignment()
    statements = {root}
    rules: list[str] = []
    support: dict[StatementId, list[str]] = {}
    frontier = [root]
    while frontier:
        sid = frontier.pop(0)
        for rule in updated.rules:
            if rule.rule_type is not RuleType.ENTAILMENT:
                continue
            if sid not in rule.hypothesis_ids or rule.id in rules:
                continue
            if not all(assignment[p] for p in rule.premise_ids):
                continue
            rules.append(rule.id)
            support.setdefault(sid, []).append(rule.id)
            for p in rule.premise_ids:
                if p not in statements:
                    statements.add(p)
                    frontier.append(p)
    return ExplanationSubgraph(
        root=root,
        statement_ids=frozenset(statements),
        rule_ids=tuple(rules),
        support={sid: tuple(ids) for sid, ids in support.items()},
    )


def reason(
    graph: BeliefGraph, pins: Mapping[StatementId, bool] | None = None
) -> ReasoningOutcome:
    """Compute the optimal belief flips and the self-consistent updated graph."""
    result = solve(encode(graph, pins))
    if result.status is SolveStatus.INFEASIBLE:
        raise ReasoningError("hard constraints are jointly unsatisfiable")
    assignment = result.assignment
    flipped = frozenset(
        sid for sid, node in graph.statements.items() if assignment[sid] != node.label
    )
    discarded = frozenset(
        rule.id
        for rule in graph.rules
        if not rule.is_hard and not rule_satisfied(rule, assignment)
    )
    updated = graph.with_labels(assignment).without_rules(discarded)
    predictions = frozenset(h for h in graph.hypotheses if assignment[h])
    explanations = {h: _explain(updated, h) for h in sorted(predictions)}
    return ReasoningOutcome(
        initial_graph=graph,
        final_assignment=dict(assignment),
        flipped=flipped,
        discarded_rules=discarded,
        updated_graph=updated,
        predictions=predictions,
        explanation_roots=explanations,
        optimal_cost=result.optimal_cost,
    )


def extract_explanation(outcome: ReasoningOutcome, root: StatementId) -> ExplanationSubgraph:
    """Supporting subgraph for a hypothesis believed true in the updated graph."""
    if not outcome.final_assignment.get(root, False):
        raise ValueError(f"statement {root} is not believed true after reasoning")
    if root in outcome.explanation_roots:
        return outcome.explanation_roots[root]
    return _explain(outcome.updated_graph, root)


def resolve_interactive(
    graph: BeliefGraph,
    answer_source: Callable[[str], bool] | None,
    budget: int = DEFAULT_QUERY_BUDGET,
) -> ReasoningOutcome:
    """Resolve conflicts with user verdicts pinned as hard unit clauses.

    Repeatedly solves; while rules are being discarded, queries the
    lowest-confidence statement involved in a discarded rule and pins it
    with the verdict.  Stops at a clean solve or when the budget runs out.
    Falls back to plain reasoning when the answer source is unavailable.
    """
    if answer_source is None:
        return reason(graph)
    pins: dict[StatementId, bool] = {}
    outcome = reason(graph, pins)
    queries = 0
    while outcome.discarded_rules and queries < budget:
        involved = {
            sid
            for rule_id in outcome.discarded_rules
            for sid in graph.rule_by_id(rule_id).statement_ids()
            if sid not in pins
        }
        if not involved:
            break
        target = min(involved, key=lambda sid: (graph.statements[sid].confidence, sid))
        try:
            verdict = bool(answer_source(graph.statements[target].text))
        except Exception:
            return reason(graph)
        pins[target] = verdict
        queries += 1
        outcome = reason(graph, pins)
    return outcome
