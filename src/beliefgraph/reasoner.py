"""Belief revision: solve the graph, flip beliefs, discard conflicting rules.

The output graph keeps every statement (with its post-reasoning label) and
exactly the rules satisfied by the optimal assignment, so it is
self-consistent by construction and yields faithful explanation subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ReasoningError
from .maxsat import SolveStatus, encode, solve
from .model import BeliefGraph, RuleNode, RuleType, StatementId

DEFAULT_QUERY_BUDGET = 5


@dataclass(frozen=True)
class ExplanationSubgraph:
    """Supporting entailment rules whose premises and conclusion are all believed."""

    root: StatementId
    statement_ids: frozenset[StatementId]
    # conclusion id -> ids of included rules concluding it
    support: dict[StatementId, tuple[str, ...]] = field(default_factory=dict)

    @property
    def rule_ids(self) -> tuple[str, ...]:
        """The included rules, grouped by conclusion in breadth-first order."""
        return tuple(rule_id for ids in self.support.values() for rule_id in ids)


@dataclass(frozen=True)
class ReasoningOutcome:
    """The result of `reason`.

    ``final_assignment`` maps every statement id to its belief in the
    optimum, and ``flipped`` holds the statements whose belief differs from
    their oracle label.  ``discarded_rules`` holds the ids of the rules that
    belief violates, and ``updated_graph`` is the input graph relabelled by
    it, without those rules.  ``predictions`` are the hypotheses believed
    true, and ``explanation_roots`` maps each to its `ExplanationSubgraph`.
    ``optimal_cost`` is the optimum's total weight of violated soft clauses.
    """

    final_assignment: dict[StatementId, bool]
    flipped: frozenset[StatementId]
    discarded_rules: frozenset[str]
    updated_graph: BeliefGraph
    predictions: frozenset[StatementId]
    explanation_roots: dict[StatementId, ExplanationSubgraph]
    optimal_cost: float = 0.0


def _supports(updated: BeliefGraph) -> dict[StatementId, list[RuleNode]]:
    """Conclusion id -> the entailment rules concluding it whose premises are
    all believed in the updated graph, in rule order."""
    statements = updated.statements
    entailment = RuleType.ENTAILMENT
    supports: dict[StatementId, list[RuleNode]] = {}
    for rule in updated.rules:
        if rule.rule_type is not entailment:
            continue
        for p in rule.premise_ids:
            if not statements[p].label:
                break
        else:
            supports.setdefault(rule.hypothesis_ids[0], []).append(rule)
    return supports


def _explain(
    supports: Mapping[StatementId, list[RuleNode]], root: StatementId
) -> ExplanationSubgraph:
    """Breadth-first walk from the root through ``supports``.  Each statement
    enters the frontier once and each rule has one conclusion: no rule repeats."""
    statements = {root}
    support: dict[StatementId, tuple[str, ...]] = {}
    frontier = [root]
    for sid in frontier:
        if sid not in supports:
            continue
        support[sid] = tuple(rule.id for rule in supports[sid])
        for rule in supports[sid]:
            for p in rule.premise_ids:
                if p not in statements:
                    statements.add(p)
                    frontier.append(p)
    return ExplanationSubgraph(root, frozenset(statements), support)


def reason(
    graph: BeliefGraph, pins: Mapping[StatementId, bool] | None = None
) -> ReasoningOutcome:
    """Compute the optimal belief flips and the self-consistent updated graph."""
    cs = encode(graph, pins)
    result = solve(cs)
    if result.status is SolveStatus.INFEASIBLE:
        raise ReasoningError("hard constraints are jointly unsatisfiable")
    assignment = result.assignment
    flipped = frozenset(
        sid for sid, node in graph.statements.items() if assignment[sid] != node.label
    )
    # The optimum violates only soft clauses, and each rule clause, a
    # zero-confidence rule's too, names its rule.
    discarded = frozenset(cs.clauses[i][3] for i in result.violated) - {None}
    updated = graph.with_labels(assignment).without_rules(discarded)
    predictions = frozenset(h for h in graph.hypotheses if assignment[h])
    supports = _supports(updated)
    explanations = {h: _explain(supports, h) for h in sorted(predictions)}
    return ReasoningOutcome(
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
    return _explain(_supports(outcome.updated_graph), root)


def resolve_interactive(
    graph: BeliefGraph,
    answer_source: Callable[[str], bool] | None,
    budget: int = DEFAULT_QUERY_BUDGET,
) -> ReasoningOutcome:
    """Resolve conflicts with user verdicts pinned as hard unit clauses.

    Repeatedly solves; while rules are being discarded, queries the
    lowest-confidence statement involved in a discarded rule and pins it
    with the verdict.  Stops at a clean solve or when the budget runs out.
    Falls back to the plain reasoning outcome, the first solve's, when the
    answer source is None or raises `EOFError`; any other exception from it
    propagates.  A negative budget raises `ValueError`.
    """
    if budget < 0:
        raise ValueError(f"query budget must not be negative, got {budget}")
    outcome = plain = reason(graph)
    if answer_source is None:
        return plain
    pins: dict[StatementId, bool] = {}
    queries = 0
    while outcome.discarded_rules and queries < budget:
        involved = {
            sid
            for rule in graph.rules
            if rule.id in outcome.discarded_rules
            for sid in rule.statement_ids()
            if sid not in pins
        }
        if not involved:
            break
        target = min(involved, key=lambda sid: (graph.statements[sid].confidence, sid))
        try:
            verdict = bool(answer_source(graph.statements[target].text))
        except EOFError:
            return plain
        pins[target] = verdict
        queries += 1
        outcome = reason(graph, pins)
    return outcome
