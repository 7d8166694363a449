"""Belief revision: solve the graph, flip beliefs, discard conflicting rules,
and measure the repair.

The repaired graph (`ReasoningOutcome.updated_graph`) keeps every statement
(with its post-reasoning label) and exactly the rules satisfied by the
optimal assignment, so it is self-consistent by construction and yields
faithful explanation subgraphs.
`consistency` gives the conditional constraint violation tau of one
assignment, `summarize` tau before and after reasoning and the repair's
size, and `ablate` a graph with rule groups removed for ablation studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import ReasoningError, SolverLimitError
from .maxsat import encode, solve
from .model import HARD, Assignment, BeliefGraph, RuleNode, RuleType, StatementId, scan_rules

DEFAULT_QUERY_BUDGET = 5

# Rule-type groups addressable in ablations; "mc" covers both MC rule kinds.
ABLATABLE = {
    "entailment": {RuleType.ENTAILMENT},
    "xor": {RuleType.XOR_PAIR},
    "mc": {RuleType.MC_HARD, RuleType.MC_PAIRWISE},
}


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
    belief violates, and ``graph`` is the graph that was reasoned about.
    ``predictions`` are the hypotheses believed true, and
    ``explanation_roots`` maps each to its `ExplanationSubgraph`.
    ``optimal_cost`` is the optimum's cost: the confidences of the flipped
    statements, then of the discarded rules, summed in graph order.
    """

    final_assignment: dict[StatementId, bool]
    flipped: frozenset[StatementId]
    discarded_rules: frozenset[str]
    graph: BeliefGraph
    predictions: frozenset[StatementId]
    explanation_roots: dict[StatementId, ExplanationSubgraph]
    optimal_cost: float = 0.0

    @property
    def updated_graph(self) -> BeliefGraph:
        """``graph`` relabelled by ``final_assignment``, without the discarded
        rules; each read builds a new graph."""
        return self.graph.with_labels(self.final_assignment).without_rules(self.discarded_rules)


def _explain(
    supports: Mapping[StatementId, list[RuleNode]], root: StatementId
) -> ExplanationSubgraph:
    """Breadth-first walk from the root through `scan_rules`' ``supports``.
    Each statement enters the frontier once and each rule has one
    conclusion: no rule repeats."""
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
    """Compute the optimal belief flips, the rules they discard and the
    explanations of the predicted hypotheses.

    `solve` finds the assignment, and one pass over the statements and one
    over the rules (`scan_rules`, which also finds the supports) score it:
    the flipped statements and the violated rules, a zero-confidence rule's
    too, with their confidences summed in that order.  An infinite cost,
    from a violated HARD rule or a broken pin, raises `ReasoningError`,
    unless the soft weights themselves, read off the graph, sum past the
    largest float, which raises `SolverLimitError`.
    """
    assignment = solve(encode(graph, pins)).assignment
    cost = 0.0
    flipped = []
    for sid, node in graph.statements.items():
        if assignment[sid] != node.label:
            flipped.append(sid)
            cost += node.confidence
    supports: dict[StatementId, list[RuleNode]] = {}
    violated = scan_rules(graph.rules, assignment, supports)[2]
    for rule in violated:
        cost += rule.confidence
    if pins:
        for sid, value in pins.items():
            if assignment[sid] != value:
                cost += HARD
    if math.isinf(cost):
        # The soft weights in clause order: each statement's, then each soft
        # rule's, twice for an XOR pair.
        xor_pair = RuleType.XOR_PAIR
        weights = [node.confidence for node in graph.statements.values()]
        for rule in graph.rules:
            if rule.confidence != HARD:
                weights += [rule.confidence] * (2 if rule.rule_type is xor_pair else 1)
        if math.isinf(sum(weights)):
            raise SolverLimitError("the soft clause weights sum past the largest float")
        raise ReasoningError("hard constraints are jointly unsatisfiable")
    predictions = frozenset(h for h in graph.hypotheses if assignment[h])
    explanations = {h: _explain(supports, h) for h in sorted(predictions)}
    return ReasoningOutcome(
        final_assignment=assignment,
        flipped=frozenset(flipped),
        discarded_rules=frozenset([rule.id for rule in violated]),
        graph=graph,
        predictions=predictions,
        explanation_roots=explanations,
        optimal_cost=cost,
    )


def extract_explanation(outcome: ReasoningOutcome, root: StatementId) -> ExplanationSubgraph:
    """Supporting subgraph for a hypothesis believed true after reasoning."""
    if not outcome.final_assignment.get(root, False):
        raise ValueError(f"statement {root} is not believed true after reasoning")
    if root in outcome.explanation_roots:
        return outcome.explanation_roots[root]
    supports: dict[StatementId, list[RuleNode]] = {}
    scan_rules(outcome.graph.rules, outcome.final_assignment, supports)
    return _explain(supports, root)


def resolve_interactive(
    graph: BeliefGraph,
    answer_source: Callable[[str], bool],
    budget: int = DEFAULT_QUERY_BUDGET,
) -> ReasoningOutcome:
    """Resolve conflicts with user verdicts pinned as hard unit clauses.

    Repeatedly solves; while rules are being discarded, queries the
    lowest-confidence statement involved in a discarded rule and pins it
    with the verdict.  Stops at a clean solve or when the budget runs out.
    Falls back to the plain reasoning outcome, the first solve's, when the
    answer source raises `EOFError`; any other exception from it
    propagates.  A negative budget raises `ValueError`.
    """
    if budget < 0:
        raise ValueError(f"query budget must not be negative, got {budget}")
    outcome = plain = reason(graph)
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


@dataclass(frozen=True)
class ConsistencyReport:
    """Conditional constraint violation of one assignment (see `consistency`).

    Despite their names, ``applicable_rules`` and ``violated_rules`` count
    clauses: an XOR pair has two.  ``tau`` is ``violated_rules /
    applicable_rules``, a ratio over *applicable* clauses only, so a change
    that makes more clauses applicable can raise it with fewer violated; it
    is 0 when none applies.  ``self_consistency`` is ``1 - tau``.
    """

    applicable_rules: int
    violated_rules: int
    tau: float
    self_consistency: float


def consistency(graph: BeliefGraph, assignment: Assignment | None = None) -> ConsistencyReport:
    """Conditional constraint violation over the graph's clauses.

    A clause is applicable when every statement on its premise side (its
    negative literals) is believed true, and violated when additionally no
    statement on its hypothesis side is believed; one pass over the rules
    counts both (`scan_rules`).  With no applicable clauses tau is defined
    as 0 (nothing is violated).
    """
    a = assignment if assignment is not None else graph.initial_assignment()
    applicable, violated, _ = scan_rules(graph.rules, a)
    tau = violated / applicable if applicable else 0.0
    return ConsistencyReport(applicable, violated, tau, 1.0 - tau)


def summarize(graph: BeliefGraph, outcome: ReasoningOutcome) -> dict:
    """Consistency of ``graph`` before and after reasoning, and the repair's size.

    "After" takes the final assignment on ``graph`` itself: the outcome's
    updated graph keeps only the rules that assignment satisfies."""
    before = consistency(graph)
    after = consistency(graph, outcome.final_assignment)
    return {
        "tau_before": before.tau,
        "tau_after": after.tau,
        "self_consistency_before": before.self_consistency,
        "self_consistency_after": after.self_consistency,
        "flips": len(outcome.flipped),
        "discarded_rules": len(outcome.discarded_rules),
    }


def ablate(graph: BeliefGraph, masked: Iterable[str]) -> BeliefGraph:
    """The graph with the named rule-type groups removed, for solving.

    Consistency is then measured post hoc on the original, unmasked graph
    with the post-reasoning beliefs.
    """
    masked = set(masked)
    unknown = masked - set(ABLATABLE)
    if unknown:
        raise ValueError(f"unknown rule groups: {sorted(unknown)}")
    if not masked:
        raise ValueError("mask at least one rule group")
    types = {t for name in masked for t in ABLATABLE[name]}
    return graph.without_rules(r.id for r in graph.rules if r.rule_type in types)
