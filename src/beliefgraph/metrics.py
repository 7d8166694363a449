"""Evaluation quantities: conditional constraint violation, accuracy, ablations.

Dataset evaluation, which builds graphs from an oracle, is in `evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .model import Assignment, BeliefGraph, RuleType, clause_counts

if TYPE_CHECKING:
    from .reasoner import ReasoningOutcome

# Rule-type groups addressable in ablations; "mc" covers both MC rule kinds.
ABLATABLE = {
    "entailment": {RuleType.ENTAILMENT},
    "xor": {RuleType.XOR_PAIR},
    "mc": {RuleType.MC_HARD, RuleType.MC_PAIRWISE},
}


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
    statement on its hypothesis side is believed (see `clause_counts`).
    With no applicable clauses tau is defined as 0 (nothing is violated).
    """
    a = assignment if assignment is not None else graph.initial_assignment()
    applicable = 0
    violated = 0
    for rule in graph.rules:
        rule_applicable, rule_violated = clause_counts(rule, a)
        applicable += rule_applicable
        violated += rule_violated
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


def mc_accuracy(predicted: Iterable[int], gold: int, num_options: int) -> float:
    """1 for the right singleton, 1/N for N answers including gold,
    1/k for no prediction, 0 otherwise."""
    predicted = set(predicted)
    if not 0 <= gold < num_options:
        raise ValueError(f"gold index {gold} out of range for {num_options} options")
    if not predicted <= set(range(num_options)):
        raise ValueError("predicted indices out of range")
    if not predicted:
        return 1.0 / num_options
    if gold in predicted:
        return 1.0 / len(predicted)
    return 0.0


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
