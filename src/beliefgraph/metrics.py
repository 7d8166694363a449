"""Evaluation quantities: conditional constraint violation, accuracy, ablations."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import Assignment, BeliefGraph, RuleType, clause_counts
from .reasoner import ReasoningOutcome, reason

if TYPE_CHECKING:
    from .calibration import CalibrationConfig
    from .construction import BeliefOracle, HypothesisSet

# Rule-type groups addressable in ablations; "mc" covers both MC rule kinds.
ABLATABLE = {
    "entailment": {RuleType.ENTAILMENT},
    "xor": {RuleType.XOR_PAIR},
    "mc": {RuleType.MC_HARD, RuleType.MC_PAIRWISE},
}


@dataclass(frozen=True)
class ConsistencyReport:
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


@dataclass(frozen=True)
class QuestionRecord:
    question_id: str | None
    consistency_before: float
    consistency_after: float
    accuracy_before: float | None
    accuracy_after: float | None
    flips: int
    discarded_rules: int


@dataclass(frozen=True)
class DatasetReport:
    records: tuple[QuestionRecord, ...]
    failures: tuple[tuple[str | None, str], ...]
    consistency_before: float
    consistency_after: float
    accuracy_before: float | None
    accuracy_after: float | None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def evaluate_dataset(
    questions: Sequence[HypothesisSet],
    oracle: BeliefOracle,
    cfg: CalibrationConfig | None = None,
) -> DatasetReport:
    """Per-question consistency and accuracy, before and after reasoning.

    The before-reasoning accuracy baseline is the argmax of the raw truth
    scores over the hypotheses, with no graph reasoning at all.
    """
    if not questions:
        raise ValueError("dataset is empty")
    records: list[QuestionRecord] = []
    failures: list[tuple[str | None, str]] = []
    for question in questions:
        try:
            records.append(_evaluate_question(question, oracle, cfg))
        except Exception as exc:
            warnings.warn(f"question {question.question_id!r} failed: {exc}")
            failures.append((question.question_id, str(exc)))
    if not records:
        raise ValueError("every question in the dataset failed")
    scored = [r for r in records if r.accuracy_before is not None]
    return DatasetReport(
        records=tuple(records),
        failures=tuple(failures),
        consistency_before=_mean([r.consistency_before for r in records]),
        consistency_after=_mean([r.consistency_after for r in records]),
        accuracy_before=_mean([r.accuracy_before for r in scored]) if scored else None,
        accuracy_after=_mean([r.accuracy_after for r in scored]) if scored else None,
    )


def _evaluate_question(
    question: HypothesisSet, oracle: BeliefOracle, cfg: CalibrationConfig | None
) -> QuestionRecord:
    from .construction import generate_graph

    graph = generate_graph(question, oracle, cfg)
    outcome = reason(graph)
    summary = summarize(graph, outcome)

    accuracy_before = accuracy_after = None
    if question.gold_index is not None:
        k = len(question.hypotheses)
        raw = [graph.statements[h].raw_score or 0.0 for h in graph.hypotheses]
        baseline = max(range(k), key=lambda i: (raw[i], -i))
        accuracy_before = mc_accuracy({baseline}, question.gold_index, k)
        predicted = {
            i for i, h in enumerate(graph.hypotheses) if h in outcome.predictions
        }
        accuracy_after = mc_accuracy(predicted, question.gold_index, k)
    return QuestionRecord(
        question_id=question.question_id,
        consistency_before=summary["self_consistency_before"],
        consistency_after=summary["self_consistency_after"],
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
        flips=summary["flips"],
        discarded_rules=summary["discarded_rules"],
    )
