"""Dataset evaluation: the full pipeline per question, before and after reasoning.

Kept apart from `metrics` so that a per-graph command (`reason`, `resolve`,
`export-dot`) does not load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .construction import generate_graph
from .metrics import mc_accuracy, summarize
from .reasoner import reason

if TYPE_CHECKING:
    from .calibration import CalibrationConfig
    from .construction import BeliefOracle, HypothesisSet


@dataclass(frozen=True)
class QuestionRecord:
    """One question's result.

    ``consistency_before`` and ``consistency_after`` are the self-consistency
    (1 - tau, tau being the share of *applicable* clauses that are violated)
    of the question's graph under its oracle labels and under the
    post-reasoning beliefs.  ``accuracy_before`` scores the argmax of the raw
    truth scores over the options, ``accuracy_after`` the reasoned
    predictions (see `mc_accuracy`); both are None for a question without a
    gold answer.  ``flips`` counts the statements whose belief changed and
    ``discarded_rules`` the rules the repair left violated.
    """

    question_id: str | None
    consistency_before: float
    consistency_after: float
    accuracy_before: float | None
    accuracy_after: float | None
    flips: int
    discarded_rules: int


@dataclass(frozen=True)
class DatasetReport:
    """A dataset's result.

    ``records`` holds one `QuestionRecord` per question that ran, in input
    order, and ``failures`` a ``(question_id, message)`` pair per question
    that raised.  The four aggregates are means over ``records``; the
    accuracies average only the questions with a gold answer and are None
    when no question has one.
    """

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
