"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed and the parameters
below, so two runs on one seed see identical graphs, oracle tables and
questions.  The program under test receives only these generated inputs.
"""

from __future__ import annotations

import random

from beliefgraph import HypothesisSet
from beliefgraph.construction import NEGATION_PREFIX, entailment_key
from beliefgraph.synthetic import synthetic_graph


def graph_seeds(seed: int, count: int) -> list[int]:
    """Distinct `synthetic_graph` seeds drawn from the workload seed."""
    return random.Random(seed).sample(range(10**6), count)


def acceptance_graphs(seed: int, count: int) -> list:
    """Acceptance-shaped graphs: `synthetic_graph` defaults, 50-400 statements.

    Larger graphs are not used: at synthetic_graph(s, 1200, 300) one graph
    in 200 took 54 s to solve, and at (3000, 700) single solves take 0.5-5 s,
    so a run of a few dozen graphs is ruled by its slowest one.
    """
    return [synthetic_graph(s) for s in graph_seeds(seed, count)]


def oracle_tables(
    seed: int, questions: int, vocabulary: int, fanout: int = 2, options: int = 4
) -> tuple[dict, list[HypothesisSet]]:
    """MockOracle tables plus the questions they answer.

    Each option of a question draws `fanout` premises, and each fact one
    premise, from a single shared vocabulary of `vocabulary` facts, so
    questions overlap in the statements they reach: the vocabulary size
    is the oracle cache's working set across questions.  Returns the
    fixture document (the format `load_mock_oracle` reads) and the
    hypothesis sets.
    """
    rng = random.Random(seed)
    facts = [f"shared fact {k} about topic {rng.randrange(1000)}" for k in range(vocabulary)]
    premises: dict[str, list[str]] = {}
    scores: dict[str, float] = {}
    entailments: dict[str, float] = {}

    def score(text: str, believed: bool) -> None:
        s = round(rng.uniform(0.55, 0.98) if believed else rng.uniform(0.02, 0.45), 4)
        scores[text] = s
        scores[NEGATION_PREFIX + text] = round(
            min(0.99, max(0.01, 1.0 - s + rng.uniform(-0.05, 0.05))), 4
        )

    def expand(text: str, width: int) -> None:
        chosen = [p for p in rng.sample(facts, width) if p != text]
        premises[text] = chosen
        entailments[entailment_key(chosen, text)] = round(rng.uniform(0.5, 0.99), 4)

    # Facts are mostly believed and one option per question is favoured,
    # so construction and the oracle, not the solver, carry the oracle
    # workloads; the rest seed a few conflicts for the solver to repair.
    for fact in facts:
        score(fact, rng.random() < 0.85)
        expand(fact, 1)
    hypothesis_sets = []
    for q in range(questions):
        hypotheses = tuple(f"question {q} option {j} is the answer" for j in range(options))
        gold = rng.randrange(options)
        for j, h in enumerate(hypotheses):
            score(h, j == gold)
            expand(h, fanout)
        hypothesis_sets.append(HypothesisSet(hypotheses, gold_index=gold, question_id=f"q{q:03d}"))
    fixture = {
        "premises": premises,
        "statement_scores": scores,
        "entailment_scores": entailments,
        "negations": {},
    }
    return fixture, hypothesis_sets
