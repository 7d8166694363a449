"""Seeded synthetic belief graphs with known violations.

All randomness is seed-controlled.  The benchmark and the tests build their
solver workloads from these graphs."""

from __future__ import annotations

import random
from dataclasses import replace

from .construction import CalibrationConfig, multiple_choice_rules
from .model import BeliefGraph, RuleNode, RuleType, StatementNode


def synthetic_graph(
    seed: int,
    n_hypotheses: int = 4,
    target_statements: int = 400,
    target_rules: int = 90,
) -> BeliefGraph:
    """A random belief graph with at least one initially violated rule.

    Shape mirrors construction output: a layered entailment structure under
    the hypotheses, XOR-linked negation nodes, and the MC constraints.
    """
    rng = random.Random(seed)
    n_statements = rng.randint(max(n_hypotheses * 4, 50), target_statements)
    statements: dict[int, StatementNode] = {}
    rules: list[RuleNode] = []

    def conf() -> float:
        return round(rng.uniform(0.05, 0.99), 3)

    def add_statement(depth: int, label: bool | None = None) -> int:
        sid = len(statements)
        statements[sid] = StatementNode(
            id=sid,
            text=f"synthetic statement {sid}",
            label=rng.random() < 0.8 if label is None else label,
            confidence=conf(),
            depth=depth,
        )
        return sid

    hyp_ids = [add_statement(0) for _ in range(n_hypotheses)]
    interior = list(hyp_ids)

    n_pairwise = n_hypotheses * (n_hypotheses - 1) // 2
    entailment_budget = max(1, target_rules - 1 - n_pairwise - 10)
    while len(rules) < entailment_budget and len(statements) < n_statements - 2:
        conclusion = rng.choice(interior)
        n_premises = rng.randint(1, 3)
        depth = statements[conclusion].depth + 1
        premise_ids = tuple(add_statement(depth, label=True) for _ in range(n_premises))
        # Roughly a quarter of the rules are seeded as violated: all
        # premises true, conclusion forced false.
        violated = rng.random() < 0.25
        if violated and statements[conclusion].label:
            statements[conclusion] = replace(statements[conclusion], label=False)
        rules.append(
            RuleNode(
                id=f"r{len(rules)}",
                rule_type=RuleType.ENTAILMENT,
                premise_ids=premise_ids,
                hypothesis_ids=(conclusion,),
                confidence=conf(),
                raw_score=1.0,
            )
        )
        interior.extend(premise_ids)

    # XOR pairs; about half seeded as violated (both sides believed true).
    for _ in range(min(10, (n_statements - len(statements)) // 2)):
        base = rng.choice(interior)
        neg = add_statement(statements[base].depth + 1, label=None)
        statements[neg] = replace(
            statements[neg],
            label=statements[base].label if rng.random() < 0.5 else not statements[base].label,
            is_negation_of=base,
        )
        rules.append(
            RuleNode(
                id=f"r{len(rules)}",
                rule_type=RuleType.XOR_PAIR,
                premise_ids=(),
                hypothesis_ids=(base, neg),
                confidence=round(rng.uniform(0.5, 1.1), 3),
                raw_score=1.0,
            )
        )

    rules.extend(multiple_choice_rules(hyp_ids, len(rules), CalibrationConfig()))

    # Guarantee at least one initial violation: force the first entailment
    # rule's conclusion false with all premises true.
    first = next(r for r in rules if r.rule_type is RuleType.ENTAILMENT)
    for sid in first.premise_ids:
        statements[sid] = replace(statements[sid], label=True)
    conclusion = first.hypothesis_ids[0]
    statements[conclusion] = replace(statements[conclusion], label=False)
    return BeliefGraph(statements, tuple(rules), tuple(hyp_ids))

