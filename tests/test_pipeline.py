"""Properties of the whole pipeline, from random oracle tables through
construction (boundary damping checked against its two-pass definition),
the graph document, reasoning and the updated graph."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import (
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    ReasoningError,
    consistency,
    document_to_graph,
    encode,
    generate_graph,
    graph_to_document,
    reason,
)
from beliefgraph.construction import canonicalize
from beliefgraph.model import scan_rules
from beliefgraph.serialize import dumps
from conftest import two_pass_damping
from reference_solver import BRUTE_FORCE_MAX_VARIABLES, brute_force_solve

SCORES = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.55, 0.7, 0.9, 1.0])


@st.composite
def oracle_questions(draw):
    """A `MockOracle` over a few facts, a question about some of them, a
    depth limit, and the positions of the soft rules to set to zero
    confidence once the graph is built.

    A fact's premises may include the fact itself, close cycles through
    other facts, be shared between facts and be spelt with other case,
    spaces and periods; a custom negation may name another fact, a new
    statement or the fact itself."""
    vocabulary = [f"fact {i}" for i in range(draw(st.integers(2, 6)))]
    facts = st.sampled_from(vocabulary)
    spellings = facts.flatmap(
        lambda f: st.sampled_from([f, f.upper(), f" {f}  .", f.replace(" ", "  ") + "."])
    )
    premises = draw(st.dictionaries(facts, st.lists(spellings, min_size=1, max_size=3)))
    negated = [f"it is not the case that {fact}" for fact in vocabulary]
    statement_scores = draw(st.dictionaries(st.sampled_from(vocabulary + negated), SCORES))
    entailment_scores = {
        f"{' && '.join(p for p in ps if canonicalize(p) != fact)} => {fact}": draw(SCORES)
        for fact, ps in premises.items()
        if draw(st.booleans())
    }
    negations = draw(st.dictionaries(facts, st.sampled_from(vocabulary + ["nothing holds"]),
                                     max_size=2))
    oracle = MockOracle(premises, statement_scores, entailment_scores, negations)
    hypotheses = draw(st.lists(facts, min_size=2, max_size=3, unique=True))
    question = HypothesisSet(tuple(f"{h.capitalize()}." for h in hypotheses))
    return oracle, question, draw(st.integers(1, 3)), draw(st.sets(st.integers(0, 15)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(oracle_questions())
def test_pipeline_properties(case):
    oracle, question, d_max, zeroed = case
    cfg = CalibrationConfig(d_max=d_max)
    built = generate_graph(question, oracle, cfg)
    assert generate_graph(question, oracle, cfg) == built
    assert two_pass_damping(built, cfg) == built
    rules = tuple(
        replace(rule, confidence=0.0) if i in zeroed and not rule.is_hard else rule
        for i, rule in enumerate(built.rules)
    )
    graph = replace(built, rules=rules)

    text = dumps(graph_to_document(graph))
    assert dumps(graph_to_document(document_to_graph(json.loads(text)))) == text

    h = graph.hypotheses[0]
    for pins in (None, {h: not graph.statements[h].label}):
        cs = encode(graph, pins)
        slow = None
        if len(cs.variable_order) <= BRUTE_FORCE_MAX_VARIABLES:
            slow = brute_force_solve(cs)
        if slow is not None and not slow.feasible:
            with pytest.raises(ReasoningError):
                reason(graph, pins)
            continue
        outcome = reason(graph, pins)
        a = outcome.final_assignment
        if slow is not None:
            assert a == slow.assignment
            assert outcome.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
        assert outcome.discarded_rules == {
            rule.id for rule in scan_rules(graph.rules, a)[2] if not rule.is_hard
        }
        kept = {rule.id: rule for rule in outcome.updated_graph.rules}
        for explanation in outcome.explanation_roots.values():
            for rule_id in explanation.rule_ids:
                rule = kept[rule_id]
                assert all(a[sid] for sid in rule.premise_ids + rule.hypothesis_ids)
        assert consistency(outcome.updated_graph).violated_rules == 0
