import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefgraph import (
    HARD,
    BeliefGraph,
    RuleNode,
    RuleType,
    StatementNode,
    consistency,
    rule_cost,
    rule_satisfied,
    statement_cost,
    total_cost,
)
from beliefgraph.model import EvaluationError
from beliefgraph.synthetic import synthetic_graph
from conftest import clause_satisfied, rule_clauses


def node(sid, label=True, confidence=0.9):
    return StatementNode(id=sid, text=f"s{sid}", label=label, confidence=confidence)


def entailment(rid, premises, hyp, confidence):
    return RuleNode(rid, RuleType.ENTAILMENT, tuple(premises), (hyp,), confidence)


class TestStatementCost:
    def test_agreement_is_free(self):
        assert statement_cost(node(0, True, 0.9), True) == 0.0

    def test_flip_costs_confidence(self):
        assert statement_cost(node(0, True, 0.9), False) == 0.9
        assert statement_cost(node(0, False, 0.55), True) == 0.55

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            node(0, True, 1.5)

    @given(st.floats(0.0, 1.0), st.booleans(), st.booleans())
    def test_exactly_one_side_free_unless_zero(self, conf, label, assigned):
        n = node(0, label, conf)
        costs = {statement_cost(n, True), statement_cost(n, False)}
        if conf == 0.0:
            assert costs == {0.0}
        else:
            assert 0.0 in costs and conf in costs


class TestRuleSatisfaction:
    def test_violated_implication(self):
        rule = entailment("r", (0, 1), 2, 0.8)
        assert not rule_satisfied(rule, {0: True, 1: True, 2: False})

    def test_falsified_premise_satisfies(self):
        rule = entailment("r", (0, 1), 2, 0.8)
        assert rule_satisfied(rule, {0: True, 1: False, 2: False})

    def test_xor_both_false_violates_first_clause(self):
        rule = RuleNode("r", RuleType.XOR_PAIR, (), (0, 1), 1.1)
        assert not rule_satisfied(rule, {0: False, 1: False})
        assert not rule_satisfied(rule, {0: True, 1: True})
        assert rule_satisfied(rule, {0: True, 1: False})

    def test_missing_id_is_an_error(self):
        rule = entailment("r", (0,), 1, 0.8)
        with pytest.raises(EvaluationError):
            rule_satisfied(rule, {0: True})

    def test_rule_cost(self):
        rule = entailment("r", (0,), 1, 0.8)
        assert rule_cost(rule, {0: True, 1: True}) == 0.0
        assert rule_cost(rule, {0: True, 1: False}) == 0.8

    def test_hard_rule_violation_is_infeasible(self):
        rule = RuleNode("r", RuleType.MC_HARD, (), (0, 1), HARD)
        assert math.isinf(rule_cost(rule, {0: False, 1: False}))

    def test_soft_cost_zero_iff_satisfied(self):
        rule = entailment("r", (0,), 1, 0.8)
        for a in ({0: True, 1: True}, {0: True, 1: False}, {0: False, 1: False}):
            assert (rule_cost(rule, a) == 0.0) == rule_satisfied(rule, a)


# One rule of each type and shape, over statements 0..3.
EVERY_RULE_SHAPE = [
    RuleNode("e0", RuleType.ENTAILMENT, (), (0,), 0.8),
    RuleNode("e1", RuleType.ENTAILMENT, (1,), (0,), 0.8),
    RuleNode("e3", RuleType.ENTAILMENT, (3, 1, 2), (0,), 0.8),
    RuleNode("x", RuleType.XOR_PAIR, (), (2, 0), 1.1),
    RuleNode("h1", RuleType.MC_HARD, (), (1,), HARD),
    RuleNode("h3", RuleType.MC_HARD, (), (0, 2, 1), HARD),
    RuleNode("p", RuleType.MC_PAIRWISE, (), (1, 3), 0.7),
]


def every_assignment(ids):
    for values in product((False, True), repeat=len(ids)):
        yield dict(zip(ids, values))


@pytest.mark.parametrize("rule", EVERY_RULE_SHAPE, ids=lambda r: r.id)
class TestChecksByRuleType:
    """`rule_satisfied` and `consistency` read rules by type; each must agree
    with the rule's clauses taken one by one."""

    def test_rule_satisfied_matches_clauses(self, rule):
        for a in every_assignment(rule.statement_ids()):
            expected = all(clause_satisfied(c, a) for c in rule_clauses(rule))
            assert rule_satisfied(rule, a) is expected, a

    def test_consistency_matches_clauses(self, rule):
        statements = {sid: node(sid) for sid in range(4)}
        graph = BeliefGraph(statements, (rule,), (0,))
        for a in every_assignment(tuple(statements)):
            applicable = violated = 0
            for clause in rule_clauses(rule):
                if all(a[var] for var, pol in clause if not pol):
                    applicable += 1
                    violated += not any(a[var] for var, pol in clause if pol)
            report = consistency(graph, a)
            assert (report.applicable_rules, report.violated_rules) == (applicable, violated), a

    def test_missing_statement_is_an_error(self, rule):
        graph = BeliefGraph({sid: node(sid) for sid in range(4)}, (rule,), (0,))
        for missing in rule.statement_ids():
            for a in every_assignment(rule.statement_ids()):
                del a[missing]
                with pytest.raises(EvaluationError):
                    rule_satisfied(rule, a)
                with pytest.raises(EvaluationError):
                    consistency(graph, a)


def hard_xor_graph():
    # XOR semantics via two explicit hard-ish soft clauses is the normal
    # case; here model it with MC_HARD-style hardness using two rules.
    statements = {0: node(0, True, 0.9), 1: node(1, True, 0.6)}
    rules = (
        RuleNode("at-least", RuleType.MC_HARD, (), (0, 1), HARD),
        RuleNode("at-most", RuleType.MC_PAIRWISE, (), (0, 1), 5.0),
    )
    return BeliefGraph(statements, rules, (0,))


class TestTotalCost:
    def test_consistent_graph_costs_zero(self):
        statements = {0: node(0), 1: node(1)}
        g = BeliefGraph(statements, (entailment("r", (0,), 1, 0.8),), (0,))
        assert total_cost(g, {0: True, 1: True}) == 0.0

    def test_hard_xor_flip_weaker(self):
        # Brute force over the 4 assignments: keeping the stronger belief
        # costs 0.6, keeping the weaker costs 0.9.
        g = hard_xor_graph()
        assert total_cost(g, {0: True, 1: False}) == pytest.approx(0.6)
        assert total_cost(g, {0: False, 1: True}) == pytest.approx(0.9)

    def test_infeasible_assignment_costs_inf(self):
        g = hard_xor_graph()
        assert total_cost(g, {0: False, 1: False}) == math.inf

    @given(st.data())
    def test_weight_is_exp_of_cost_and_order_invariant(self, data):
        n = data.draw(st.integers(2, 5))
        statements = {
            i: node(i, data.draw(st.booleans()), data.draw(st.floats(0, 1)))
            for i in range(n)
        }
        rules = []
        for ri in range(data.draw(st.integers(0, 3))):
            prem = data.draw(st.integers(0, n - 1))
            hyp = data.draw(st.integers(0, n - 1))
            if prem == hyp:
                continue
            rules.append(entailment(f"r{ri}", (prem,), hyp, data.draw(st.floats(0, 1))))
        g = BeliefGraph(statements, tuple(rules), (0,))
        a = {i: data.draw(st.booleans()) for i in range(n)}
        cost = total_cost(g, a)
        shuffled = BeliefGraph(
            dict(reversed(list(statements.items()))), tuple(reversed(rules)), (0,)
        )
        assert total_cost(shuffled, a) == pytest.approx(cost, abs=1e-12)

    def test_initial_labels_have_zero_statement_cost(self):
        g = hard_xor_graph()
        rule_free = BeliefGraph(dict(g.statements), (), g.hypotheses)
        assert total_cost(rule_free, g.initial_assignment()) == 0.0


class TestGraphInvariants:
    def test_unknown_statement_rejected(self):
        with pytest.raises(ValueError):
            BeliefGraph({0: node(0)}, (entailment("r", (0,), 5, 0.5),), (0,))

    def test_empty_hypotheses_rejected(self):
        with pytest.raises(ValueError):
            BeliefGraph({0: node(0)}, (), ())

    def test_premises_and_hypotheses_disjoint(self):
        with pytest.raises(ValueError):
            RuleNode("r", RuleType.ENTAILMENT, (0,), (0,), 0.5)

    def test_entailment_needs_single_hypothesis(self):
        with pytest.raises(ValueError):
            RuleNode("r", RuleType.ENTAILMENT, (0,), (1, 2), 0.5)

    def test_mc_hard_requires_hard_marker(self):
        with pytest.raises(ValueError):
            RuleNode("r", RuleType.MC_HARD, (), (0, 1), 0.9)

    def test_statement_key_must_match_id(self):
        with pytest.raises(ValueError, match="keyed by its own id"):
            BeliefGraph({0: node(1)}, (), (0,))

    def test_negation_of_unknown_statement_rejected(self):
        with pytest.raises(ValueError, match="negates unknown statement 7"):
            BeliefGraph({0: replace(node(0), is_negation_of=7)}, (), (0,))

    def test_rule_ids_must_be_unique(self):
        statements = {0: node(0), 1: node(1)}
        rules = (entailment("r", (0,), 1, 0.8), entailment("r", (1,), 0, 0.8))
        with pytest.raises(ValueError, match="rule ids must be unique"):
            BeliefGraph(statements, rules, (0,))


class TestWithLabels:
    def test_unflipped_nodes_are_kept(self):
        g = synthetic_graph(0)
        assignment = g.initial_assignment()
        flipped = set(list(assignment)[::3])
        for sid in flipped:
            assignment[sid] = not assignment[sid]
        relabelled = g.with_labels(assignment)
        assert relabelled.rules == g.rules and relabelled.hypotheses == g.hypotheses
        for sid, node in g.statements.items():
            if sid in flipped:
                assert relabelled.statements[sid] == replace(node, label=assignment[sid])
            else:
                assert relabelled.statements[sid] is node
