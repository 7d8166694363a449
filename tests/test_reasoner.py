import hashlib
from dataclasses import replace

import pytest

from beliefgraph import (
    HARD,
    BeliefGraph,
    ReasoningError,
    RuleNode,
    RuleType,
    StatementNode,
    consistency,
    extract_explanation,
    reason,
    resolve_interactive,
    total_cost,
)
from beliefgraph.metrics import summarize
from beliefgraph.serialize import dumps, outcome_to_document
from beliefgraph.synthetic import synthetic_graph
from conftest import acceptance_graphs

# sha256 of the outcome documents, with summaries, of synthetic_graph seeds
# 0-99 and synthetic_graph(0, 3, 3000, 700).  A change that moves any byte
# of an outcome must update it and say why in CHANGES.md.
OUTCOME_DIGEST = "00a7ccd387d7b70036f545aa8f4a2959b1a4e1f5e6ed709c32579a11b546253c"


class TestReason:
    def test_xor_conflict_flips_weaker_answer(self, giraffe_graph):
        outcome = reason(giraffe_graph)
        assert outcome.flipped == {1}
        assert outcome.discarded_rules == frozenset()
        assert outcome.predictions == {0}

    def test_supported_belief_flipped_true(self, flip_to_true_graph):
        outcome = reason(flip_to_true_graph)
        assert outcome.flipped == {0}
        assert outcome.final_assignment[0] is True
        assert outcome.predictions == {0}

    def test_weakest_premise_flipped(self, weakest_premise_graph):
        outcome = reason(weakest_premise_graph)
        assert outcome.flipped == {2}
        assert outcome.final_assignment[0] is False  # conclusion stays disbelieved

    def test_bad_rule_discarded_no_flips(self, bad_rule_graph):
        outcome = reason(bad_rule_graph)
        assert outcome.flipped == frozenset()
        assert outcome.discarded_rules == {"r0"}

    def test_updated_graph_structure(self, bad_rule_graph):
        outcome = reason(bad_rule_graph)
        updated = outcome.updated_graph
        assert set(updated.statements) == set(bad_rule_graph.statements)
        assert {r.id for r in updated.rules} == {"r1", "r2"}
        for sid, node in updated.statements.items():
            assert node.label == outcome.final_assignment[sid]

    def test_updated_graph_self_consistent(self, giraffe_graph, cylinder_graph):
        for g in (giraffe_graph, cylinder_graph):
            outcome = reason(g)
            assert consistency(outcome.updated_graph).tau == 0.0

    def test_cost_never_increases(self, giraffe_graph, cylinder_graph):
        for g in (giraffe_graph, cylinder_graph):
            outcome = reason(g)
            assert total_cost(g, outcome.final_assignment) <= total_cost(
                g, g.initial_assignment()
            )

    def test_consistent_graph_is_fixpoint(self):
        statements = {
            0: StatementNode(0, "a", True, 0.9),
            1: StatementNode(1, "b", True, 0.8),
        }
        rules = (RuleNode("r", RuleType.ENTAILMENT, (1,), (0,), 0.7),)
        g = BeliefGraph(statements, rules, (0,))
        outcome = reason(g)
        assert outcome.flipped == frozenset()
        assert outcome.discarded_rules == frozenset()
        assert total_cost(g, outcome.final_assignment) == total_cost(
            g, g.initial_assignment()
        )

    def test_infeasible_raises(self):
        g = reason_infeasible_graph()
        with pytest.raises(ReasoningError):
            reason(g, pins={0: False, 1: False})

    def test_prediction_invariant_under_weight_scaling(self, giraffe_graph):
        base = reason(giraffe_graph)
        for scale in (0.25, 3.0):
            scaled_statements = {
                sid: StatementNode(
                    id=n.id, text=n.text, label=n.label,
                    confidence=min(1.0, n.confidence * scale) if scale < 1 else n.confidence,
                    depth=n.depth, is_negation_of=n.is_negation_of,
                )
                for sid, n in giraffe_graph.statements.items()
            }
        # Uniform scaling of every soft weight: scale statement confidences
        # and rule confidences together by 0.5.
        half = 0.5
        statements = {
            sid: StatementNode(
                id=n.id, text=n.text, label=n.label, confidence=n.confidence * half,
                depth=n.depth, is_negation_of=n.is_negation_of,
            )
            for sid, n in giraffe_graph.statements.items()
        }
        rules = tuple(
            r if r.is_hard else RuleNode(
                r.id, r.rule_type, r.premise_ids, r.hypothesis_ids,
                r.confidence * half, r.raw_score,
            )
            for r in giraffe_graph.rules
        )
        scaled = BeliefGraph(statements, rules, giraffe_graph.hypotheses)
        assert reason(scaled).predictions == base.predictions


def reason_infeasible_graph():
    statements = {
        0: StatementNode(0, "a", True, 0.9),
        1: StatementNode(1, "b", True, 0.9),
    }
    rules = (
        RuleNode("mc", RuleType.MC_HARD, (), (0, 1), HARD),
    )
    return BeliefGraph(statements, rules, (0, 1))


class TestPredict:
    def test_singleton(self, giraffe_graph):
        assert reason(giraffe_graph).predictions == {0}

    def test_multiple_true_hypotheses_all_returned(self):
        # Strong beliefs override the soft pairwise exclusion.
        statements = {
            0: StatementNode(0, "a", True, 0.99),
            1: StatementNode(1, "b", True, 0.99),
        }
        rules = (RuleNode("mc", RuleType.MC_PAIRWISE, (), (0, 1), 0.3),)
        g = BeliefGraph(statements, rules, (0, 1))
        assert reason(g).predictions == {0, 1}

    def test_ablated_mc_can_leave_empty_prediction(self):
        statements = {
            0: StatementNode(0, "a", False, 0.9),
            1: StatementNode(1, "b", False, 0.9),
        }
        g = BeliefGraph(statements, (), (0, 1))
        assert reason(g).predictions == frozenset()


class TestExplanations:
    def test_supporting_rules_collected(self, flip_to_true_graph):
        outcome = reason(flip_to_true_graph)
        sub = extract_explanation(outcome, 0)
        assert set(sub.rule_ids) == {"r0", "r1"}
        assert sub.statement_ids == {0, 2, 3, 4}

    def test_all_statements_true_in_updated_graph(self, flip_to_true_graph):
        outcome = reason(flip_to_true_graph)
        sub = extract_explanation(outcome, 0)
        for sid in sub.statement_ids:
            assert outcome.updated_graph.statements[sid].label is True

    def test_root_only_when_no_support(self, giraffe_graph):
        outcome = reason(giraffe_graph)
        # hypothesis 0 is supported by r0 whose premises are believed
        sub = extract_explanation(outcome, 0)
        assert sub.rule_ids == ("r0",)
        # a premise node with no rules of its own explains only itself
        sub3 = reason(giraffe_graph).explanation_roots[0]
        assert 3 in sub3.statement_ids

    def test_diamond_support_includes_both_rules(self):
        statements = {
            0: StatementNode(0, "goal", True, 0.9),
            1: StatementNode(1, "left", True, 0.9),
            2: StatementNode(2, "right", True, 0.9),
        }
        rules = (
            RuleNode("ra", RuleType.ENTAILMENT, (1,), (0,), 0.8),
            RuleNode("rb", RuleType.ENTAILMENT, (2,), (0,), 0.8),
        )
        g = BeliefGraph(statements, rules, (0,))
        sub = extract_explanation(reason(g), 0)
        assert set(sub.rule_ids) == {"ra", "rb"}

    def test_disbelieved_root_rejected(self, giraffe_graph):
        outcome = reason(giraffe_graph)
        with pytest.raises(ValueError):
            extract_explanation(outcome, 1)

    def test_explanation_rules_never_discarded(self, cylinder_graph):
        outcome = reason(cylinder_graph)
        for sub in outcome.explanation_roots.values():
            for rid in sub.rule_ids:
                assert rid not in outcome.discarded_rules


class TestInteractiveResolution:
    def test_pinning_resolves_conflicts(self, cylinder_graph):
        asked = []

        def always_yes(text):
            asked.append(text)
            return True

        outcome = resolve_interactive(cylinder_graph, always_yes)
        assert asked == ["a graduated cylinder is used to measure liquids"]
        assert outcome.discarded_rules == frozenset()
        assert outcome.predictions == {1}

    def test_no_conflicts_no_queries(self, giraffe_graph):
        asked = []
        outcome = resolve_interactive(giraffe_graph, lambda t: asked.append(t) or True)
        assert asked == []
        assert outcome.flipped == reason(giraffe_graph).flipped

    def test_zero_budget_is_plain_reasoning(self, cylinder_graph):
        outcome = resolve_interactive(cylinder_graph, lambda t: True, budget=0)
        plain = reason(cylinder_graph)
        assert outcome.final_assignment == plain.final_assignment
        assert outcome.discarded_rules == plain.discarded_rules

    def test_negative_budget_raises(self, cylinder_graph):
        asked = []
        with pytest.raises(ValueError, match="must not be negative"):
            resolve_interactive(cylinder_graph, lambda t: asked.append(t) or True, budget=-3)
        assert asked == []

    def test_unavailable_source_falls_back(self, cylinder_graph):
        def closed(text):
            raise EOFError("no interactive input available")

        outcome = resolve_interactive(cylinder_graph, closed)
        plain = reason(cylinder_graph)
        assert outcome.final_assignment == plain.final_assignment

    def test_source_error_propagates(self, cylinder_graph):
        def broken(text):
            raise RuntimeError("bug in the answer source")

        with pytest.raises(RuntimeError, match="bug in the answer source"):
            resolve_interactive(cylinder_graph, broken)

    def test_none_source_falls_back(self, cylinder_graph):
        outcome = resolve_interactive(cylinder_graph, None)
        assert outcome.final_assignment == reason(cylinder_graph).final_assignment


class TestSyntheticGraphs:
    def test_updated_graph_equals_checked_build(self):
        for graph in acceptance_graphs(50):
            outcome = reason(graph)
            a = outcome.final_assignment
            statements = {
                sid: replace(node, label=a[sid]) for sid, node in graph.statements.items()
            }
            rules = tuple(r for r in graph.rules if r.id not in outcome.discarded_rules)
            checked = BeliefGraph(statements, rules, graph.hypotheses)
            assert outcome.updated_graph == checked
            assert type(outcome.updated_graph) is BeliefGraph

    def test_small_batch_end_to_end(self):
        for seed in range(5):
            g = synthetic_graph(seed, target_statements=80, target_rules=30)
            before = consistency(g)
            assert before.tau > 0.0
            outcome = reason(g)
            assert consistency(outcome.updated_graph).tau == 0.0
            assert total_cost(g, outcome.final_assignment) <= total_cost(
                g, g.initial_assignment()
            )

    def test_outcome_documents_unchanged(self):
        graphs = [synthetic_graph(seed) for seed in range(100)]
        graphs.append(synthetic_graph(0, 3, 3000, 700))
        digest = hashlib.sha256()
        for graph in graphs:
            outcome = reason(graph)
            document = outcome_to_document(outcome, summarize(graph, outcome))
            digest.update(dumps(document).encode())
        assert digest.hexdigest() == OUTCOME_DIGEST
