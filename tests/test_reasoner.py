import hashlib
from dataclasses import replace

import pytest

from beliefgraph import (
    HARD,
    BeliefGraph,
    ReasoningError,
    RuleNode,
    SolverLimitError,
    RuleType,
    StatementNode,
    consistency,
    extract_explanation,
    reason,
    resolve_interactive,
    rule_satisfied,
    total_cost,
)
from beliefgraph import reasoner
from beliefgraph.reasoner import summarize
from beliefgraph.serialize import dumps, outcome_to_document
from beliefgraph.synthetic import synthetic_graph
from conftest import acceptance_graphs, overflow_graph

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

    def test_violated_zero_confidence_rule_is_discarded(self):
        # The rule's clause has weight 0 and no table, so the optimum keeps
        # both labels and violates it; the hard rule holds and is never
        # discarded.
        statements = {
            0: StatementNode(0, "a", True, 0.9),
            1: StatementNode(1, "b", False, 0.9),
            2: StatementNode(2, "c", True, 0.2),
        }
        rules = (
            RuleNode("free", RuleType.ENTAILMENT, (0,), (1,), 0.0),
            RuleNode("kept", RuleType.ENTAILMENT, (2,), (0,), 0.0),
            RuleNode("mc", RuleType.MC_HARD, (), (1, 2), HARD),
        )
        outcome = reason(BeliefGraph(statements, rules, (1, 2)))
        assert outcome.flipped == frozenset()
        assert outcome.discarded_rules == {"free"}
        assert [r.id for r in outcome.updated_graph.rules] == ["kept", "mc"]

    def test_discarded_rules_are_the_violated_soft_rules(self):
        for graph in acceptance_graphs(50):
            h = graph.hypotheses[0]
            for pins in (None, {h: not graph.statements[h].label}):
                outcome = reason(graph, pins)
                a = outcome.final_assignment
                assert outcome.discarded_rules == {
                    rule.id for rule in graph.rules
                    if not rule.is_hard and not rule_satisfied(rule, a)
                }
                assert not any(rule.is_hard for rule in graph.rules
                               if rule.id in outcome.discarded_rules)

    def test_infeasible_raises(self):
        g = reason_infeasible_graph()
        with pytest.raises(ReasoningError):
            reason(g, pins={0: False, 1: False})

    def test_soft_weights_past_the_largest_float_are_a_solver_limit(self):
        """An optimum of 3e308 overflows to infinity, which is not proof of
        infeasibility; at 5e307 the same graph solves, and pinning every
        hypothesis false still makes it infeasible."""
        with pytest.raises(SolverLimitError, match="sum past the largest float"):
            reason(overflow_graph(1e308))
        graph = overflow_graph(5e307)
        outcome = reason(graph)
        assert outcome.optimal_cost == 1.5e308
        assert outcome.discarded_rules == {"m01", "m02", "m12"}
        with pytest.raises(ReasoningError):
            reason(graph, pins=dict.fromkeys(graph.hypotheses, False))

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

    def test_believed_statement_that_is_no_hypothesis(self, flip_to_true_graph):
        outcome = reason(flip_to_true_graph)
        assert 2 not in outcome.explanation_roots
        sub = extract_explanation(outcome, 2)
        assert sub.statement_ids == {2} and sub.rule_ids == ()
        sub = extract_explanation(outcome, 0)
        assert sub is outcome.explanation_roots[0]

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

    def test_stops_once_every_conflicting_statement_is_pinned(self, bad_rule_graph):
        """Verdicts that keep the conflict pin each statement of the discarded
        rule once, and then the loop stops with budget left."""
        asked = []

        def keep_labels(text):
            asked.append(text)
            return next(s.label for s in bad_rule_graph.statements.values() if s.text == text)

        outcome = resolve_interactive(bad_rule_graph, keep_labels, budget=10)
        assert len(asked) == 3 and len(set(asked)) == 3
        assert outcome.discarded_rules == {"r0"}

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

    @pytest.mark.parametrize(
        "answers, solves", [((), 1), ((True,), 2)],
        ids=["closed at once", "closed after one answer"],
    )
    def test_fallback_reuses_the_first_solve(self, cylinder_graph, monkeypatch, answers, solves):
        # A second conflict, so that a second question is asked.
        statements = dict(cylinder_graph.statements)
        statements[9] = StatementNode(9, "an extra premise", True, 0.95)
        statements[10] = StatementNode(10, "an extra conclusion", False, 0.9)
        extra = RuleNode("r_extra", RuleType.ENTAILMENT, (9,), (10,), 0.5)
        graph = BeliefGraph(statements, cylinder_graph.rules + (extra,), cylinder_graph.hypotheses)
        remaining = iter(answers)

        def source(text):
            for answer in remaining:
                return answer
            raise EOFError

        calls = []
        solve = reasoner.solve
        monkeypatch.setattr(reasoner, "solve", lambda cs: calls.append(cs) or solve(cs))
        outcome = resolve_interactive(graph, source)
        assert len(calls) == solves
        assert outcome == reason(graph)


def _refuse_relabelling(monkeypatch):
    def refuse(self, assignment):
        raise AssertionError("a repaired graph was built")

    monkeypatch.setattr(BeliefGraph, "with_labels", refuse)


class TestOutcomeGraph:
    """`reason` builds no repaired graph: the outcome keeps the graph it was
    given, and ``updated_graph`` is derived from it on each read."""

    def test_outcome_keeps_the_graph_it_was_given(self, giraffe_graph):
        assert reason(giraffe_graph).graph is giraffe_graph

    def test_reason_builds_no_repaired_graph(self, monkeypatch):
        graphs = acceptance_graphs(20)
        _refuse_relabelling(monkeypatch)
        for graph in graphs:
            assert reason(graph).graph is graph

    def test_explanation_fallback_builds_no_repaired_graph(self, monkeypatch):
        graphs = acceptance_graphs(20)
        _refuse_relabelling(monkeypatch)
        for outcome in map(reason, graphs):
            bare = replace(outcome, explanation_roots={})
            for root in outcome.predictions:
                assert extract_explanation(bare, root) == outcome.explanation_roots[root]

    def test_each_read_builds_a_new_equal_graph(self, bad_rule_graph):
        outcome = reason(bad_rule_graph)
        first, second = outcome.updated_graph, outcome.updated_graph
        assert first == second and first is not second
        assert outcome.graph is bad_rule_graph

    def test_updated_graph_is_read_only(self, giraffe_graph):
        outcome = reason(giraffe_graph)
        with pytest.raises(AttributeError):
            outcome.updated_graph = giraffe_graph
        with pytest.raises(TypeError):
            replace(outcome, updated_graph=giraffe_graph)


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
