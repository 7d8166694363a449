import pytest

from beliefgraph import (
    HARD,
    BeliefGraph,
    HypothesisSet,
    MockOracle,
    RuleNode,
    RuleType,
    StatementNode,
    ablate,
    consistency,
    evaluate_dataset,
    generate_graph,
    mc_accuracy,
    reason,
)
from conftest import TRACE_PREMISES, TRACE_SCORES


def two_rule_graph():
    """Two applicable entailment clauses, exactly one violated."""
    statements = {
        0: StatementNode(0, "violated conclusion", False, 0.9),
        1: StatementNode(1, "premise one", True, 0.9),
        2: StatementNode(2, "premise two", True, 0.9),
        3: StatementNode(3, "satisfied conclusion", True, 0.9),
    }
    rules = (
        RuleNode("bad", RuleType.ENTAILMENT, (1,), (0,), 0.8),
        RuleNode("good", RuleType.ENTAILMENT, (2,), (3,), 0.8),
    )
    return BeliefGraph(statements, rules, (0, 3))


class TestConsistency:
    def test_worked_example_half(self):
        report = consistency(two_rule_graph())
        assert report.applicable_rules == 2
        assert report.violated_rules == 1
        assert report.tau == 0.5
        assert report.self_consistency == 0.5

    def test_inapplicable_clause_is_vacuous(self):
        g = two_rule_graph()
        # Disbelieve the premise of the violated rule: it stops applying.
        statements = dict(g.statements)
        statements[1] = StatementNode(1, "premise one", False, 0.9)
        g2 = BeliefGraph(statements, g.rules, g.hypotheses)
        report = consistency(g2)
        assert report.applicable_rules == 1
        assert report.tau == 0.0

    def test_no_applicable_clauses_tau_zero(self):
        statements = {0: StatementNode(0, "alone", True, 0.9)}
        g = BeliefGraph(statements, (), (0,))
        report = consistency(g)
        assert report.applicable_rules == 0
        assert report.tau == 0.0
        assert report.self_consistency == 1.0

    def test_explicit_assignment_overrides_labels(self):
        g = two_rule_graph()
        fixed = dict(g.initial_assignment())
        fixed[0] = True
        assert consistency(g, fixed).tau == 0.0

    def test_entailment_only_filter(self, giraffe_graph):
        full = consistency(giraffe_graph)
        ent = consistency(ablate(giraffe_graph, ["xor", "mc"]))
        assert ent.applicable_rules <= full.applicable_rules
        # The giraffe fixture's initial violations are the XOR pair and the
        # pairwise exclusion; its entailment rule is satisfied.
        assert ent.violated_rules == 0
        assert full.violated_rules == 2
        assert full.tau == pytest.approx(0.4)

    def test_xor_clause_counting(self, xor_essential_graph):
        # (h or negh) is applicable and satisfied; (not h or not negh) has
        # both premises believed and no satisfying literal: violated.
        report = consistency(xor_essential_graph)
        assert report.violated_rules == 1

    def test_after_reasoning_tau_zero(self, giraffe_graph):
        outcome = reason(giraffe_graph)
        assert consistency(outcome.updated_graph).tau == 0.0


class TestMcAccuracy:
    def test_correct_singleton(self):
        assert mc_accuracy({2}, 2, 4) == 1.0

    def test_gold_among_many(self):
        assert mc_accuracy({0, 2}, 2, 4) == 0.5
        assert mc_accuracy({0, 1, 2}, 2, 4) == pytest.approx(1 / 3)

    def test_no_prediction_scores_chance(self):
        assert mc_accuracy(set(), 2, 4) == 0.25

    def test_wrong_prediction(self):
        assert mc_accuracy({0}, 2, 4) == 0.0
        assert mc_accuracy({0, 1}, 2, 4) == 0.0

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            mc_accuracy({0}, 4, 4)
        with pytest.raises(ValueError):
            mc_accuracy({7}, 0, 4)


class TestAblate:
    def test_masked_types_removed(self, giraffe_graph):
        g = ablate(giraffe_graph, {"xor"})
        assert {r.rule_type for r in g.rules} == {
            RuleType.ENTAILMENT,
            RuleType.MC_HARD,
            RuleType.MC_PAIRWISE,
        }

    def test_mc_masks_both_kinds(self, giraffe_graph):
        g = ablate(giraffe_graph, {"mc"})
        assert {r.rule_type for r in g.rules} == {
            RuleType.ENTAILMENT,
            RuleType.XOR_PAIR,
        }

    def test_statements_untouched(self, giraffe_graph):
        g = ablate(giraffe_graph, {"entailment"})
        assert g.statements == giraffe_graph.statements
        assert g.hypotheses == giraffe_graph.hypotheses

    def test_unknown_group_rejected(self, giraffe_graph):
        with pytest.raises(ValueError):
            ablate(giraffe_graph, {"hard"})
        with pytest.raises(ValueError):
            ablate(giraffe_graph, set())

    def test_xor_more_essential_than_mc(self, xor_essential_graph):
        """Masking the XOR pair leaves a post-hoc contradiction in the full
        graph; masking the MC rules does not."""
        full = xor_essential_graph

        def post_hoc(mask):
            outcome = reason(ablate(full, mask))
            return consistency(full, outcome.final_assignment).self_consistency

        assert post_hoc({"xor"}) == pytest.approx(2 / 3)
        assert post_hoc({"mc"}) == 1.0
        assert post_hoc({"xor"}) < post_hoc({"mc"})


def consistency_after(question, oracle):
    """Self-consistency of the original graph under the post-reasoning
    beliefs, computed without `evaluate_dataset`."""
    graph = generate_graph(question, oracle)
    return consistency(graph, reason(graph).final_assignment).self_consistency


class TestEvaluateDataset:
    def oracle(self):
        return MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES)

    def test_trace_question(self):
        question = HypothesisSet(
            ("Alpha is a mammal.", "Alpha is a reptile."), gold_index=0,
            question_id="q1",
        )
        report = evaluate_dataset([question], self.oracle())
        assert len(report.records) == 1
        record = report.records[0]
        assert record.question_id == "q1"
        assert record.accuracy_before == 1.0
        assert record.accuracy_after == 1.0
        assert report.consistency_after == consistency_after(question, self.oracle())
        assert report.failures == ()

    def test_consistency_after_keeps_discarded_rules(self):
        """A weak entailment rule is discarded, so the repair leaves it
        violated; "after" is measured on the original graph, not on the
        updated graph that no longer holds the rule."""
        oracle = MockOracle(
            premises={"alpha is a reptile": ["alpha lays eggs"]},
            statement_scores={
                "alpha is a mammal": 0.9,
                "alpha is a reptile": 0.1,
                "alpha lays eggs": 0.95,
            },
            entailment_scores={"alpha lays eggs => alpha is a reptile": 0.6},
        )
        questions = [
            HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile."), 0, "weak rule"),
            HypothesisSet(("Alpha is a mammal.", "Alpha is a bird."), 0, "consistent"),
        ]
        report = evaluate_dataset(questions, oracle)
        expected = [consistency_after(q, oracle) for q in questions]
        assert expected[0] < 1.0
        assert [r.consistency_after for r in report.records] == expected
        assert report.consistency_after == sum(expected) / len(expected)
        assert report.records[0].discarded_rules == 1

    def test_unscored_question_skips_accuracy(self):
        question = HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile."))
        report = evaluate_dataset([question], self.oracle())
        assert report.accuracy_before is None
        assert report.accuracy_after is None
        assert report.consistency_after is not None

    def test_all_failures_raise(self):
        class Broken:
            def generate_premises(self, s):
                raise RuntimeError("down")

            def score_statement(self, s):
                raise RuntimeError("down")

            def score_entailment(self, premises, h):
                raise RuntimeError("down")

            def negate(self, s):
                raise RuntimeError("down")

        q = HypothesisSet(("a", "b"))
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                evaluate_dataset([q], Broken())

    def test_partial_failure_keeps_going(self):
        base = self.oracle()

        class Flaky:
            def generate_premises(self, s):
                if "unknown" in s:
                    raise RuntimeError("no premises available")
                return base.generate_premises(s)

            def score_statement(self, s):
                return base.score_statement(s)

            def score_entailment(self, premises, h):
                return base.score_entailment(premises, h)

            def negate(self, s):
                return base.negate(s)

        good = HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile."),
                             gold_index=0, question_id="good")
        bad = HypothesisSet(("unknown thing one", "unknown thing two"),
                            question_id="bad")
        with pytest.warns(UserWarning, match="bad"):
            report = evaluate_dataset([good, bad], Flaky())
        assert len(report.records) == 1
        assert report.failures[0][0] == "bad"
        assert report.accuracy_after == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([], self.oracle())
