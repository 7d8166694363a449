import hashlib
import random
import sys
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings

from beliefgraph import (
    HARD,
    BeliefGraph,
    CalibrationConfig,
    ExplanationSubgraph,
    ReasoningError,
    RuleNode,
    SolverLimitError,
    RuleType,
    StatementNode,
    WeightedClauseSet,
    consistency,
    encode,
    extract_explanation,
    generate_graph,
    reason,
    resolve_interactive,
    save_graph,
    solve,
    total_cost,
)
from beliefgraph import model, reasoner
from beliefgraph.cli import main
from beliefgraph.dot import to_dot
from beliefgraph.reasoner import summarize
from beliefgraph.serialize import dumps, outcome_to_document
from beliefgraph.synthetic import synthetic_graph
from conftest import acceptance_graphs, overflow_graph
from reference_solver import literal_clauses, score
from test_maxsat import chain_or_star, small_pinned_graph, tie_graphs
from test_solver_milp import shared_premise_questions

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
                    rule.id for rule in model.scan_rules(graph.rules, a)[2] if not rule.is_hard
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


def _refuse_clause_list(monkeypatch):
    def refuse(self):
        raise AssertionError("the clause list was built")

    monkeypatch.setattr(WeightedClauseSet, "clauses", property(refuse))


def _by_even_length(text):
    return len(text) % 2 == 0


class TestNoClauseList:
    """Nothing on the way from `encode` to an outcome or an error builds the
    clause list: ``clauses`` is derived only when read, and `reason` scores
    the assignment, and tells overflow from infeasibility, off the graph."""

    def test_reason_builds_no_clause_list(self, monkeypatch):
        graphs = acceptance_graphs(20)
        expected = [reason(graph) for graph in graphs]
        _refuse_clause_list(monkeypatch)
        assert [reason(graph) for graph in graphs] == expected

    def test_pinned_resolve_builds_no_clause_list(self, monkeypatch):
        graph = acceptance_graphs(1)[0]
        expected = resolve_interactive(graph, _by_even_length)
        assert expected != reason(graph)  # some statement was pinned
        _refuse_clause_list(monkeypatch)
        assert resolve_interactive(graph, _by_even_length) == expected

    def test_cli_reason_builds_no_clause_list(self, monkeypatch, tmp_path):
        save_graph(acceptance_graphs(1)[0], tmp_path / "g.json")

        def run(name):
            argv = ["reason", str(tmp_path / "g.json"), "-o", str(tmp_path / f"{name}.json"),
                    "--export-dot", str(tmp_path / f"{name}.dot")]
            assert main(argv) == 0
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "dot")]

        expected = run("free")
        _refuse_clause_list(monkeypatch)
        assert run("guarded") == expected

    def test_overflow_builds_no_clause_list(self, monkeypatch):
        _refuse_clause_list(monkeypatch)
        with pytest.raises(SolverLimitError, match="sum past the largest float"):
            reason(overflow_graph(1e308))

    def test_infeasible_pins_build_no_clause_list(self, monkeypatch):
        _refuse_clause_list(monkeypatch)
        with pytest.raises(ReasoningError, match="jointly unsatisfiable"):
            reason(reason_infeasible_graph(), pins={0: False, 1: False})


def dense_construction_graphs():
    """((premises per fact, seed, question), graph) for the 60 construction
    graphs of three or four premises per fact over 400 shared facts."""
    cfg = CalibrationConfig()
    for fact_premises in (3, 4):
        for seed in range(3):
            oracle, questions = shared_premise_questions(seed, vocabulary=400,
                                                          fact_premises=fact_premises)
            for q, hypotheses in enumerate(questions):
                yield (fact_premises, seed, q), generate_graph(hypotheses, oracle, cfg)


def _counting_rule_passes(monkeypatch):
    """Wrap `scan_rules` wherever a package module binds it, and return a
    function that makes a call and gives its result and the `scan_rules`
    passes it made, counted by the function that made each."""
    scan = model.scan_rules
    passes = Counter()

    def counted(*args):
        passes[sys._getframe(1).f_code.co_name] += 1
        return scan(*args)

    bound = set()
    for name, module in list(sys.modules.items()):
        if name == "beliefgraph" or name.startswith("beliefgraph."):
            for attribute, value in list(vars(module).items()):
                if value is scan:
                    monkeypatch.setattr(module, attribute, counted)
                    bound.add(name)
    assert bound >= {"beliefgraph.model", "beliefgraph.reasoner", "beliefgraph.dot"}

    def count(call, *args):
        passes.clear()
        return call(*args), dict(passes)

    return count


class TestOneRulePass:
    """Scoring, explanations, consistency and DOT rendering each read the
    rules in one `scan_rules` pass, never one rule at a time."""

    def test_reason_consistency_summarize_and_dot(self, monkeypatch):
        count = _counting_rule_passes(monkeypatch)
        for graph in acceptance_graphs(20):
            outcome, passes = count(reason, graph)
            assert passes == {"reason": 1}
            a = outcome.final_assignment
            assert count(consistency, graph)[1] == {"consistency": 1}
            assert count(consistency, graph, a)[1] == {"consistency": 1}
            assert count(summarize, graph, outcome)[1] == {"consistency": 2}
            assert count(to_dot, graph, a, outcome.discarded_rules)[1] == {"to_dot": 1}

    def test_pinned_resolve_makes_one_pass_per_solve(self, monkeypatch):
        count = _counting_rule_passes(monkeypatch)
        pinned = 0
        for graph in acceptance_graphs(20):
            asked = []

            def answer(text):
                asked.append(text)
                return _by_even_length(text)

            assert count(resolve_interactive, graph, answer)[1] == {"reason": 1 + len(asked)}
            pinned += bool(asked)
        assert pinned  # some statements were pinned

    def test_cli_reason_with_dot(self, monkeypatch, tmp_path):
        graphs = acceptance_graphs(20)
        for i, graph in enumerate(graphs):
            save_graph(graph, tmp_path / f"g{i}.json")
        count = _counting_rule_passes(monkeypatch)
        for i in range(len(graphs)):
            argv = ["reason", str(tmp_path / f"g{i}.json"), "-o", str(tmp_path / f"o{i}.json"),
                    "--export-dot", str(tmp_path / f"o{i}.dot")]
            # One pass to reason, two to summarize, one to render.
            assert count(main, argv) == (0, {"reason": 1, "consistency": 2, "to_dot": 1})


def clause_scan(graph, assignment):
    """(applicable, violated) clauses of ``graph``'s rules, read clause by
    clause off `encode`'s clause list in the reference's literal form: a
    clause applies when the statements of its negative literals are all
    true, and is violated when also none of its positive literals'
    statements is.  Statement units carry no rule id and are skipped."""
    cs = encode(graph)
    applicable = violated = 0
    for (_, _, _, rule_id), (literals, _) in zip(cs.clauses, literal_clauses(cs)):
        if rule_id is not None and all(assignment[v] for v, pol in literals if not pol):
            applicable += 1
            violated += not any(assignment[v] for v, pol in literals if pol)
    return applicable, violated


def explanation_walk(graph, assignment, root):
    """The explanation of ``root``, by a breadth-first walk over the
    entailment rules whose premises and conclusion are all believed."""
    held = [
        rule for rule in graph.rules
        if rule.rule_type is RuleType.ENTAILMENT and all(map(assignment.__getitem__, rule.statement_ids()))
    ]
    statements, support, frontier = {root}, {}, deque([root])
    while frontier:
        sid = frontier.popleft()
        concluding = [rule for rule in held if rule.hypothesis_ids == (sid,)]
        if concluding:
            support[sid] = tuple(rule.id for rule in concluding)
        for rule in concluding:
            for p in rule.premise_ids:
                if p not in statements:
                    statements.add(p)
                    frontier.append(p)
    return ExplanationSubgraph(root, frozenset(statements), support)


def check_against_the_clauses(graph, seed):
    """`consistency` counts what `clause_scan` counts under the initial,
    the final and a seeded random assignment, and each prediction's
    explanation is the breadth-first walk over the held entailment rules,
    its support in the walk's order."""
    outcome = reason(graph)
    rng = random.Random(seed)
    drawn = {sid: rng.random() < 0.5 for sid in graph.statements}
    for a in (graph.initial_assignment(), outcome.final_assignment, drawn):
        report = consistency(graph, a)
        assert (report.applicable_rules, report.violated_rules) == clause_scan(graph, a)
    for root in outcome.predictions:
        walk = explanation_walk(graph, outcome.final_assignment, root)
        explanation = outcome.explanation_roots[root]
        assert explanation == walk
        assert list(explanation.support.items()) == list(walk.support.items())


class TestConsistencyAgainstTheClauses:
    def test_synthetic_graphs(self):
        for seed in range(100):
            check_against_the_clauses(synthetic_graph(seed), seed)

    def test_dense_construction_graphs(self):
        for i, (_, graph) in enumerate(dense_construction_graphs()):
            check_against_the_clauses(graph, i)


def check_scored_as_the_clauses(graph, pins=None):
    """`reason`'s cost is bit for bit the tests' clause-order sum over
    ``encode(graph, pins).clauses``, its discarded rules are the rule ids
    of the violated clauses, and it raises `ReasoningError` exactly where
    that sum is infinite.  Returns whether the instance is feasible."""
    cs = encode(graph, pins)
    scored = score(cs, solve(cs))
    if not scored.feasible:
        with pytest.raises(ReasoningError):
            reason(graph, pins)
        return False
    outcome = reason(graph, pins)
    clauses = cs.clauses
    assert outcome.final_assignment == scored.assignment
    assert repr(outcome.optimal_cost) == repr(scored.optimal_cost)
    assert outcome.discarded_rules == {clauses[i][3] for i in scored.violated} - {None}
    return True


class TestScoredAsTheClauses:
    def test_synthetic_graphs(self):
        for seed in range(100):
            assert check_scored_as_the_clauses(synthetic_graph(seed)), seed

    def test_dense_construction_graphs(self):
        """The 60 graphs of three or four premises per fact over 400 facts,
        with elimination widths of 3 to 12."""
        for case, graph in dense_construction_graphs():
            assert check_scored_as_the_clauses(graph), case

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_graphs(chain_or_star()))
    def test_pinned_tie_graphs(self, graph_and_pins):
        check_scored_as_the_clauses(*graph_and_pins)

    def test_a_broken_pin_costs_infinity(self, monkeypatch):
        """The score reads the pins: an assignment that breaks one raises
        `ReasoningError`, although it violates no HARD rule."""
        statements = {sid: StatementNode(sid, f"s{sid}", True, 0.5) for sid in (0, 1)}
        graph = BeliefGraph(statements, (), (0,))
        unpinned = reasoner.solve

        def breaking_the_pin(cs):
            result = unpinned(cs)
            return replace(result, assignment={**result.assignment, 1: not cs.pins[1]})

        monkeypatch.setattr(reasoner, "solve", breaking_the_pin)
        with pytest.raises(ReasoningError):
            reason(graph, {1: True})

    def test_small_pinned_graphs(self):
        """Rules of every type, zero confidences and pins, some of which
        no assignment keeps."""
        feasible = sum(check_scored_as_the_clauses(*small_pinned_graph(seed)) for seed in range(150))
        assert 10 <= feasible <= 140


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

    def test_outcome_bytes_ignore_assignment_order(self):
        """`dumps` is the one sort of the assignment: the outcome bytes do
        not depend on the order ``final_assignment`` was filled in."""
        for graph in acceptance_graphs(20):
            outcome = reason(graph)
            summary = summarize(graph, outcome)
            backwards = replace(outcome, final_assignment=dict(reversed(outcome.final_assignment.items())))
            assert list(backwards.final_assignment) != list(outcome.final_assignment)
            assert dumps(outcome_to_document(backwards, summary)) == dumps(
                outcome_to_document(outcome, summary)
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
