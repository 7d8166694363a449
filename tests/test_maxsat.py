import math
import random
import sys
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import (
    HARD,
    BeliefGraph,
    RuleNode,
    RuleType,
    SolveStatus,
    SolverLimitError,
    StatementNode,
    WeightedClause,
    WeightedClauseSet,
    consistency,
    encode,
    reason,
    solve,
    total_cost,
)
from beliefgraph import maxsat
from beliefgraph.dot import to_dot
from beliefgraph.maxsat import MAX_WIDTH
from beliefgraph.synthetic import synthetic_graph
from conftest import acceptance_graphs, rule_clauses
from reference_solver import brute_force_solve, random_clause_set


def unit(var, pol, weight):
    return WeightedClause(((var, pol),), weight)


def unit_edge_clause_set(seed):
    """Up to 12 variables with many unit clauses: several per variable, soft
    and HARD, either polarity against the initial label, shuffled in among
    the wider clauses."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    variables = list(range(n))
    initial = {v: rng.random() < 0.5 for v in variables}

    def weight():
        return HARD if rng.random() < 0.1 else round(rng.uniform(0.05, 1.2), 2)

    clauses = [unit(rng.choice(variables), rng.random() < 0.5, weight())
               for _ in range(rng.randint(1, 3 * n))]
    if n > 1:
        for _ in range(rng.randint(0, 2 * n)):
            chosen = rng.sample(variables, rng.randint(2, min(4, n)))
            literals = tuple((v, rng.random() < 0.5) for v in chosen)
            clauses.append(WeightedClause(literals, weight()))
    rng.shuffle(clauses)
    return WeightedClauseSet(tuple(clauses), tuple(variables), initial)


def cs_of(clauses, initial=None):
    order = tuple(sorted({var for c in clauses for var, _ in c.literals}))
    labels = {var: True for var in order}
    labels.update(initial or {})
    return WeightedClauseSet(tuple(clauses), order, labels)


class TestClauseValidation:
    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            WeightedClause((), 1.0)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            WeightedClause(((0, True), (0, False)), 1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            unit(0, True, 0.0)

    def test_unknown_variable_in_order_rejected(self):
        with pytest.raises(ValueError):
            WeightedClauseSet((unit(0, True, 1.0),), (1,), {1: True})

    def test_variable_without_initial_label_rejected(self):
        with pytest.raises(ValueError, match="initial label"):
            WeightedClauseSet((unit(0, True, 1.0),), (0, 1), {0: True})


class TestEncoding:
    def test_single_statement(self):
        g = BeliefGraph(
            {0: StatementNode(0, "s", True, 0.9)}, (), (0,)
        )
        cs = encode(g)
        assert len(cs.clauses) == 1
        assert cs.clauses[0] == unit(0, True, 0.9)
        result = solve(cs)
        assert result.assignment == {0: True}
        assert result.optimal_cost == 0.0

    def test_zero_confidence_statement_unconstrained(self):
        g = BeliefGraph(
            {0: StatementNode(0, "s", True, 0.0), 1: StatementNode(1, "t", True, 0.5)},
            (),
            (0,),
        )
        cs = encode(g)
        assert len(cs.clauses) == 1

    def test_xor_contributes_two_clauses(self, giraffe_graph):
        cs = encode(giraffe_graph)
        # 5 units + 1 entailment + 2 xor + 1 hard mc + 1 pairwise mc
        assert len(cs.clauses) == 10
        hard = [c for c in cs.clauses if c.is_hard]
        assert len(hard) == 1
        assert hard[0].literals == ((0, True), (1, True))

    def test_hypotheses_order_first(self, giraffe_graph):
        cs = encode(giraffe_graph)
        assert cs.variable_order[:2] == (0, 1)

    def test_mc_hard_forces_one_true(self):
        statements = {
            0: StatementNode(0, "a", False, 0.9),
            1: StatementNode(1, "b", False, 0.6),
        }
        rules = (RuleNode("mc", RuleType.MC_HARD, (), (0, 1), HARD),)
        g = BeliefGraph(statements, rules, (0, 1))
        result = solve(encode(g))
        # brute force over 4 assignments: flip the weaker belief.
        assert result.assignment == {0: False, 1: True}
        assert result.optimal_cost == pytest.approx(0.6)

    def test_figure_fixture_optimum_flips_weaker(self, giraffe_graph):
        result = solve(encode(giraffe_graph))
        assert result.assignment[1] is False
        assert result.assignment[0] is True


def summary(result):
    """What must agree between two solves: assignment, exact cost, status,
    then search nodes and width."""
    return (
        result.assignment, repr(result.optimal_cost), result.status,
        result.nodes_explored, result.width,
    )


def small_pinned_graph(seed):
    """A random graph of 4-12 statements with rules of every type, and up to
    three pins; pinning every hypothesis false makes it infeasible."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    statements = {
        sid: StatementNode(sid, f"s{sid}", rng.random() < 0.5, rng.choice([0.0, 0.3, 0.6, 0.9]))
        for sid in range(n)
    }
    hypotheses = tuple(rng.sample(range(n), rng.randint(2, 3)))
    rules = [RuleNode("mc", RuleType.MC_HARD, (), hypotheses, HARD)]
    for i in range(rng.randint(1, 2 * n)):
        kind = rng.choice(list(RuleType))
        weight = HARD if kind is RuleType.MC_HARD else rng.choice([0.0, 0.25, 0.5, 1.1])
        if kind is RuleType.ENTAILMENT:
            ids = rng.sample(range(n), rng.randint(1, 4))
            rules.append(RuleNode(f"r{i}", kind, tuple(ids[1:]), (ids[0],), weight))
        else:
            ids = rng.sample(range(n), 2 if kind is not RuleType.MC_HARD else rng.randint(1, 3))
            rules.append(RuleNode(f"r{i}", kind, (), tuple(ids), weight))
    if rng.random() < 0.2:
        pins = {h: False for h in hypotheses}
    else:
        pins = {sid: rng.random() < 0.5 for sid in rng.sample(range(n), rng.randint(0, 3))}
    return BeliefGraph(statements, tuple(rules), hypotheses), pins


class TestCompiledForm:
    """`encode` compiles a graph straight into the form `solve` reads; the
    public constructor compiles `WeightedClause`s into the same form."""

    def test_both_ways_in_solve_alike(self):
        for i, graph in enumerate(acceptance_graphs(50)):
            h = graph.hypotheses[0]
            last = max(graph.statements)
            for pins in (None, {h: not graph.statements[h].label, last: True}):
                direct = encode(graph, pins)
                rebuilt = WeightedClauseSet(
                    direct.clauses, direct.variable_order, direct.initial_labels
                )
                assert rebuilt.clauses == direct.clauses
                a, b = solve(direct), solve(rebuilt)
                assert a.status is b.status, i
                assert a.assignment == b.assignment, i
                assert a.optimal_cost == b.optimal_cost, i
                assert (a.nodes_explored, a.width) == (b.nodes_explored, b.width), i

    def test_clause_count_unchanged(self):
        assert sum(len(encode(g).clauses) for g in acceptance_graphs(200)) == 44017

    def test_clauses_view_matches_rules(self, giraffe_graph):
        pins = {2: False}
        expected = [
            WeightedClause(((sid, node.label),), node.confidence)
            for sid, node in giraffe_graph.statements.items()
            if node.confidence > 0.0
        ]
        for rule in giraffe_graph.rules:
            expected += [WeightedClause(c, rule.confidence) for c in rule_clauses(rule)]
        expected.append(WeightedClause(((2, False),), HARD))
        assert encode(giraffe_graph, pins).clauses == tuple(expected)

    def test_pinned_small_graphs_match_brute_force(self):
        infeasible = 0
        for seed in range(150):
            graph, pins = small_pinned_graph(seed)
            direct = encode(graph, pins)
            rebuilt = WeightedClauseSet(
                direct.clauses, direct.variable_order, direct.initial_labels
            )
            a, b, slow = solve(direct), solve(rebuilt), brute_force_solve(direct)
            assert summary(a) == summary(b), seed
            assert summary(a)[:3] == summary(slow)[:3], seed
            infeasible += a.status is SolveStatus.INFEASIBLE
        assert 10 <= infeasible <= 140

    def test_width_limit_through_encode(self):
        # Every pair of statements is a pairwise rule, so the first
        # statement eliminated has MAX_WIDTH + 1 neighbours.
        n = MAX_WIDTH + 2
        statements = {sid: StatementNode(sid, f"s{sid}", True, 0.5) for sid in range(n)}
        rules = tuple(
            RuleNode(f"p{a}-{b}", RuleType.MC_PAIRWISE, (), (a, b), 0.5)
            for a, b in combinations(range(n), 2)
        )
        with pytest.raises(SolverLimitError):
            solve(encode(BeliefGraph(statements, rules, (0, 1))))

    def test_unknown_pin_rejected(self, giraffe_graph):
        with pytest.raises(ValueError, match="missing from variable order"):
            encode(giraffe_graph, {99: True})

    def test_reason_builds_no_clauses(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("clause built on the reasoning path")

        graph = synthetic_graph(0)
        expected = reason(graph)
        monkeypatch.setattr(WeightedClause, "__post_init__", forbidden)
        outcome = reason(graph)
        assert outcome.final_assignment == expected.final_assignment
        assert outcome.optimal_cost == expected.optimal_cost
        consistency(graph, outcome.final_assignment)
        to_dot(graph, outcome.final_assignment, outcome.discarded_rules)


class TestSolve:
    def test_hard_xor_pair(self):
        clauses = [
            unit(0, True, 0.9),
            unit(1, True, 0.6),
            WeightedClause(((0, True), (1, True)), HARD),
            WeightedClause(((0, False), (1, False)), HARD),
        ]
        result = solve(cs_of(clauses, {0: True, 1: True}))
        assert result.status is SolveStatus.OPTIMAL
        assert result.assignment == {0: True, 1: False}
        assert result.optimal_cost == pytest.approx(0.6)

    def test_infeasible(self):
        clauses = [unit(0, True, HARD), unit(0, False, HARD)]
        result = solve(cs_of(clauses))
        assert result.status is SolveStatus.INFEASIBLE
        assert math.isinf(result.optimal_cost)

    def test_supported_statement_flipped_true(self, flip_to_true_graph):
        result = solve(encode(flip_to_true_graph))
        assert result.assignment[0] is True
        assert result.optimal_cost == pytest.approx(0.4)

    def test_zero_confidence_rule_adds_no_clause(self, giraffe_graph):
        rules = tuple(replace(r, confidence=0.0) if r.id == "r1" else r
                      for r in giraffe_graph.rules)
        graph = BeliefGraph(giraffe_graph.statements, rules, giraffe_graph.hypotheses)
        assert len(encode(graph).clauses) == len(encode(giraffe_graph).clauses) - 2
        assert solve(encode(graph)).optimal_cost == pytest.approx(0.55)  # flip statement 1

    def test_variable_limit(self, monkeypatch):
        monkeypatch.setattr(maxsat, "MAX_VARIABLES", 5)
        clauses = [unit(v, True, 0.5) for v in range(10)]
        with pytest.raises(SolverLimitError):
            solve(cs_of(clauses))

    def test_deterministic_assignment(self):
        cs = random_clause_set(7)
        first = solve(cs)
        second = solve(cs)
        assert first.assignment == second.assignment
        assert first.optimal_cost == second.optimal_cost

    def test_width_limit(self):
        # Every pair shares a clause, so the first variable eliminated has
        # MAX_WIDTH + 1 neighbours.
        clauses = [
            WeightedClause(((a, False), (b, False)), 0.5)
            for a, b in combinations(range(MAX_WIDTH + 2), 2)
        ]
        with pytest.raises(SolverLimitError):
            solve(cs_of(clauses))

    def test_recursion_limit_untouched(self):
        before = sys.getrecursionlimit()
        graph = synthetic_graph(3, target_statements=3000, target_rules=700)
        assert len(graph.statements) > 1000
        solve(encode(graph))
        assert sys.getrecursionlimit() == before

    def test_nodes_explored_pinned(self):
        assert solve(encode(synthetic_graph(0))).nodes_explored == 1270

    def test_width(self):
        assert 1 <= solve(encode(synthetic_graph(0))).width <= 3
        units = [unit(0, True, 0.5), unit(0, False, 0.7), unit(1, False, HARD)]
        assert solve(cs_of(units)).width == 0

    def test_free_variables_keep_initial_labels(self):
        clauses = [unit(0, True, 0.5)]
        cs = WeightedClauseSet(tuple(clauses), (0, 5), {0: True, 5: False})
        result = solve(cs)
        assert result.assignment == {0: True, 5: False}


class TestBruteForce:
    def test_single_unit(self):
        result = brute_force_solve(cs_of([unit(0, True, 0.9)], {0: True}))
        assert result.assignment == {0: True}
        assert result.nodes_explored == 2

    def test_limit(self):
        clauses = [unit(v, True, 0.5) for v in range(23)]
        with pytest.raises(SolverLimitError):
            brute_force_solve(cs_of(clauses))

    def test_matches_solve_on_fixtures(
        self,
        giraffe_graph,
        flip_to_true_graph,
        weakest_premise_graph,
        bad_rule_graph,
        cylinder_graph,
        xor_essential_graph,
    ):
        for g in (
            giraffe_graph,
            flip_to_true_graph,
            weakest_premise_graph,
            bad_rule_graph,
            cylinder_graph,
            xor_essential_graph,
        ):
            cs = encode(g)
            fast = solve(cs)
            slow = brute_force_solve(cs)
            assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
            assert fast.assignment == slow.assignment

    def test_matches_solve_on_seeded_instances(self):
        for seed in range(40):
            cs = random_clause_set(seed)
            fast = solve(cs)
            slow = brute_force_solve(cs)
            assert fast.status == slow.status
            if fast.status is SolveStatus.OPTIMAL:
                assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
                assert fast.assignment == slow.assignment


    def test_matches_solve_on_unit_edge_cases(self):
        for seed in range(3000):
            cs = unit_edge_clause_set(seed)
            fast = solve(cs)
            slow = brute_force_solve(cs)
            assert fast.status == slow.status, seed
            if fast.status is SolveStatus.OPTIMAL:
                assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9), seed
                assert fast.assignment == slow.assignment, seed


class TestProperties:
    def test_cost_audit_against_graph(self, giraffe_graph):
        result = solve(encode(giraffe_graph))
        rule_free = total_cost(giraffe_graph, result.assignment)
        assert rule_free == pytest.approx(result.optimal_cost, abs=1e-9)

    def test_optimal_cost_is_exact_total_cost(self):
        # Summed in clause order, which is the order total_cost sums in.
        for seed in range(100):
            graph = synthetic_graph(seed)
            outcome = reason(graph)
            assert outcome.optimal_cost == total_cost(graph, outcome.final_assignment), seed

    def test_adding_soft_clause_never_decreases_cost(self):
        for seed in range(10):
            cs = random_clause_set(seed)
            base = solve(cs)
            if base.status is not SolveStatus.OPTIMAL:
                continue
            var = cs.variable_order[0]
            extra = unit(var, not cs.initial_labels[var], 0.4)
            bigger = WeightedClauseSet(
                cs.clauses + (extra,), cs.variable_order, cs.initial_labels
            )
            grown = solve(bigger)
            assert grown.optimal_cost >= base.optimal_cost - 1e-9

    def test_hard_clauses_always_satisfied(self):
        for seed in range(20):
            cs = random_clause_set(seed)
            result = solve(cs)
            if result.status is not SolveStatus.OPTIMAL:
                continue
            for clause in cs.clauses:
                if clause.is_hard:
                    assert any(
                        result.assignment[v] == pol for v, pol in clause.literals
                    )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_seeded_equivalence_property(self, seed):
        cs = random_clause_set(seed, min_variables=4, max_variables=10)
        fast = solve(cs)
        slow = brute_force_solve(cs)
        assert fast.status == slow.status
        if fast.status is SolveStatus.OPTIMAL:
            assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
            assert fast.assignment == slow.assignment
