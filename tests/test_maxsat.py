import copy
import hashlib
import importlib.util
import math
import random
import sys
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import (
    HARD,
    BeliefGraph,
    CalibrationConfig,
    MockOracle,
    RuleNode,
    RuleType,
    SolverLimitError,
    StatementNode,
    encode,
    generate_graph,
    reason,
    solve,
    total_cost,
)
from beliefgraph import maxsat
from beliefgraph.maxsat import MAX_WIDTH
from beliefgraph.model import scan_rules
from beliefgraph.synthetic import synthetic_graph
from conftest import acceptance_graphs, rule_clauses
from reference_solver import (
    brute_force_solve,
    clause_set,
    literal_clauses,
    random_clause_set,
    score,
    solve_and_score,
)

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def unit(var, pol, weight):
    return (((var, pol),), weight)


def rebuilt(cs, extra=()):
    """``cs`` compiled again from its clauses' literals, with ``extra``
    clauses after them: one table per clause, with no statement settled."""
    labels = dict(zip(cs.variable_order, cs.labels))
    return clause_set(literal_clauses(cs) + list(extra), cs.variable_order, labels)


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
            clauses.append((literals, weight()))
    rng.shuffle(clauses)
    return clause_set(clauses, variables, initial)


def cs_of(clauses, initial=None):
    order = tuple(sorted({var for literals, _ in clauses for var, _ in literals}))
    labels = {var: True for var in order}
    labels.update(initial or {})
    return clause_set(clauses, order, labels)


class TestEncoding:
    def test_single_statement(self):
        g = BeliefGraph(
            {0: StatementNode(0, "s", True, 0.9)}, (), (0,)
        )
        cs = encode(g)
        assert len(cs.clauses) == 1
        assert literal_clauses(cs)[0] == unit(0, True, 0.9)
        result = solve(cs)
        assert result.assignment == {0: True}
        assert score(cs, result).optimal_cost == 0.0

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
        hard = [literals for literals, weight in literal_clauses(cs) if weight == HARD]
        assert len(hard) == 1
        assert hard[0] == ((0, True), (1, True))

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
        result = solve_and_score(encode(g))[1]
        # brute force over 4 assignments: flip the weaker belief.
        assert result.assignment == {0: False, 1: True}
        assert result.optimal_cost == pytest.approx(0.6)

    def test_figure_fixture_optimum_flips_weaker(self, giraffe_graph):
        result = solve(encode(giraffe_graph))
        assert result.assignment[1] is False
        assert result.assignment[0] is True


def summary(scored):
    """What must agree between two scored solves: assignment, exact cost
    and feasibility."""
    return scored.assignment, repr(scored.optimal_cost), scored.feasible


def no_more_search(settled, unsettled):
    """Whether a solve of `encode`'s conditioned tables evaluated no more
    rows and was no wider than a solve of the same clauses in full."""
    return (settled.nodes_explored <= unsettled.nodes_explored
            and settled.width <= unsettled.width)


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
    """`encode` compiles a graph straight into the form `solve` reads, its
    tables conditioned on the settled statements; the tests' `clause_set`
    compiles clause literals into the same form, with nothing settled."""

    def test_both_ways_in_solve_alike(self):
        for i, graph in enumerate(acceptance_graphs(50)):
            h = graph.hypotheses[0]
            last = max(graph.statements)
            for pins in (None, {h: not graph.statements[h].label, last: True}):
                direct = encode(graph, pins)
                again = rebuilt(direct)
                assert literal_clauses(again) == literal_clauses(direct)
                (a, sa), (b, sb) = solve_and_score(direct), solve_and_score(again)
                assert sa.feasible is sb.feasible, i
                assert sa.assignment == sb.assignment, i
                assert sa.optimal_cost == sb.optimal_cost, i
                assert sa.violated == sb.violated, i
                assert no_more_search(a, b), i

    def test_clause_count_unchanged(self):
        assert sum(len(encode(g).clauses) for g in acceptance_graphs(200)) == 44017

    def test_clauses_view_matches_rules(self, giraffe_graph):
        pins = {2: False}
        expected = [
            unit(sid, node.label, node.confidence)
            for sid, node in giraffe_graph.statements.items()
            if node.confidence > 0.0
        ]
        for rule in giraffe_graph.rules:
            expected += [(c, rule.confidence) for c in rule_clauses(rule)]
        expected.append(unit(2, False, HARD))
        assert literal_clauses(encode(giraffe_graph, pins)) == expected

    def test_pinned_small_graphs_match_brute_force(self):
        infeasible = 0
        for seed in range(150):
            graph, pins = small_pinned_graph(seed)
            direct = encode(graph, pins)
            (a, sa), (b, sb) = solve_and_score(direct), solve_and_score(rebuilt(direct))
            slow = brute_force_solve(direct)
            assert summary(sa) == summary(sb) and sa.violated == sb.violated, seed
            assert no_more_search(a, b), seed
            assert summary(sa) == summary(slow), seed
            infeasible += not sa.feasible
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


class TestSolve:
    def test_hard_xor_pair(self):
        clauses = [
            unit(0, True, 0.9),
            unit(1, True, 0.6),
            (((0, True), (1, True)), HARD),
            (((0, False), (1, False)), HARD),
        ]
        result = solve_and_score(cs_of(clauses, {0: True, 1: True}))[1]
        assert result.feasible
        assert result.assignment == {0: True, 1: False}
        assert result.optimal_cost == pytest.approx(0.6)

    def test_infeasible(self):
        clauses = [unit(0, True, HARD), unit(0, False, HARD)]
        result = solve_and_score(cs_of(clauses))[1]
        assert not result.feasible
        assert math.isinf(result.optimal_cost)

    def test_supported_statement_flipped_true(self, flip_to_true_graph):
        result = solve_and_score(encode(flip_to_true_graph))[1]
        assert result.assignment[0] is True
        assert result.optimal_cost == pytest.approx(0.4)

    def test_zero_confidence_rule_adds_zero_weight_clauses_and_no_table(self, giraffe_graph):
        rules = tuple(replace(r, confidence=0.0) if r.id == "r1" else r
                      for r in giraffe_graph.rules)
        graph = BeliefGraph(giraffe_graph.statements, rules, giraffe_graph.hypotheses)
        zero, full = encode(graph), encode(giraffe_graph)
        assert zero.clauses == [
            (scope, bad, 0.0 if rule_id == "r1" else weight, rule_id)
            for scope, bad, weight, rule_id in full.clauses
        ]
        assert [c[2] for c in zero.clauses if c[3] == "r1"] == [0.0, 0.0]
        assert len(zero.tables) == len(full.tables) - 1
        assert solve_and_score(zero)[1].optimal_cost == pytest.approx(0.55)  # flip statement 1

    def test_variable_limit(self, monkeypatch):
        monkeypatch.setattr(maxsat, "MAX_VARIABLES", 5)
        clauses = [unit(v, True, 0.5) for v in range(10)]
        with pytest.raises(SolverLimitError):
            solve(cs_of(clauses))

    def test_deterministic_assignment(self):
        """Two solves of one instance agree in every field, and neither
        changes the compiled form it reads."""
        for cs in (random_clause_set(7), encode(synthetic_graph(0), {0: False})):
            before = copy.deepcopy(cs)
            first = solve(cs)
            second = solve(cs)
            assert first == second
            assert cs == before

    def test_width_limit(self):
        # Every pair shares a clause, so the first variable eliminated has
        # MAX_WIDTH + 1 neighbours.
        clauses = [
            (((a, False), (b, False)), 0.5)
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
        assert solve(encode(synthetic_graph(0))).nodes_explored == 662

    def test_nodes_and_width_pinned_on_outcome_graphs(self):
        """(nodes_explored, width) of every graph the outcome digest covers,
        as first computed with sign-aware settling in `encode`: a statement
        settles on the weights of the rules its label can violate.  Then
        (decided, eliminated_by_degree), as computed when only the steps at
        degrees 0 to 2 were direct, so every direct step counts its
        eliminations as the general step does."""
        graphs = [synthetic_graph(seed) for seed in range(100)]
        graphs.append(synthetic_graph(0, 3, 3000, 700))
        results = [solve(encode(graph)) for graph in graphs]
        pairs = [(r.nodes_explored, r.width) for r in results]
        assert sum(nodes for nodes, _ in pairs) == 56646
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
            "0236a7da4ead8fd99da53181748f4675e3eff02a86403199c49ff229221eee5c"
        )
        counts = [(r.decided, r.eliminated_by_degree) for r in results]
        assert sum(decided for decided, _ in counts) == 8836
        assert sum(sum(by_degree) for _, by_degree in counts) == 6923
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == (
            "d257a8786e61a748d4f39a58f08d754f345629bfdf4baa39b382142768cbc16b"
        )

    def test_counts_agree_on_outcome_graphs(self):
        """The per-degree counts account for the pinned nodes and widths."""
        graphs = [synthetic_graph(seed) for seed in range(100)]
        graphs.append(synthetic_graph(0, 3, 3000, 700))
        for cs in map(encode, graphs):
            check_counts(cs, solve(cs))

    def test_width(self):
        assert 1 <= solve(encode(synthetic_graph(0))).width <= 3
        units = [unit(0, True, 0.5), unit(0, False, 0.7), unit(1, False, HARD)]
        assert solve(cs_of(units)).width == 0

    def test_free_variables_keep_initial_labels(self):
        clauses = [unit(0, True, 0.5)]
        cs = clause_set(clauses, (0, 5), {0: True, 5: False})
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
            fast = solve_and_score(cs)[1]
            slow = brute_force_solve(cs)
            assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
            assert fast.assignment == slow.assignment

    def test_matches_solve_on_seeded_instances(self):
        for seed in range(40):
            cs = random_clause_set(seed)
            fast = solve_and_score(cs)[1]
            slow = brute_force_solve(cs)
            assert fast.feasible == slow.feasible
            if fast.feasible:
                assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
                assert fast.assignment == slow.assignment


    def test_matches_solve_on_unit_edge_cases(self):
        for seed in range(3000):
            cs = unit_edge_clause_set(seed)
            fast = solve_and_score(cs)[1]
            slow = brute_force_solve(cs)
            assert fast.feasible == slow.feasible, seed
            if fast.feasible:
                assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9), seed
                assert fast.assignment == slow.assignment, seed


class TestProperties:
    def test_cost_audit_against_graph(self, giraffe_graph):
        result = solve_and_score(encode(giraffe_graph))[1]
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
            base = solve_and_score(cs)[1]
            if not base.feasible:
                continue
            var = cs.variable_order[0]
            grown = solve_and_score(rebuilt(cs, [unit(var, not cs.labels[0], 0.4)]))[1]
            assert grown.optimal_cost >= base.optimal_cost - 1e-9

    def test_hard_clauses_always_satisfied(self):
        for seed in range(20):
            cs = random_clause_set(seed)
            result = solve_and_score(cs)[1]
            if not result.feasible:
                continue
            for literals, weight in literal_clauses(cs):
                if weight == HARD:
                    assert any(
                        result.assignment[v] == pol for v, pol in literals
                    )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_seeded_equivalence_property(self, seed):
        cs = random_clause_set(seed, min_variables=4, max_variables=10)
        fast = solve_and_score(cs)[1]
        slow = brute_force_solve(cs)
        assert fast.feasible == slow.feasible
        if fast.feasible:
            assert fast.optimal_cost == pytest.approx(slow.optimal_cost, abs=1e-9)
            assert fast.assignment == slow.assignment


TIE_WEIGHTS = st.sampled_from([0.5, 1.0, HARD])


@st.composite
def chain_or_star(draw):
    """(statement count, pairs) along a chain or around a star of at most
    12 statements: most statements are eliminated with one neighbour."""
    n = draw(st.integers(1, 12))
    star = draw(st.booleans())
    return n, [(0 if star else v - 1, v) for v in range(1, n)]


@st.composite
def treewidth_two(draw):
    """(statement count, groups of two or three statements): a cycle, a strip
    of triangles (one group per triangle) or a ladder, plus up to three
    pendants, at most 12 statements in all.  Every shape has a cycle and
    treewidth 2, so min-degree elimination has width exactly 2 and
    eliminates many statements with two neighbours."""
    shape = draw(st.sampled_from(["cycle", "triangles", "ladder"]))
    if shape == "ladder":
        m = draw(st.integers(2, 4))
        n = 2 * m
        groups = [(i, m + i) for i in range(m)]
        groups += [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    else:
        n = draw(st.integers(3, 9))
        if shape == "cycle":
            groups = [(i, (i + 1) % n) for i in range(n)]
        else:
            groups = [(i, i + 1, i + 2) for i in range(n - 2)]
    return with_pendants(draw, n, groups)


def with_pendants(draw, n, groups):
    """(statement count, groups) with up to three pendants added, each a
    pair with an earlier statement."""
    pendants = draw(st.integers(0, 3))
    for v in range(n, n + pendants):
        groups.append((draw(st.integers(0, v - 1)), v))
    return n + pendants, groups


@st.composite
def treewidth_three(draw):
    """(statement count, groups of two or three statements): a strip of
    four-cliques (each four consecutive statements pairwise joined), a wheel
    (a hub joined to each edge of a cycle by a triple) or a 3-by-3 grid,
    plus up to three pendants, at most 12 statements in all.  Every shape has treewidth 3 and its
    statements at least two neighbours, so min-degree elimination has width
    exactly 3, whatever the variable order, and eliminates some statements
    with three neighbours."""
    shape = draw(st.sampled_from(["strip", "wheel", "grid"]))
    if shape == "strip":
        n = draw(st.integers(4, 9))
        groups = [(i, i + 1, i + 2) for i in range(n - 2)] + [(i, i + 3) for i in range(n - 3)]
    elif shape == "wheel":
        m = draw(st.integers(4, 8))
        n = m + 1
        groups = [(m, i, (i + 1) % m) for i in range(m)]
    else:
        n = 9
        groups = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
        groups += [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)]
    return with_pendants(draw, n, groups)


@st.composite
def tie_graphs(draw, shapes):
    """A graph with one rule per group of a shape, the rules and each rule's
    statements in any order: a pair becomes a rule of any type, a triple a
    two-premise entailment rule, and a HARD weight an MC_HARD rule.  Weights
    0.5, 1.0 and HARD, and some zero-confidence statements, so exact ties
    are common.  Up to two pins."""
    n, groups = draw(shapes)
    statements = {
        sid: StatementNode(sid, f"s{sid}", draw(st.booleans()), draw(st.sampled_from([0.0, 0.5, 1.0])))
        for sid in range(n)
    }
    rules = []
    for i, group in enumerate(draw(st.permutations(groups))):
        group = tuple(draw(st.permutations(group)))
        weight = draw(TIE_WEIGHTS)
        if weight == HARD:
            kind = RuleType.MC_HARD
        elif len(group) == 3:
            kind = RuleType.ENTAILMENT
        else:
            kind = draw(st.sampled_from([RuleType.ENTAILMENT, RuleType.XOR_PAIR, RuleType.MC_PAIRWISE]))
        premises = group[:-1] if kind is RuleType.ENTAILMENT else ()
        rules.append(RuleNode(f"r{i}", kind, premises, group[len(premises):], weight))
    hypotheses = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)))
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.booleans(), max_size=2))
    return BeliefGraph(statements, tuple(rules), hypotheses), pins


@st.composite
def tie_clause_sets(draw, shapes):
    """The same shapes straight from clause literals: up to two units per
    variable and one or two clauses per group, each in its own literal order
    and with any polarity, in any clause and variable order."""
    n, groups = draw(shapes)
    clauses = [
        unit(v, draw(st.booleans()), draw(TIE_WEIGHTS))
        for v in range(n)
        for _ in range(draw(st.integers(0, 2)))
    ]
    for group in groups:
        for _ in range(draw(st.integers(1, 2))):
            literals = tuple((u, draw(st.booleans())) for u in draw(st.permutations(group)))
            clauses.append((literals, draw(TIE_WEIGHTS)))
    order = draw(st.permutations(range(n)))
    initial = {v: draw(st.booleans()) for v in range(n)}
    return clause_set(draw(st.permutations(clauses)), order, initial)


@st.composite
def tied_cliques(draw):
    """A multiple-choice question of 7 to 10 options: a pairwise MC rule
    between every two options, in any order, and perhaps an MC_HARD rule
    over all of them.  Every confidence and rule weight is the same and at
    most a third of the labels are false, so keeping one option true costs
    exactly as much as keeping two, and min-degree elimination meets exact
    ties with 6 to 9 neighbours."""
    n = draw(st.integers(7, 10))
    weight = draw(st.sampled_from([0.25, 0.5, 1.0]))
    false = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    statements = {sid: StatementNode(sid, f"s{sid}", sid not in false, weight) for sid in range(n)}
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    rules = [RuleNode(f"m{a}{b}", RuleType.MC_PAIRWISE, (), (a, b), weight) for a, b in pairs]
    if draw(st.booleans()):
        rules.insert(draw(st.integers(0, len(rules))),
                     RuleNode("one", RuleType.MC_HARD, (), tuple(range(n)), HARD))
    hypotheses = tuple(draw(st.permutations(range(n))))
    return BeliefGraph(statements, tuple(rules), hypotheses)


def check_counts(cs, result):
    """The solver's counts agree: each variable that is settled, has a unit
    cost or is in a table is decided up front or eliminated once, each
    decided one evaluates 2 rows and each one eliminated with d neighbours
    2**(d + 1), and the width is the largest degree of an elimination."""
    by_degree = result.eliminated_by_degree
    assert result.nodes_explored == 2 * result.decided + sum(
        c << (d + 1) for d, c in enumerate(by_degree)
    )
    assert result.width == (len(by_degree) - 1 if by_degree else 0)
    assert not by_degree or by_degree[-1]
    settled = {cs.variable_order.index(sid) for sid in cs.settled}
    in_play = settled.union(cs.units, *(scope for scope, _, _ in cs.tables))
    assert result.decided + sum(by_degree) == len(in_play)


def check_against_brute_force(cs):
    """`solve` agrees with the reference on assignment, exact cost and
    feasibility, and `score` lists exactly the violated clauses, whose
    weights summed in order give the cost; its counts agree."""
    (raw, result), slow = solve_and_score(cs), brute_force_solve(cs)
    assert summary(result) == summary(slow)
    check_counts(cs, raw)
    if not result.feasible:
        assert result.violated == ()
        return
    clauses = literal_clauses(cs)
    assert result.violated == tuple(
        i for i, (literals, _) in enumerate(clauses)
        if not any(result.assignment[v] == pol for v, pol in literals)
    )
    cost = 0.0
    for i in result.violated:
        cost += clauses[i][1]
    assert repr(cost) == repr(result.optimal_cost)


class TestDegreeOneTies:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_graphs(chain_or_star()))
    def test_encoded_graphs_match_brute_force(self, graph_and_pins):
        check_against_brute_force(encode(*graph_and_pins))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_clause_sets(chain_or_star()))
    def test_constructed_clause_sets_match_brute_force(self, cs):
        check_against_brute_force(cs)


class TestDegreeTwoTies:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_graphs(treewidth_two()))
    def test_encoded_graphs_match_brute_force(self, graph_and_pins):
        cs = encode(*graph_and_pins)
        check_against_brute_force(cs)
        # Settled statements leave the tables, so the degree-2 step is
        # checked on the same clauses in full.
        assert solve(rebuilt(cs)).width == 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_clause_sets(treewidth_two()))
    def test_constructed_clause_sets_match_brute_force(self, cs):
        check_against_brute_force(cs)
        assert solve(cs).width == 2


class TestDegreeThreeTies:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_graphs(treewidth_three()))
    def test_encoded_graphs_match_brute_force(self, graph_and_pins):
        cs = encode(*graph_and_pins)
        check_against_brute_force(cs)
        # Settled statements leave the tables, so the degree-3 step is
        # checked on the same clauses in full.
        full = rebuilt(cs)
        check_against_brute_force(full)
        result = solve(full)
        assert result.width == 3 and result.eliminated_by_degree[3] > 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tie_clause_sets(treewidth_three()))
    def test_constructed_clause_sets_match_brute_force(self, cs):
        check_against_brute_force(cs)
        result = solve(cs)
        assert result.width == 3 and result.eliminated_by_degree[3] > 0


class TestWideTies:
    @settings(derandomize=True, max_examples=160, deadline=None)
    @given(tied_cliques())
    def test_tied_cliques_match_brute_force(self, graph):
        """The general step's tie rule, at degree 6 and up: the encoded
        clique, whose false options may settle, and the same clauses in
        full, which keep all 7 to 10 options in one clique."""
        cs = encode(graph)
        check_against_brute_force(cs)
        full = rebuilt(cs)
        check_against_brute_force(full)
        assert solve(full).width >= 6


def can_violate(rule, sid, value):
    """Whether ``rule`` is violated by some assignment that gives statement
    ``sid`` this value, read off `scan_rules` over the rule's scope."""
    others = [v for v in rule.statement_ids() if v != sid]
    return any(
        scan_rules([rule], {sid: value, **dict(zip(others, values))})[1]
        for values in product((False, True), repeat=len(others))
    )


def sign_aware_reach(rules, sid, label):
    """The summed weights of the ``rules`` that statement ``sid``'s
    ``label`` can violate: at most what flipping it off its label can
    gain."""
    return sum(
        rule.confidence for rule in rules
        if sid in rule.statement_ids() and can_violate(rule, sid, label)
    )


@st.composite
def boundary_graphs(draw):
    """A graph around statement 0, whose confidence is its reach (the summed
    weights of its soft rules that its label can violate) plus EPSILON plus
    or minus 1e-12, and whether `encode` should settle it.

    Each of up to four neighbours has one rule with statement 0 whose
    weight is at least its own confidence and which its label can violate,
    so no neighbour is settled, and perhaps a second, zero-weight or not,
    and a rule with the next neighbour.  A pin on statement 0 settles it;
    otherwise a HARD rule over statement 0 and a neighbour blocks settling
    when statement 0's label can violate it, that is when it is false, and
    adds nothing to its reach when it is true.  Weights are dyadic, so
    every sum is exact but statement 0's confidence."""
    n = draw(st.integers(1, 4))
    rules = []

    def rule(pair, weight):
        kind = draw(st.sampled_from([RuleType.ENTAILMENT, RuleType.XOR_PAIR, RuleType.MC_PAIRWISE]))
        pair = tuple(draw(st.permutations(pair)))
        premises = pair[:1] if kind is RuleType.ENTAILMENT else ()
        rules.append(RuleNode(f"r{len(rules)}", kind, premises, pair[len(premises):], weight))
        return rules[-1]

    statements = {}
    for v in range(1, n + 1):
        first = rule((0, v), draw(st.sampled_from([0.0625, 0.125])))
        label = draw(st.sampled_from([b for b in (False, True) if can_violate(first, v, b)]))
        statements[v] = StatementNode(v, f"s{v}", label, draw(st.sampled_from([0.0, 0.03125, 0.0625])))
        if draw(st.booleans()):
            rule((0, v), draw(st.sampled_from([0.0, 0.0625])))
        if v > 1 and draw(st.booleans()):
            rule((v - 1, v), draw(st.sampled_from([0.0, 0.0625])))
    label = draw(st.booleans())
    reach = sign_aware_reach(rules, 0, label)
    above = draw(st.booleans())
    statements[0] = StatementNode(0, "s0", label, reach + maxsat.EPSILON + (1e-12 if above else -1e-12))
    blocked = False
    if draw(st.booleans()):
        hard = RuleNode("hard", RuleType.MC_HARD, (), (0, draw(st.integers(1, n))), HARD)
        rules.append(hard)
        blocked = can_violate(hard, 0, label)
    pins = {0: draw(st.booleans())} if draw(st.booleans()) else {}
    hypotheses = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True)))
    graph = BeliefGraph(dict(sorted(statements.items())), tuple(draw(st.permutations(rules))), hypotheses)
    return graph, pins, bool(pins) or (not blocked and above)


def in_no_table(cs, sid):
    """Whether statement ``sid`` is in none of the compiled tables."""
    x = cs.variable_order.index(sid)
    return all(x not in scope for scope, _, _ in cs.tables)


class TestSettlingBoundary:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(boundary_graphs())
    def test_settles_past_epsilon_only(self, case):
        """Statement 0 is settled, and so in no table, exactly when it is
        pinned, or when its label can violate no HARD rule and its
        confidence exceeds its sign-aware reach by more than EPSILON;
        either way the solve agrees with the reference and with the same
        clauses solved in full."""
        graph, pins, settled = case
        cs = encode(graph, pins)
        assert settled == in_no_table(cs, 0)
        check_against_brute_force(cs)
        (a, sa), (b, sb) = solve_and_score(cs), solve_and_score(rebuilt(cs))
        assert summary(sa) == summary(sb) and sa.violated == sb.violated
        assert no_more_search(a, b)

    @pytest.mark.parametrize("kind", list(RuleType))
    def test_a_rule_its_label_satisfies_adds_no_reach(self, kind):
        """Statement 0's label lies on the safe side of its one rule, a
        false premise, a true MC_HARD hypothesis or a false pairwise MC
        side, so a confidence just past EPSILON settles it; by the summed
        weights of all its rules it would stay.  An XOR pair has no safe
        side."""
        weight = HARD if kind is RuleType.MC_HARD else 0.5
        premises, conclusions = ((0,), (1,)) if kind is RuleType.ENTAILMENT else ((), (0, 1))
        statements = {
            0: StatementNode(0, "s0", kind is RuleType.MC_HARD, 2 * maxsat.EPSILON),
            1: StatementNode(1, "s1", True, 0.25),
        }
        graph = BeliefGraph(statements, (RuleNode("r", kind, premises, conclusions, weight),), (0, 1))
        cs = encode(graph)
        assert in_no_table(cs, 0) == (kind is not RuleType.XOR_PAIR)
        check_against_brute_force(cs)


@st.composite
def settling_graphs(draw):
    """A graph of 2 to 9 statements with rules of every type, soft weights
    small beside many statements' confidences so that many settle, and up
    to two pins."""
    n = draw(st.integers(2, 9))
    ids = st.integers(0, n - 1)
    statements = {
        sid: StatementNode(sid, f"s{sid}", draw(st.booleans()),
                           draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])))
        for sid in range(n)
    }
    rules = []
    for i in range(draw(st.integers(1, 2 * n))):
        kind = draw(st.sampled_from(list(RuleType)))
        if kind is RuleType.ENTAILMENT:
            scope = draw(st.lists(ids, min_size=2, max_size=min(4, n), unique=True))
            premises, conclusions = tuple(scope[1:]), scope[:1]
        else:
            size = draw(st.integers(1, min(3, n))) if kind is RuleType.MC_HARD else 2
            premises, conclusions = (), draw(st.lists(ids, min_size=size, max_size=size, unique=True))
        weight = HARD if kind is RuleType.MC_HARD else draw(st.sampled_from([0.0, 0.125, 0.25, 0.5]))
        rules.append(RuleNode(f"r{i}", kind, premises, tuple(conclusions), weight))
    hypotheses = tuple(draw(st.lists(ids, min_size=1, max_size=3, unique=True)))
    pins = draw(st.dictionaries(ids, st.booleans(), max_size=2))
    return BeliefGraph(statements, tuple(rules), hypotheses), pins


@settings(derandomize=True, max_examples=150, deadline=None)
@given(settling_graphs())
def test_settled_statements_keep_their_label_in_every_near_optimum(graph_and_pins):
    """Every statement whose confidence exceeds its sign-aware reach by more
    than EPSILON takes its label in every assignment within EPSILON of the
    optimum, by `total_cost` over all assignments that keep the pins; and
    `encode` leaves it, like every pinned statement, in no table, and
    solves to the reference's answer."""
    graph, pins = graph_and_pins
    ids = list(graph.statements)
    dominant = [
        sid for sid, node in graph.statements.items()
        if node.confidence > sign_aware_reach(graph.rules, sid, node.label) + maxsat.EPSILON
    ]
    cs = encode(graph, pins)
    for sid in dominant + list(pins):
        assert in_no_table(cs, sid), sid
    check_against_brute_force(cs)
    costs = []
    for values in product((False, True), repeat=len(ids)):
        assignment = dict(zip(ids, values))
        if all(assignment[sid] == value for sid, value in pins.items()):
            costs.append((total_cost(graph, assignment), assignment))
    best = min(cost for cost, _ in costs)
    if math.isinf(best):
        return
    for cost, assignment in costs:
        if cost <= best + maxsat.EPSILON:
            for sid in dominant:
                if sid not in pins:
                    assert assignment[sid] == graph.statements[sid].label, sid


def oracle_graphs():
    """The 20 graphs `generate_graph` builds for the benchmark's oracle
    workloads on seed 1, through a `MockOracle` of the same tables."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    fixture, questions = inputs.oracle_tables(1, 20, 100)
    oracle = MockOracle(**fixture)
    return [generate_graph(q, oracle, CalibrationConfig(d_max=5)) for q in questions]


def test_settled_solve_matches_full_solve_beyond_brute_force():
    """Past the reference's 22 variables: settling changes no assignment,
    cost or violated clause on the largest synthetic graph and on the
    shared-premise construction graphs, and never searches more."""
    graphs = [synthetic_graph(0, 3, 3000, 700), *oracle_graphs()]
    assert min(len(g.statements) for g in graphs) > 22
    for i, graph in enumerate(graphs):
        cs = encode(graph)
        (a, sa), (b, sb) = solve_and_score(cs), solve_and_score(rebuilt(cs))
        assert summary(sa) == summary(sb) and sa.violated == sb.violated, i
        assert no_more_search(a, b), i
