"""Optimality of ``solve`` above the brute-force limit, checked against a MILP.

Each instance is encoded as a 0/1 integer program and solved exactly with
HiGHS through ``scipy.optimize.milp``:

- one binary x_v per variable (1 = true);
- for each soft clause a binary z_c with z_c + sum(literals) >= 1, where a
  positive literal is x_v and a negative one is 1 - x_v;
- each hard clause as sum(literals) >= 1;
- minimize sum(w_c * z_c).

The optimal cost is compared on every instance.  On 50, the tie-break
between equal-cost optima is certified too: for each statement the
returned assignment flips, the MILP with the earlier statements pinned as
returned and that one pinned to its label must cost more than the optimum
by more than COST_TOLERANCE, so no optimum has a smaller flip pattern.
Below 23 variables the tie-break is also checked against the brute-force
reference in test_maxsat.py.
"""

import random
from dataclasses import replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from beliefgraph import (
    HARD,
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    encode,
    generate_graph,
)
from beliefgraph import maxsat
from beliefgraph.construction import NEGATION_PREFIX, entailment_key
from beliefgraph.synthetic import synthetic_graph
from reference_solver import clause_set, literal_clauses, solve_and_score
from test_maxsat import no_more_search

# HiGHS stops once its absolute optimality gap is at most 1e-6 (its default
# mip_abs_gap, which scipy does not expose), so its optimum may exceed the
# true one by that much.  Float summation order adds about 1e-13.  Fixed
# here once; do not loosen it.
COST_TOLERANCE = 1e-6

# HiGHS status -> whether the MILP is feasible
MILP_FEASIBLE = {0: True, 2: False}


def milp_optimum(cs):
    """(feasible, optimal cost) of the clause set as a 0/1 MILP, with the
    variables in their compiled positions.  Its rows are ``cs.clauses``,
    which `encode`'s record derives from the graph and pins on each read,
    apart from the ``tables`` that `solve` eliminates."""
    n = len(cs.variable_order)
    rows, cols, values, lower, weights = [], [], [], [], []
    for r, (scope, violating, weight, _) in enumerate(cs.clauses):
        negatives = 0
        for v, bad in zip(scope, violating):
            rows.append(r)
            cols.append(v)
            values.append(-1.0 if bad else 1.0)
            negatives += bad
        if weight != HARD:
            rows.append(r)
            cols.append(n + len(weights))
            values.append(1.0)
            weights.append(weight)
        lower.append(1.0 - negatives)
    size = n + len(weights)
    matrix = sparse.csr_array((values, (rows, cols)), shape=(len(cs.clauses), size))
    objective = np.concatenate([np.zeros(n), weights])
    result = milp(
        objective,
        constraints=LinearConstraint(matrix, lower, np.inf),
        integrality=np.ones(size),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    feasible = MILP_FEASIBLE[result.status]
    return feasible, result.fun if feasible else None


def assert_matches_milp(cs, case):
    ours = solve_and_score(cs)[1]
    feasible, cost = milp_optimum(cs)
    assert ours.feasible is feasible, case
    if feasible:
        assert abs(ours.optimal_cost - cost) <= COST_TOLERANCE, (
            f"{case}: solve {ours.optimal_cost!r}, milp {cost!r}"
        )


def assert_tie_break_certified(graph, case):
    """For each position i that the optimal flip pattern P flips, the MILP
    optimum with the earlier positions pinned as in P and position i to its
    label exceeds the optimal cost C by more than EPSILON, so no assignment
    within EPSILON of C has a smaller pattern.  A margin within
    COST_TOLERANCE cannot be told from the MILP's own gap and fails too.  C
    is solve's cost, which test_acceptance_graphs and
    test_construction_graphs check against the MILP."""
    cs = encode(graph)
    result = solve_and_score(cs)[1]
    pins = {}
    for i, (sid, label) in enumerate(zip(cs.variable_order, cs.labels)):
        value = result.assignment[sid]
        if value != label:
            feasible, cost = milp_optimum(encode(graph, {**pins, sid: label}))
            if feasible:
                margin = cost - result.optimal_cost
                where = f"{case}: position {i} (statement {sid!r}) kept: margin {margin!r}"
                assert margin > maxsat.EPSILON, f"{where}, not above EPSILON"
                assert margin > COST_TOLERANCE, f"{where}, within the MILP's tolerance"
        pins[sid] = value


def shared_premise_questions(seed, questions=10, vocabulary=40, fact_premises=None):
    """MockOracle whose questions draw premises from one shared vocabulary.

    Facts entail each other, so construction reaches the same statements
    from several hypotheses and the graphs have more cycles than
    ``synthetic_graph``'s trees.  Each fact has ``fact_premises`` premises,
    or 1 or 2 drawn at random by default.
    """
    rng = random.Random(seed)
    facts = [f"shared fact {k}" for k in range(vocabulary)]
    premises, scores, entailments = {}, {}, {}

    def add(text, believed, width):
        s = rng.uniform(0.55, 0.98) if believed else rng.uniform(0.02, 0.45)
        scores[text] = round(s, 4)
        negated = 1.0 - s + rng.uniform(-0.1, 0.1)
        scores[NEGATION_PREFIX + text] = round(min(0.99, max(0.01, negated)), 4)
        chosen = [p for p in rng.sample(facts, width) if p != text]
        premises[text] = chosen
        entailments[entailment_key(chosen, text)] = round(rng.uniform(0.5, 0.99), 4)

    for fact in facts:
        add(fact, rng.random() < 0.8, fact_premises or rng.randint(1, 2))
    hypothesis_sets = []
    for q in range(questions):
        options = tuple(f"question {q} option {j} holds" for j in range(4))
        for option in options:
            add(option, rng.random() < 0.4, 2)
        hypothesis_sets.append(HypothesisSet(options))
    oracle = MockOracle(
        premises=premises, statement_scores=scores, entailment_scores=entailments
    )
    return oracle, hypothesis_sets


def test_acceptance_graphs():
    for seed in range(100):
        assert_matches_milp(encode(synthetic_graph(seed)), f"synthetic_graph({seed})")


def test_scaled_graphs():
    graph = synthetic_graph(3, target_statements=3000, target_rules=700)
    assert len(graph.statements) > 1000
    assert_matches_milp(encode(graph), "synthetic_graph(3, 3000, 700)")
    for seed in range(10):
        graph = synthetic_graph(seed, target_statements=1200, target_rules=300)
        assert_matches_milp(encode(graph), f"synthetic_graph({seed}, 1200, 300)")


def test_construction_graphs():
    cfg = CalibrationConfig(d_max=5)
    for seed in range(3):
        oracle, hypothesis_sets = shared_premise_questions(seed)
        for q, hypotheses in enumerate(hypothesis_sets):
            graph = generate_graph(hypotheses, oracle, cfg)
            assert_matches_milp(encode(graph), f"oracle {seed} question {q}")


def test_tie_break_certified():
    for seed in range(40):
        assert_tie_break_certified(synthetic_graph(seed), f"synthetic_graph({seed})")
    oracle, hypothesis_sets = shared_premise_questions(0)
    cfg = CalibrationConfig(d_max=5)
    for q, hypotheses in enumerate(hypothesis_sets):
        assert_tie_break_certified(generate_graph(hypotheses, oracle, cfg), f"oracle 0 question {q}")


def test_infeasible_status():
    graph = synthetic_graph(0)
    cs = encode(graph, {h: False for h in graph.hypotheses})
    assert_matches_milp(cs, "every hypothesis pinned false")
    assert not solve_and_score(cs)[1].feasible


# (seed, question) of the graphs at 4 premises per fact over 400 facts
# whose elimination width exceeded MAX_WIDTH when a statement's reach
# summed every rule it is in: 17 or 18 then, 8 to 12 with sign-aware
# settling.
DENSE_OVER_THE_OLD_LIMIT = {(0, 0), (0, 8), (1, 2), (1, 4), (1, 6), (2, 0), (2, 8)}


def settled_by_every_rule(graph, cs):
    """``cs`` with its tables compiled again from its clauses, settling only
    the statements whose confidence exceeds the summed weights of every rule
    they are in by more than EPSILON: a clause one of their labels satisfies
    gets no table, and they leave the others."""
    reach = dict.fromkeys(graph.statements, 0.0)
    for rule in graph.rules:
        for sid in rule.statement_ids():
            reach[sid] += rule.confidence
    fixed = {
        sid: node.label for sid, node in graph.statements.items()
        if node.confidence > reach[sid] + maxsat.EPSILON
    }
    conditioned = []
    for literals, weight in literal_clauses(cs):
        kept = tuple((v, pol) for v, pol in literals if v not in fixed)
        if kept and not any(fixed.get(v) == pol for v, pol in literals):
            conditioned.append((kept, weight))
    labels = dict(zip(cs.variable_order, cs.labels))
    return replace(clause_set(conditioned, cs.variable_order, labels), clauses=cs.clauses)


def test_dense_construction_graphs():
    """Graphs with four premises per fact solve, at the MILP's cost where
    they once exceeded the width limit.  Seed 0's others solve as they do
    with only the statements settled that outweigh every rule they are in,
    with no more search; the same clauses with nothing settled are too wide
    to solve."""
    cfg = CalibrationConfig()
    for seed in range(3):
        oracle, hypothesis_sets = shared_premise_questions(seed, vocabulary=400, fact_premises=4)
        for q, hypotheses in enumerate(hypothesis_sets):
            graph = generate_graph(hypotheses, oracle, cfg)
            cs = encode(graph)
            if (seed, q) in DENSE_OVER_THE_OLD_LIMIT:
                assert_matches_milp(cs, f"dense oracle {seed} question {q}")
            elif seed == 0:
                (a, sa), (b, sb) = solve_and_score(cs), solve_and_score(settled_by_every_rule(graph, cs))
                assert (sa.assignment, sa.optimal_cost, sa.violated) == (
                    sb.assignment, sb.optimal_cost, sb.violated
                ), q
                assert no_more_search(a, b), q
