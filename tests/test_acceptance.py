"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE <criterion>: PASS/FAIL`` line in
addition to the usual pytest verdict, so the suite output doubles as a
checklist.  Timing budgets are generous for desk hardware but hard limits.
"""

import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from beliefgraph import (
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    RuleType,
    ablate,
    consistency,
    document_to_graph,
    dumps,
    encode,
    generate_graph,
    graph_to_document,
    mc_accuracy,
    reason,
    resolve_interactive,
    save_graph,
    total_cost,
)
from beliefgraph.cli import EXIT_OK, main
from beliefgraph.synthetic import synthetic_graph
from conftest import TRACE_PREMISES, TRACE_SCORES
from reference_solver import brute_force_solve, random_clause_set, solve_and_score


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_solver_optimality():
    with criterion("01 solver optimality vs brute force"):
        start = time.perf_counter()
        for seed in range(200):
            cs = random_clause_set(seed)
            fast = solve_and_score(cs)[1]
            slow = brute_force_solve(cs)
            assert fast.feasible == slow.feasible, f"seed {seed}"
            if fast.feasible:
                assert abs(fast.optimal_cost - slow.optimal_cost) <= 1e-9, f"seed {seed}"
                assert fast.assignment == slow.assignment, f"seed {seed}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_absolute_self_consistency():
    with criterion("02 absolute self-consistency on synthetic graphs"):
        start = time.perf_counter()
        for seed in range(100):
            graph = synthetic_graph(seed)
            assert consistency(graph).tau > 0.0, f"seed {seed} seeded no violation"
            outcome = reason(graph)
            after = consistency(outcome.updated_graph)
            assert after.tau == 0.0, f"seed {seed}: tau {after.tau}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_03_cost_never_increases():
    with criterion("03 cost never increases"):
        for seed in range(100):
            graph = synthetic_graph(seed)
            outcome = reason(graph)
            before = total_cost(graph, graph.initial_assignment())
            after = total_cost(graph, outcome.final_assignment)
            assert after <= before + 1e-9, f"seed {seed}"
            # every synthetic graph seeds at least one violation, so the
            # inequality must be strict there
            assert consistency(graph).violated_rules > 0
            assert after < before - 1e-9, f"seed {seed} expected strict decrease"
        # equality holds exactly when nothing is violated initially
        clean = synthetic_graph(0)
        clean_outcome = reason(clean)
        fixed = clean_outcome.updated_graph
        assert consistency(fixed).violated_rules == 0
        assert total_cost(fixed, reason(fixed).final_assignment) == pytest.approx(
            total_cost(fixed, fixed.initial_assignment())
        )


def test_criterion_04_figure_fixtures(
    giraffe_graph, flip_to_true_graph, weakest_premise_graph, bad_rule_graph
):
    with criterion("04 figure fixtures"):
        conflict = reason(giraffe_graph)
        assert conflict.flipped == {1}
        assert conflict.predictions == {0}

        support = reason(flip_to_true_graph)
        assert support.flipped == {0}
        assert support.final_assignment[0] is True

        weakest = reason(weakest_premise_graph)
        assert weakest.flipped == {2}

        discard = reason(bad_rule_graph)
        assert discard.flipped == frozenset()
        assert discard.discarded_rules == {"r0"}


def test_criterion_05_calibration_exactness():
    with criterion("05 calibration exactness"):
        cfg = CalibrationConfig()
        # A lone hypothesis, scored 0.5 by default, and its rule from one
        # premise, scored 1.0 and left undamped by beta=1.
        lone = HypothesisSet(("h",))
        statement = generate_graph(lone, MockOracle(), replace(cfg, d_max=0)).statements[0]
        assert abs(statement.confidence - math.exp(-4.5)) <= 1e-12
        oracle = MockOracle(premises={"h": ["p"]}, entailment_scores={"p => h": 1.0})
        built = generate_graph(lone, oracle, replace(cfg, beta=1, d_max=1))
        assert [r.confidence for r in built.rules if r.rule_type is RuleType.ENTAILMENT] == [1.02]
        # XOR and MC rules carry their importance factor as built.
        oracle = MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES)
        graph = generate_graph(
            HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile.")), oracle, cfg
        )
        confidences = {
            kind: {r.confidence for r in graph.rules if r.rule_type is kind}
            for kind in (RuleType.XOR_PAIR, RuleType.MC_PAIRWISE)
        }
        assert confidences == {RuleType.XOR_PAIR: {1.1}, RuleType.MC_PAIRWISE: {0.98}}


def test_criterion_06_metric_exactness():
    with criterion("06 metric exactness"):
        from test_metrics import two_rule_graph

        report = consistency(two_rule_graph())
        assert report.applicable_rules == 2
        assert report.violated_rules == 1
        assert report.tau == 0.5

        assert mc_accuracy({2}, 2, 4) == 1.0
        assert mc_accuracy({0, 2}, 2, 4) == 1.0 / 2
        assert mc_accuracy(set(), 2, 4) == 1.0 / 4
        assert mc_accuracy({0}, 2, 4) == 0.0


def test_criterion_07_construction_structure():
    with criterion("07 deterministic construction structure"):
        oracle = MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES)
        hypotheses = HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile."))
        expected = {
            0: (2, {RuleType.ENTAILMENT: 0, RuleType.XOR_PAIR: 0,
                    RuleType.MC_HARD: 1, RuleType.MC_PAIRWISE: 1}),
            1: (7, {RuleType.ENTAILMENT: 2, RuleType.XOR_PAIR: 1,
                    RuleType.MC_HARD: 1, RuleType.MC_PAIRWISE: 1}),
            2: (11, {RuleType.ENTAILMENT: 3, RuleType.XOR_PAIR: 1,
                     RuleType.MC_HARD: 1, RuleType.MC_PAIRWISE: 1}),
        }
        for d_max, (n_statements, rule_counts) in expected.items():
            cfg = CalibrationConfig(d_max=d_max)
            graph = generate_graph(hypotheses, oracle, cfg)
            assert len(graph.statements) == n_statements, f"d_max={d_max}"
            counts = {t: 0 for t in RuleType}
            for rule in graph.rules:
                counts[rule.rule_type] += 1
            assert counts == rule_counts, f"d_max={d_max}"
            again = generate_graph(hypotheses, oracle, cfg)
            assert dumps(graph_to_document(graph)) == dumps(graph_to_document(again))


def test_criterion_08_ablation_direction(xor_essential_graph):
    with criterion("08 ablation direction (XOR more essential than MC)"):
        def post_hoc(mask):
            outcome = reason(ablate(xor_essential_graph, mask))
            return consistency(
                xor_essential_graph, outcome.final_assignment
            ).self_consistency

        without_xor = post_hoc({"xor"})
        without_mc = post_hoc({"mc"})
        assert without_xor < without_mc


def test_criterion_09_round_trip_and_determinism(
    tmp_path,
    giraffe_graph,
    flip_to_true_graph,
    weakest_premise_graph,
    bad_rule_graph,
    cylinder_graph,
    xor_essential_graph,
):
    with criterion("09 round-trip and byte-identical runs"):
        fixtures = (
            giraffe_graph,
            flip_to_true_graph,
            weakest_premise_graph,
            bad_rule_graph,
            cylinder_graph,
            xor_essential_graph,
        )
        for graph in fixtures:
            document = graph_to_document(graph)
            back = document_to_graph(json.loads(dumps(document)))
            assert back.statements == graph.statements
            assert back.rules == graph.rules
            assert graph_to_document(back) == document

        # identical CLI invocations produce byte-identical artifacts
        (tmp_path / "oracle.json").write_text(
            json.dumps({"premises": TRACE_PREMISES, "statement_scores": TRACE_SCORES})
        )
        (tmp_path / "question.json").write_text(
            json.dumps({"hypotheses": ["Alpha is a mammal.", "Alpha is a reptile."]})
        )
        for name in ("one.json", "two.json"):
            code = main(
                [
                    "build-graph",
                    str(tmp_path / "question.json"),
                    "--oracle",
                    f"mock:{tmp_path / 'oracle.json'}",
                    "-o",
                    str(tmp_path / name),
                ]
            )
            assert code == EXIT_OK
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

        save_graph(giraffe_graph, tmp_path / "graph.json")
        for name in ("out_one.json", "out_two.json"):
            code = main(
                ["reason", str(tmp_path / "graph.json"), "-o", str(tmp_path / name)]
            )
            assert code == EXIT_OK
        assert (tmp_path / "out_one.json").read_bytes() == (
            tmp_path / "out_two.json"
        ).read_bytes()


def test_criterion_10_interactive_resolution(cylinder_graph, tmp_path, monkeypatch):
    with criterion("10 interactive conflict resolution"):
        # library level: one query pins the doubted belief, nothing discarded
        asked = []
        outcome = resolve_interactive(
            cylinder_graph, lambda text: asked.append(text) or True
        )
        assert len(asked) == 1
        assert outcome.discarded_rules == frozenset()
        assert outcome.predictions == {1}

        # CLI level with scripted input
        save_graph(cylinder_graph, tmp_path / "graph.json")
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        code = main(
            ["resolve", str(tmp_path / "graph.json"), "-o", str(tmp_path / "out.json")]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["discarded_rules"] == []
        assert doc["predictions"] == [1]
