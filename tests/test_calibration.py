import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefgraph import (
    HARD,
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    RuleType,
    dumps,
    generate_graph,
    graph_to_document,
)
from beliefgraph.construction import MAX_DEPTH, multiple_choice_rules
from beliefgraph.model import RuleNode
from conftest import apply_boundary_damping, rule_by_id


CFG = CalibrationConfig()


def statement(s):
    """The node built for a lone hypothesis that the oracle scores ``s``."""
    oracle = MockOracle(statement_scores={"h": s})
    graph = generate_graph(HypothesisSet(("h",)), oracle, CalibrationConfig(d_max=0))
    return graph.statements[graph.hypotheses[0]]


def entailment_confidence(s):
    """The confidence of the rule built from a premise that entails a lone
    hypothesis with score ``s``; ``beta=1``, so damping leaves it as calibrated."""
    oracle = MockOracle(premises={"h": ["p"]}, entailment_scores={"p => h": s})
    graph = generate_graph(HypothesisSet(("h",)), oracle, CalibrationConfig(beta=1, d_max=1))
    (rule,) = [r for r in graph.rules if r.rule_type is RuleType.ENTAILMENT]
    return rule.confidence


def xor_rules(score_h, score_negation):
    """The XOR rules built for a lone hypothesis and its negation, scored as given."""
    oracle = MockOracle(
        statement_scores={"h": score_h, "it is not the case that h": score_negation}
    )
    graph = generate_graph(HypothesisSet(("h",)), oracle, CalibrationConfig(d_max=1))
    return [r for r in graph.rules if r.rule_type is RuleType.XOR_PAIR]


class TestStatementCalibration:
    def test_top_score_maps_to_one(self):
        assert statement(1.0).confidence == 1.0

    def test_midpoint(self):
        assert statement(0.5).confidence == pytest.approx(math.exp(-4.5), abs=1e-12)
        assert statement(0.5).confidence == pytest.approx(0.011109, abs=1e-6)

    def test_high_score(self):
        assert statement(0.9).confidence == pytest.approx(math.exp(-0.9), abs=1e-12)
        assert statement(0.9).confidence == pytest.approx(0.40657, abs=1e-5)


class TestRuleCalibration:
    def test_entailment_top_score_is_t(self):
        assert entailment_confidence(1.0) == 1.02

    def test_xor_channel_is_t_xor(self, trace_oracle, trace_hypotheses):
        graph = generate_graph(trace_hypotheses, trace_oracle, CFG)
        xor = [r.confidence for r in graph.rules if r.rule_type is RuleType.XOR_PAIR]
        assert xor and set(xor) == {CFG.t_xor} == {1.1}

    def test_mc_channel_is_t_mc(self):
        hard, *pairwise = multiple_choice_rules((0, 1, 2), 0, CFG)
        assert [r.confidence for r in pairwise] == [CFG.t_mc] * 3 == [0.98] * 3

    def test_entailment_midrange(self):
        assert entailment_confidence(0.9) == pytest.approx(1.02 * math.exp(-3.6), abs=1e-12)
        assert entailment_confidence(0.9) == pytest.approx(0.027870, abs=1e-6)

    def test_hard_rule_never_calibrated(self):
        for cfg in (CFG, CalibrationConfig(t_mc=5.0)):
            hard, *pairwise = multiple_choice_rules((0, 1), 0, cfg)
            assert hard.rule_type is RuleType.MC_HARD and hard.confidence == HARD


class TestLabel:
    def test_true_side(self):
        node = statement(0.9)
        assert (node.label, node.confidence) == (True, math.exp(9 * (0.9 - 1)))

    def test_false_side(self):
        node = statement(0.2)
        assert (node.label, node.confidence) == (False, math.exp(9 * (0.8 - 1)))

    def test_boundary_is_true(self):
        assert statement(0.5).label is True

    @given(st.floats(0.0, 1.0))
    def test_confidence_of_the_label_side_and_label_argmax(self, s):
        node = statement(s)
        assert node.label == (s >= 0.5)
        # The side the label takes scores at least 0.5.
        assert math.exp(CFG.k * (0.5 - 1.0)) <= node.confidence <= 1.0


class TestXorAdmissibility:
    def test_clear_disagreement_kept(self):
        assert len(xor_rules(0.9, 0.1)) == 1

    def test_uncertain_pair_dropped(self):
        assert xor_rules(0.6, 0.4) == []

    def test_boundary_dropped(self):
        # A gap of exactly m_xor drops the pair, also where the float
        # difference lands just above 0.3.
        assert xor_rules(0.65, 0.35) == []
        assert xor_rules(0.8, 0.5) == []


class TestBoundaryDamping:
    """The reference definition that construction is checked against (see
    test_construction.py and test_pipeline.py), on hand-built graphs."""

    def test_leaf_premise_rule_damped(self, weakest_premise_graph):
        damped = apply_boundary_damping(weakest_premise_graph, CFG)
        assert rule_by_id(damped, "r0").confidence == pytest.approx(0.9 * 0.95)

    def test_interior_rule_unchanged(self, flip_to_true_graph):
        g = flip_to_true_graph
        # Add a supporting rule under statement 2, making r0 interior.
        support = RuleNode("r9", RuleType.ENTAILMENT, (4,), (2,), 0.5)
        from beliefgraph import BeliefGraph

        g2 = BeliefGraph(dict(g.statements), g.rules + (support,), g.hypotheses)
        damped = apply_boundary_damping(g2, CFG)
        assert rule_by_id(damped, "r0").confidence == pytest.approx(0.9)
        # r1's premise 4 is still a leaf; r9's premise 4 likewise.
        assert rule_by_id(damped, "r1").confidence == pytest.approx(0.8 * 0.95)
        assert rule_by_id(damped, "r9").confidence == pytest.approx(0.5 * 0.95)

    def test_multiplication(self, weakest_premise_graph):
        cfg = CalibrationConfig(beta=0.95)
        g = weakest_premise_graph
        damped = apply_boundary_damping(g, cfg)
        assert rule_by_id(damped, "r0").confidence <= rule_by_id(g, "r0").confidence

    def test_only_entailment_rules_touched(self, giraffe_graph):
        damped = apply_boundary_damping(giraffe_graph, CFG)
        for rid in ("r1", "r2", "r3"):
            assert rule_by_id(damped, rid).confidence == rule_by_id(giraffe_graph, rid).confidence


class TestConfigValidation:
    def test_defaults_match_tuned_values(self):
        assert (CFG.k, CFG.k_entailment) == (9, 36)
        assert (CFG.t_entailment, CFG.t_xor, CFG.t_mc) == (1.02, 1.1, 0.98)
        assert (CFG.m_xor, CFG.beta, CFG.d_max) == (0.3, 0.95, 5)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CalibrationConfig(k=-1)
        with pytest.raises(ValueError):
            CalibrationConfig(beta=0.0)
        with pytest.raises(ValueError):
            CalibrationConfig(m_xor=1.5)
        with pytest.raises(ValueError):
            CalibrationConfig(d_max=-1)
        assert CalibrationConfig(d_max=MAX_DEPTH).d_max == 100
        with pytest.raises(ValueError, match=r"d_max must be in \[0, 100\], got 101"):
            CalibrationConfig(d_max=MAX_DEPTH + 1)
        for d_max in (2.5, True):
            with pytest.raises(ValueError, match="d_max must be an integer"):
                CalibrationConfig(d_max=d_max)
        for name in ("k", "k_entailment", "t_entailment", "t_xor", "t_mc", "m_xor", "beta"):
            for value in (math.nan, math.inf, -math.inf, 10**400, True):
                with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                    CalibrationConfig(**{name: value})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CalibrationConfig)])
def test_every_field_changes_the_graph(name, trace_oracle, trace_hypotheses):
    """Halving any one field changes the graph document: no field is a knob
    that construction ignores."""
    value = getattr(CFG, name)
    halved = dataclasses.replace(CFG, **{name: value // 2 if isinstance(value, int) else value / 2})

    def document(cfg):
        return dumps(graph_to_document(generate_graph(trace_hypotheses, trace_oracle, cfg)))

    assert document(halved) != document(CFG)
