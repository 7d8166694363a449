import hashlib
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import (
    BeliefGraph,
    CalibrationConfig,
    ConstructionError,
    HypothesisSet,
    MockOracle,
    RuleType,
    canonicalize,
    generate_graph,
)
from beliefgraph import construction
from beliefgraph.construction import MAX_DEPTH, entailment_key
from beliefgraph.serialize import dumps, graph_to_document
from conftest import TRACE_PREMISES, TRACE_SCORES, two_pass_damping


# The code points the regex ``\s`` matches, found over every code point.
WHITESPACE = "".join(re.findall(r"\s", "".join(map(chr, range(0x110000)))))
# Texts over whitespace, letters, periods, non-ASCII and astral characters
# and lone surrogates, or over any characters but surrogates.
MIXED_TEXT = st.text(
    alphabet=st.sampled_from(WHITESPACE + "aZ.\u00df\u0130\u1e9e\U0001d400\U0001f600\ud800\udfff"),
    max_size=16,
) | st.text(max_size=16)


def regex_collapse(text):
    """The whitespace collapse as a regular expression writes it."""
    return re.sub(r"\s+", " ", text.strip())


def regex_canonicalize(text):
    """`canonicalize` as a regular expression writes it."""
    canon = regex_collapse(text).lower().rstrip(". ")
    if not canon:
        raise ValueError(f"cannot canonicalize {text!r}")
    return canon


def rule_counts(graph):
    counts = {t: 0 for t in RuleType}
    for rule in graph.rules:
        counts[rule.rule_type] += 1
    return counts


class TestCanonicalize:
    def test_lowercase_and_period(self):
        assert canonicalize("The sky is blue.") == "the sky is blue"

    def test_whitespace_collapse(self):
        assert canonicalize("  The  sky is blue") == "the sky is blue"

    def test_idempotent(self):
        text = "  A  graduated   Cylinder. "
        assert canonicalize(canonicalize(text)) == canonicalize(text)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize("   ")

    @pytest.mark.parametrize("text", [".", " .. ", ". ."])
    def test_nothing_but_periods_rejected(self, text):
        with pytest.raises(ValueError):
            canonicalize(text)

    def test_trailing_periods_and_spaces_dropped(self):
        assert canonicalize("Alpha is a mammal. .") == "alpha is a mammal"
        assert canonicalize("a . .") == "a"
        assert canonicalize("a.b ..") == "a.b"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("aB. \t\n\u00a0\u2028\u0130\u1e9e"), max_size=12)
           | st.text(max_size=12))
    def test_idempotent_property(self, text):
        try:
            canon = canonicalize(text)
        except ValueError:
            return
        assert canonicalize(canon) == canon

    def test_split_and_regex_agree_on_whitespace(self):
        assert len(WHITESPACE) == 29
        assert WHITESPACE == "".join(c for c in map(chr, range(0x110000)) if c.isspace())

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(MIXED_TEXT)
    def test_equals_the_regex_form(self, text):
        try:
            expected = regex_canonicalize(text)
        except ValueError:
            with pytest.raises(ValueError):
                canonicalize(text)
            return
        assert canonicalize(text) == expected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(MIXED_TEXT)
    def test_node_text_equals_the_regex_form(self, text):
        try:
            regex_canonicalize(text)
        except ValueError:
            with pytest.raises(ValueError):
                HypothesisSet((text,))
            return
        if re.search("[\ud800-\udfff]", text):
            with pytest.raises(ValueError, match="hypothesis must be a UTF-8 string"):
                HypothesisSet((text,))
            return
        graph = generate_graph(HypothesisSet((text,)), MockOracle())
        assert graph.statements[0].text == regex_collapse(text)


class TestMockOracle:
    def test_entailment_keys_are_canonicalized(self):
        oracle = MockOracle(
            entailment_scores={
                "Alpha is a mammal. => Alpha breathes.": 0.3,
                "Alpha  has FUR && alpha is warm blooded. => alpha is a mammal": 0.6,
            }
        )
        assert oracle.score_entailment(["alpha is a mammal"], "Alpha breathes") == 0.3
        assert oracle.score_entailment(
            ["Alpha has fur.", "Alpha is warm blooded."], "Alpha is a mammal."
        ) == 0.6
        assert oracle.entailment_scores == {
            entailment_key(["alpha is a mammal"], "alpha breathes"): 0.3,
            entailment_key(["alpha has fur", "alpha is warm blooded"], "alpha is a mammal"): 0.6,
        }

    def test_entailment_key_without_arrow_rejected(self):
        with pytest.raises(ValueError, match="' => '"):
            MockOracle(entailment_scores={"alpha breathes": 0.3})

    def test_key_not_a_string_is_type_error(self):
        with pytest.raises(TypeError, match="cannot canonicalize 5: not a string"):
            MockOracle(statement_scores={5: 0.5})


class TestHypothesisSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            HypothesisSet(("The sky is blue.", "the sky is blue"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HypothesisSet(())

    def test_hypothesis_not_a_string_is_type_error(self):
        with pytest.raises(TypeError, match="cannot canonicalize 5: not a string"):
            HypothesisSet(("a", 5))


class TestDepthZero:
    def test_statements_and_mc_rules_only(self, trace_oracle, trace_hypotheses):
        cfg = CalibrationConfig(d_max=0)
        g = generate_graph(trace_hypotheses, trace_oracle, cfg)
        assert len(g.statements) == 2
        counts = rule_counts(g)
        assert counts[RuleType.ENTAILMENT] == 0
        assert counts[RuleType.XOR_PAIR] == 0
        assert counts[RuleType.MC_HARD] == 1
        assert counts[RuleType.MC_PAIRWISE] == 1

    def test_labels_from_scores(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=0))
        mammal, reptile = g.hypotheses
        assert g.statements[mammal].label is True
        assert g.statements[mammal].raw_score == 0.9
        assert g.statements[reptile].label is False


class TestDepthOne:
    def test_trace_counts(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=1))
        # 2 hypotheses + 2 negations + 3 premises
        assert len(g.statements) == 7
        counts = rule_counts(g)
        assert counts[RuleType.ENTAILMENT] == 2
        # The reptile hypothesis scores 0.3 vs a default 0.5 for its
        # negation: inside the margin, so only one XOR pair survives.
        assert counts[RuleType.XOR_PAIR] == 1
        assert counts[RuleType.MC_HARD] == 1
        assert counts[RuleType.MC_PAIRWISE] == 1

    def test_negation_nodes_link_back(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=1))
        mammal = g.hypotheses[0]
        negations = [s for s in g.statements.values() if s.is_negation_of == mammal]
        assert len(negations) == 1
        assert negations[0].depth == 1

    def test_premise_depths(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=1))
        for rule in g.rules:
            if rule.rule_type is RuleType.ENTAILMENT:
                hyp_depth = g.statements[rule.hypothesis_ids[0]].depth
                for p in rule.premise_ids:
                    assert g.statements[p].depth >= hyp_depth


class TestDepthTwo:
    def test_trace_counts(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=2))
        # hypotheses (2) + their negations (2) + premises (3) + the
        # warm-blooded support premise (1) + premise negations (3)
        assert len(g.statements) == 11
        counts = rule_counts(g)
        assert counts[RuleType.ENTAILMENT] == 3
        assert counts[RuleType.XOR_PAIR] == 1
        assert counts[RuleType.MC_HARD] == 1
        assert counts[RuleType.MC_PAIRWISE] == 1

    def test_boundary_damping_applied_once(self, trace_oracle, trace_hypotheses):
        cfg = CalibrationConfig(d_max=2)
        g = generate_graph(trace_hypotheses, trace_oracle, cfg)
        entailments = {
            canonicalize(g.statements[r.hypothesis_ids[0]].text): r
            for r in g.rules
            if r.rule_type is RuleType.ENTAILMENT
        }
        # Rules whose premises are unsupported leaves get damped; the
        # mammal rule's warm-blooded premise is itself concluded, so not.
        assert entailments["alpha is a mammal"].confidence == pytest.approx(
            1.02 * 2.718281828459045 ** (36 * (0.85 - 1))
        )
        damped = entailments["alpha is warm blooded"].confidence
        assert damped == pytest.approx(0.95 * 1.02 * 2.718281828459045 ** (36 * (0.85 - 1)))


class TestDeterminismAndDedup:
    def test_bit_for_bit_deterministic(self, trace_oracle, trace_hypotheses):
        cfg = CalibrationConfig(d_max=2)
        doc1 = graph_to_document(generate_graph(trace_hypotheses, trace_oracle, cfg))
        doc2 = graph_to_document(generate_graph(trace_hypotheses, trace_oracle, cfg))
        assert doc1 == doc2

    def test_shared_premise_reuses_node(self):
        oracle = MockOracle(
            premises={
                "a": ["shared fact", "only for a"],
                "b": ["shared fact", "only for b"],
            },
            statement_scores={"a": 0.9, "b": 0.1},
        )
        g = generate_graph(HypothesisSet(("A", "B")), oracle, CalibrationConfig(d_max=1))
        texts = [canonicalize(s.text) for s in g.statements.values()]
        assert texts.count("shared fact") == 1

    def test_negation_of_negation_terminates(self):
        oracle = MockOracle(statement_scores={"x holds": 0.95})
        g = generate_graph(HypothesisSet(("X holds", "Y holds")), oracle,
                           CalibrationConfig(d_max=3))
        # negate(negate(x)) canonically equals x, so depth never runs away.
        assert all(s.depth <= 3 for s in g.statements.values())

    def test_self_premise_and_self_negation_add_nothing(self):
        # "b holds" is offered as its own premise and, like "d holds", is
        # its own negation: neither adds a rule, a premise or a negation
        # link.  The digest pins the document from before the builder
        # stopped re-checking for them.
        oracle = MockOracle(
            premises={"a holds": ["A holds.", "b holds", "c holds"], "b holds": ["  B  HOLDS "]},
            statement_scores={"a holds": 0.9, "b holds": 0.3, "c holds": 0.8, "d holds": 0.2},
            negations={"b holds": "B holds.", "d holds": "d holds"},
        )
        g = generate_graph(HypothesisSet(("A holds", "D holds")), oracle,
                           CalibrationConfig(d_max=2))
        assert [(r.rule_type, r.premise_ids, r.hypothesis_ids) for r in g.rules] == [
            (RuleType.ENTAILMENT, (1, 2), (0,)),
            (RuleType.XOR_PAIR, (), (4, 0)),
            (RuleType.MC_HARD, (), (0, 5)),
            (RuleType.MC_PAIRWISE, (), (0, 5)),
        ]
        assert g.statements[1].is_negation_of is None
        assert g.statements[5].is_negation_of is None
        text = dumps(graph_to_document(g))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "50474dfcb513a56f28e9e82314ff322adfa27544379df24d81ca0bc3c1acec2a"
        )

    def test_empty_premises_make_a_leaf(self):
        oracle = MockOracle(statement_scores={"a": 0.9, "b": 0.1})
        g = generate_graph(HypothesisSet(("A", "B")), oracle, CalibrationConfig(d_max=2))
        assert rule_counts(g)[RuleType.ENTAILMENT] == 0


class TestReachabilityInvariant:
    def test_all_nodes_reachable_from_hypotheses(self, trace_oracle, trace_hypotheses):
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=2))
        reachable = set(g.hypotheses)
        changed = True
        while changed:
            changed = False
            for rule in g.rules:
                ids = set(rule.statement_ids())
                if ids & reachable and not ids <= reachable:
                    reachable |= ids
                    changed = True
        for s in g.statements.values():
            if s.is_negation_of is not None:
                reachable.add(s.id)  # negations link by the negation edge
        assert reachable == set(g.statements)


class TestFailureModes:
    def test_statement_budget(self, monkeypatch):
        # A pathological oracle chain is cut off by the budget.
        monkeypatch.setattr(construction, "MAX_STATEMENTS", 50)
        class Chain:
            def generate_premises(self, s):
                return [s + " x", s + " y"]

            def score_statement(self, s):
                return 0.9

            def score_entailment(self, premises, h):
                return 0.9

            def negate(self, s):
                return "not " + s if not s.startswith("not ") else s[4:]

        with pytest.raises(ConstructionError, match="statement budget of 50 exhausted"):
            generate_graph(HypothesisSet(("a", "b")), Chain(), CalibrationConfig(d_max=5))

    def test_oracle_failure_wrapped(self):
        class Broken:
            def generate_premises(self, s):
                raise IOError("backend down")

            def score_statement(self, s):
                return 0.9

            def score_entailment(self, premises, h):
                return 0.9

            def negate(self, s):
                return "not " + s

        with pytest.raises(ConstructionError):
            generate_graph(HypothesisSet(("a", "b")), Broken(), CalibrationConfig(d_max=2))

    @pytest.mark.parametrize("table", ["premises", "negations"])
    def test_text_utf8_cannot_encode_is_rejected(self, table):
        """A lone surrogate would make a graph document that does not load.
        `MockOracle` refuses such text in its tables, so an oracle of its
        own hands it to the builder."""
        bad = "bad \ud800 text"

        class Surrogate:
            def generate_premises(self, s):
                return [bad] if table == "premises" and s == "A" else []

            def score_statement(self, s):
                return 0.9

            def score_entailment(self, premises, h):
                return 0.9

            def negate(self, s):
                return bad if table == "negations" and s == "A" else "not " + s

        with pytest.raises(ConstructionError, match=re.escape(repr(bad))):
            generate_graph(HypothesisSet(("A", "B")), Surrogate(), CalibrationConfig(d_max=1))

    @pytest.mark.parametrize("answer", ["ab", {"a": 1}, ("a", "b"), None],
                             ids=["str", "dict", "tuple", "none"])
    def test_premises_answer_that_is_not_a_list_is_rejected(self, answer):
        """A premises answer is a list of texts, as in a fixture's table: a
        string is not split into one-character statements."""

        class Mistyped:
            def generate_premises(self, s):
                return answer if s == "A" else []

            def score_statement(self, s):
                return 0.9

            def score_entailment(self, premises, h):
                return 0.9

            def negate(self, s):
                return "not " + s

        with pytest.raises(ConstructionError,
                           match=f"premises must be a list, got {type(answer).__name__}"):
            generate_graph(HypothesisSet(("A", "B")), Mistyped(), CalibrationConfig(d_max=1))

    @pytest.mark.parametrize("query", ["statement", "entailment"])
    @pytest.mark.parametrize("bad", ["0.9", True, 1.5, math.nan])
    def test_score_that_is_not_a_score_is_rejected(self, query, bad):
        """An oracle of its own may answer a score of any type: it is held to
        the rule `MockOracle` applies to its tables, never converted."""

        class Mistyped:
            def generate_premises(self, s):
                return ["C"] if s == "A" else []

            def score_statement(self, s):
                return bad if query == "statement" else 0.9

            def score_entailment(self, premises, h):
                return bad if query == "entailment" else 0.9

            def negate(self, s):
                return "not " + s

        with pytest.raises(ConstructionError, match=f"{query} score must be"):
            generate_graph(HypothesisSet(("A", "B")), Mistyped(), CalibrationConfig(d_max=1))

    def test_chain_at_the_depth_bound_builds(self):
        """A full-depth chain fits the default recursion limit, with room to spare."""
        oracle = MockOracle(premises={f"link {k}": [f"link {k + 1}"] for k in range(2 * MAX_DEPTH)})
        cfg = CalibrationConfig(d_max=MAX_DEPTH)

        def nested(frames):
            if frames:
                return nested(frames - 1)
            return generate_graph(HypothesisSet(("link 0",)), oracle, cfg)

        g = nested(300)
        # links 0 to MAX_DEPTH, and the negations of all but the last
        assert len(g.statements) == 2 * MAX_DEPTH + 1
        assert max(s.depth for s in g.statements.values()) == MAX_DEPTH
        assert sum(r.rule_type is RuleType.ENTAILMENT for r in g.rules) == MAX_DEPTH


class CountingOracle:
    """Forwards every query to an oracle and counts it by kind and canonical text."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.counts = {
            kind: Counter()
            for kind in ("score_statement", "generate_premises", "negate", "score_entailment")
        }

    def score_statement(self, statement):
        self.counts["score_statement"][canonicalize(statement)] += 1
        return self.oracle.score_statement(statement)

    def generate_premises(self, statement):
        self.counts["generate_premises"][canonicalize(statement)] += 1
        return self.oracle.generate_premises(statement)

    def negate(self, statement):
        self.counts["negate"][canonicalize(statement)] += 1
        return self.oracle.negate(statement)

    def score_entailment(self, premises, hypothesis):
        self.counts["score_entailment"][entailment_key(premises, hypothesis)] += 1
        return self.oracle.score_entailment(premises, hypothesis)


SHARED_PREMISE_ORACLE = MockOracle(
    premises={
        "a": ["shared fact", "only for a"],
        "b": ["shared fact", "only for b", "b"],
        "c": ["only for b", "deep fact", "link 1"],
        "shared fact": ["deep fact", "a"],
        "only for a": ["deep fact", "shared fact"],
        "deep fact": ["shared fact", "it is not the case that only for a"],
        # A chain that reaches past d_max.
        **{f"link {k}": [f"link {k + 1}", "shared fact"] for k in range(1, 6)},
    },
    statement_scores={"a": 0.9, "b": 0.1, "c": 0.6, "shared fact": 0.8, "deep fact": 0.3},
    negations={"only for b": "nothing is only for b"},
)


class TestOracleTraffic:
    """Construction sends each distinct statement to the oracle once."""

    @pytest.mark.parametrize(
        "oracle, hypotheses, d_max, totals",
        [
            (
                MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES),
                ("Alpha is a mammal.", "Alpha is a reptile."),
                2,
                (11, 7, 7, 3),
            ),
            (SHARED_PREMISE_ORACLE, ("A", "B", "C"), 5, (24, 22, 22, 10)),
        ],
        ids=["trace", "shared-premises"],
    )
    def test_each_statement_queried_once(self, oracle, hypotheses, d_max, totals):
        counting = CountingOracle(oracle)
        g = generate_graph(HypothesisSet(hypotheses), counting, CalibrationConfig(d_max=d_max))
        scored = counting.counts["score_statement"]
        assert scored == Counter(canonicalize(s.text) for s in g.statements.values())
        assert set(scored.values()) == {1}
        for kind in ("generate_premises", "negate"):
            assert set(counting.counts[kind].values()) <= {1}
            assert set(counting.counts[kind]) <= set(scored)
        assert tuple(
            sum(counting.counts[kind].values())
            for kind in ("score_statement", "generate_premises", "negate", "score_entailment")
        ) == totals


class TestOnePass:
    """Boundary damping is decided as each entailment rule is made, and the
    graph is built once."""

    @pytest.mark.parametrize(
        "oracle, hypotheses, d_max, leaf_rules",
        [
            (MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES),
             ("Alpha is a mammal.", "Alpha is a reptile."), 2, 2),
            (SHARED_PREMISE_ORACLE, ("A", "B", "C"), 5, 0),
            (SHARED_PREMISE_ORACLE, ("C", "B"), 2, 3),
        ],
        ids=["trace-depth-two", "shared-premises", "shared-premises-shallow"],
    )
    @pytest.mark.parametrize("beta", [0.95, 0.5])
    def test_agrees_with_the_two_pass_definition(self, oracle, hypotheses, d_max, leaf_rules,
                                                 beta):
        cfg = CalibrationConfig(d_max=d_max, beta=beta)
        g = generate_graph(HypothesisSet(hypotheses), oracle, cfg)
        entailments = [r for r in g.rules if r.rule_type is RuleType.ENTAILMENT]
        concluded = {r.hypothesis_ids[0] for r in entailments}
        assert sum(concluded.isdisjoint(r.premise_ids) for r in entailments) == leaf_rules
        assert two_pass_damping(g, cfg) == g

    def test_one_graph_constructed(self, monkeypatch, trace_oracle, trace_hypotheses):
        built = []
        post_init = BeliefGraph.__post_init__
        monkeypatch.setattr(BeliefGraph, "__post_init__",
                            lambda graph: built.append(graph) or post_init(graph))
        g = generate_graph(trace_hypotheses, trace_oracle, CalibrationConfig(d_max=2))
        assert len(built) == 1 and built[0] is g
