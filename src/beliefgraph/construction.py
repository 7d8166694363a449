"""Belief-graph construction by recursive backward chaining over an oracle.

The oracle answers four kinds of queries: premise generation, statement
truth scoring, entailment scoring, and negation.  Construction walks each
hypothesis down to a depth limit, adding entailment rules, negations with
XOR pairs, and the multiple-choice constraints over the hypothesis set.
An entailment rule is damped by ``beta`` when it is made if no entailment
rule concludes any of its premises.

A statement is labelled true iff its truth score s is at least 0.5.  Raw
model scores are heavily skewed towards 0 and 1, so the score of the label
a statement takes (s or 1 - s) and an entailment score are squashed with
exp(k * (s - 1)), each with its own k; an entailment also carries an
importance factor t on top.  XOR and multiple-choice rules are structural:
their confidence is their importance factor alone.  An XOR pair is kept
only when its two truth scores differ by more than a margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

from .errors import ConstructionError, array, finite_number, integer, score, utf8_string
from .model import (
    HARD,
    BeliefGraph,
    RuleNode,
    RuleType,
    StatementId,
    StatementNode,
)

# Construction recurses about two frames per level, so this bound keeps a
# full-depth build well inside the interpreter's default recursion limit.
MAX_DEPTH = 100
MAX_STATEMENTS = 2000


@dataclass(frozen=True)
class CalibrationConfig:
    """Calibration and construction hyperparameters (tuned once, then frozen)."""

    k: float = 9.0
    k_entailment: float = 36.0
    t_entailment: float = 1.02
    t_xor: float = 1.1
    t_mc: float = 0.98
    m_xor: float = 0.3
    beta: float = 0.95
    d_max: int = 5

    def __post_init__(self) -> None:
        # Checked, not converted, so an accepted value keeps its config digest.
        for name in ("k", "k_entailment", "t_entailment", "t_xor", "t_mc"):
            if finite_number(getattr(self, name), name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        score(self.m_xor, "m_xor")
        if not 0.0 < finite_number(self.beta, "beta") <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0 <= integer(self.d_max, "d_max") <= MAX_DEPTH:
            raise ValueError(f"d_max must be in [0, {MAX_DEPTH}], got {self.d_max!r}")


def canonicalize(text: str) -> str:
    """Lowercased, whitespace-collapsed node identity without its trailing
    periods and spaces; idempotent."""
    if not isinstance(text, str):
        raise TypeError(f"cannot canonicalize {text!r}: not a string")
    # `str.split` splits on exactly the code points that the regex `\s` matches.
    canon = " ".join(text.split()).lower().rstrip(". ")
    if not canon:
        raise ValueError(f"cannot canonicalize {text!r}: nothing but spaces and periods")
    return canon


def statement_text(value: object, name: str) -> str:
    """``value`` if it is a string that `canonicalize` accepts and UTF-8 can
    encode; otherwise `canonicalize`'s error or a ValueError, naming ``name``."""
    try:
        canonicalize(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    return utf8_string(value, name)


def statement_texts(value: object, name: str) -> list[str]:
    """A copy of ``value`` if it is a list of `statement_text` strings."""
    return [statement_text(text, name) for text in array(value, name)]


class BeliefOracle(Protocol):
    """Behavioral interface for the model behind graph construction.

    Implementations must be deterministic for a fixed instance and input;
    live LLM backends are expected to cache.
    """

    def generate_premises(self, statement: str) -> list[str]:
        """Premises that together may entail the statement (may be empty)."""
        ...

    def score_statement(self, statement: str) -> float:
        """Truth score in [0, 1]: how strongly the model believes the statement."""
        ...

    def score_entailment(self, premises: Sequence[str], hypothesis: str) -> float:
        """Score in [0, 1] for how strongly the premises jointly entail the hypothesis."""
        ...

    def negate(self, statement: str) -> str:
        """The negated form of the statement."""
        ...


NEGATION_PREFIX = "it is not the case that "


def entailment_key(premises: Sequence[str], hypothesis: str) -> str:
    """Canonical lookup key for an entailment query."""
    return " && ".join(canonicalize(p) for p in premises) + " => " + canonicalize(hypothesis)


def _canonical_entailment_key(key: str) -> str:
    """``key`` rebuilt with `entailment_key` from its " => " and " && " parts."""
    premises, arrow, hypothesis = key.partition(" => ")
    if not arrow:
        raise ValueError(f"entailment key {key!r} has no ' => '")
    return entailment_key(premises.split(" && ") if premises else [], hypothesis)


@dataclass
class MockOracle:
    """Deterministic table-driven oracle for desk-scale runs and tests.

    Unknown statements score ``default_score``, unknown premise queries
    return no premises, and unknown negations toggle a fixed prefix (an
    involution under canonicalization).  Table keys are canonicalized, each
    statement of an ``entailment_scores`` key ``"p1 && p2 => h"`` on its own.
    A table must be a dict, a premise or negation a `statement_text`, and a
    score a number in [0, 1] other than a bool.
    """

    premises: dict[str, list[str]] = field(default_factory=dict)
    statement_scores: dict[str, float] = field(default_factory=dict)
    entailment_scores: dict[str, float] = field(default_factory=dict)
    negations: dict[str, str] = field(default_factory=dict)
    default_score: float = 0.5
    default_entailment_score: float = 0.85

    def __post_init__(self) -> None:
        tables = {
            "premises": (canonicalize, statement_texts),
            "statement_scores": (canonicalize, score),
            "entailment_scores": (_canonical_entailment_key, score),
            "negations": (canonicalize, statement_text),
        }
        for name, (key, read) in tables.items():
            table = getattr(self, name)
            if not isinstance(table, dict):
                raise TypeError(f"{name!r} must be an object")
            setattr(self, name, {key(k): read(v, f"{name}: field {k!r}") for k, v in table.items()})
        for name in ("default_score", "default_entailment_score"):
            setattr(self, name, score(getattr(self, name), f"field {name!r}"))

    def generate_premises(self, statement: str) -> list[str]:
        return list(self.premises.get(canonicalize(statement), []))

    def score_statement(self, statement: str) -> float:
        return self.statement_scores.get(canonicalize(statement), self.default_score)

    def score_entailment(self, premises: Sequence[str], hypothesis: str) -> float:
        key = entailment_key(premises, hypothesis)
        return self.entailment_scores.get(key, self.default_entailment_score)

    def negate(self, statement: str) -> str:
        canon = canonicalize(statement)
        if canon in self.negations:
            return self.negations[canon]
        if canon.startswith(NEGATION_PREFIX):
            return canon[len(NEGATION_PREFIX):]
        return NEGATION_PREFIX + canon


@dataclass(frozen=True)
class HypothesisSet:
    """Candidate answers for one question, as declarative sentences: a
    non-empty tuple of `statement_text` strings, distinct once canonicalized,
    an integer ``gold_index`` into it and a UTF-8 ``question_id``, each
    optional."""

    hypotheses: tuple[str, ...]
    gold_index: int | None = None
    question_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.hypotheses, tuple):
            raise TypeError(f"hypotheses must be a tuple, got {type(self.hypotheses).__name__}")
        if not self.hypotheses:
            raise ValueError("hypothesis set must be non-empty")
        canon = {canonicalize(statement_text(h, "hypothesis")) for h in self.hypotheses}
        if len(canon) != len(self.hypotheses):
            raise ValueError("duplicate hypotheses after canonicalization")
        if self.gold_index is not None:
            if not 0 <= integer(self.gold_index, "gold_index") < len(self.hypotheses):
                raise ValueError("gold_index out of range")
        if self.question_id is not None:
            utf8_string(self.question_id, "question_id")


class _Builder:
    def __init__(self, oracle: BeliefOracle, cfg: CalibrationConfig):
        self.oracle = oracle
        self.cfg = cfg
        self.nodes: dict[StatementId, StatementNode] = {}
        self.ids: dict[str, StatementId] = {}
        self.rules: list[RuleNode] = []
        # Statements that an entailment rule concludes or will conclude.
        self.concluded: set[StatementId] = set()
        self.xor_pairs: set[frozenset[StatementId]] = set()

    def extend(self, text: str, depth: int) -> StatementId:
        canon = canonicalize(text)
        if canon in self.ids:
            return self.ids[canon]
        if len(self.nodes) >= MAX_STATEMENTS:
            raise ConstructionError(f"statement budget of {MAX_STATEMENTS} exhausted")
        utf8_string(text, "statement text")
        s_d = score(self.oracle.score_statement(text), "statement score")
        label = s_d >= 0.5
        sid = len(self.nodes)
        self.ids[canon] = sid
        self.nodes[sid] = StatementNode(
            id=sid,
            text=" ".join(text.split()),
            label=label,
            confidence=math.exp(self.cfg.k * ((s_d if label else 1.0 - s_d) - 1.0)),
            depth=depth,
            raw_score=s_d,
        )
        if depth < self.cfg.d_max:
            answer = statement_texts(self.oracle.generate_premises(text), "premises")
            premises = [p for p in answer if canonicalize(p) != canon]
            # A premise with the statement's own text was dropped above, and
            # any other text gets another id, so no premise id is sid.
            if premises:
                # Marked before its premises are built: a statement is expanded
                # only on first reach, so its rule's premises that the finished
                # graph concludes, a cycle's included, are all marked by then.
                self.concluded.add(sid)
                premise_ids = tuple(dict.fromkeys(self.extend(p, depth + 1) for p in premises))
                s_e = score(self.oracle.score_entailment(premises, text), "entailment score")
                confidence = self.cfg.t_entailment * math.exp(self.cfg.k_entailment * (s_e - 1.0))
                if self.concluded.isdisjoint(premise_ids):  # boundary damping
                    confidence *= self.cfg.beta
                self.rules.append(
                    RuleNode(
                        id=f"r{len(self.rules)}",
                        rule_type=RuleType.ENTAILMENT,
                        premise_ids=premise_ids,
                        hypothesis_ids=(sid,),
                        confidence=confidence,
                        raw_score=s_e,
                    )
                )
            neg_id = self.extend(self.oracle.negate(text), depth + 1)
            if neg_id != sid:
                neg_node = self.nodes[neg_id]
                if neg_node.is_negation_of is None:
                    self.nodes[neg_id] = replace(neg_node, is_negation_of=sid)
                pair = frozenset((sid, neg_id))
                if pair not in self.xor_pairs:
                    self.xor_pairs.add(pair)
                    # Kept only when the two truth scores clearly disagree.  A
                    # gap of exactly m_xor drops the pair: the tolerance keeps
                    # that boundary stable under float rounding (0.8 - 0.5
                    # evaluates slightly above 0.3).
                    if abs(s_d - neg_node.raw_score) - self.cfg.m_xor > 1e-12:
                        self.rules.append(
                            RuleNode(
                                id=f"r{len(self.rules)}",
                                rule_type=RuleType.XOR_PAIR,
                                premise_ids=(),
                                hypothesis_ids=(sid, neg_id),
                                confidence=self.cfg.t_xor,
                            )
                        )
        return sid


def multiple_choice_rules(
    hypothesis_ids: Sequence[StatementId], first: int, cfg: CalibrationConfig
) -> list[RuleNode]:
    """The multiple-choice constraints over a hypothesis set, with ids from
    ``r<first>`` on: one hard at-least-one rule, then a soft exclusion per pair."""
    rules = [RuleNode(f"r{first}", RuleType.MC_HARD, (), tuple(hypothesis_ids), HARD)]
    for pair in itertools.combinations(hypothesis_ids, 2):
        rules.append(RuleNode(f"r{first + len(rules)}", RuleType.MC_PAIRWISE, (), pair, cfg.t_mc))
    return rules


def generate_graph(
    hypothesis_set: HypothesisSet,
    oracle: BeliefOracle,
    cfg: CalibrationConfig | None = None,
) -> BeliefGraph:
    """Build the belief graph for a hypothesis set.

    Each hypothesis is expanded from depth 0, and the multiple-choice
    constraints (one hard at-least-one clause, soft pairwise exclusions)
    are added over the hypothesis set.
    """
    cfg = cfg or CalibrationConfig()
    builder = _Builder(oracle, cfg)
    hyp_ids: list[StatementId] = []
    try:
        for h in hypothesis_set.hypotheses:
            hyp_ids.append(builder.extend(h, 0))
    except ConstructionError:
        raise
    except Exception as exc:
        raise ConstructionError(f"oracle failure during construction: {exc}") from exc

    builder.rules.extend(multiple_choice_rules(hyp_ids, len(builder.rules), cfg))
    return BeliefGraph(builder.nodes, tuple(builder.rules), tuple(hyp_ids))
