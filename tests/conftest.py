"""Shared hand-built graph fixtures, the two-pass reference for boundary
damping, a fresh-interpreter runner, and the Hypothesis profile every
property test runs under.

The flip/discard expectations for each fixture were derived with the
brute-force enumerator before being frozen here; the tests re-check them
against it.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

if importlib.util.find_spec("beliefgraph") is None:
    # Nothing installed and nothing on PYTHONPATH: test this checkout.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import beliefgraph
from beliefgraph import (
    HARD,
    BeliefGraph,
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    RuleNode,
    RuleType,
    StatementNode,
)
from beliefgraph.synthetic import synthetic_graph

# Every property test draws the same examples on every run, so a failure
# repeats and a checkout's tier-1 result does not depend on the draw.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def pytest_report_header(config):
    """Name the package under test, the one ``PYTHONPATH`` or an install
    provides, or else this checkout's."""
    return f"beliefgraph: {Path(beliefgraph.__file__).resolve().parent}"


def child_env(**extra):
    """The environment for a fresh interpreter that imports the package
    under test: its ``src`` ahead of the inherited ``PYTHONPATH``, and
    ``extra`` set."""
    src = str(Path(beliefgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_python(code: str, stdin: str = "") -> str:
    """Run ``code`` in a fresh interpreter that imports the package under
    test; return its standard output."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), input=stdin, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@contextmanager
def serving(server):
    """Serve ``server``, a loopback HTTP server, on a daemon thread and
    yield its URL; shut it down on the way out.  Polling every 0.05 s
    rather than the default 0.5 s keeps each shutdown short."""
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def acceptance_graphs(count):
    """The graphs the benchmark's acceptance workload asks about on seed 1."""
    return [synthetic_graph(s) for s in random.Random(1).sample(range(10**6), count)]


def rule_clauses(rule):
    """The disjunctive clause(s) a rule contributes, each a tuple of
    (statement id, polarity) literals: the clause-level reference that the
    by-type checks and `encode` are tested against."""
    if rule.rule_type is RuleType.XOR_PAIR:
        a, b = rule.hypothesis_ids
        return (((a, True), (b, True)), ((a, False), (b, False)))
    if rule.rule_type is RuleType.MC_PAIRWISE:
        a, b = rule.hypothesis_ids
        return (((a, False), (b, False)),)
    negatives = tuple((s, False) for s in rule.premise_ids)
    positives = tuple((s, True) for s in rule.hypothesis_ids)
    return (negatives + positives,)


def clause_satisfied(clause, assignment):
    """Whether some literal of the clause holds."""
    return any(assignment[var] == polarity for var, polarity in clause)


def rule_by_id(graph, rule_id):
    """The graph's rule with this id."""
    for rule in graph.rules:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def apply_boundary_damping(graph, cfg):
    """Reference definition of boundary damping, as a pass over a finished
    graph: scale by ``beta`` each soft entailment rule none of whose
    premises is concluded by an entailment rule of the graph."""
    concluded = {
        sid
        for rule in graph.rules
        if rule.rule_type is RuleType.ENTAILMENT
        for sid in rule.hypothesis_ids
    }
    rules = []
    for rule in graph.rules:
        if (
            rule.rule_type is RuleType.ENTAILMENT
            and not rule.is_hard
            and rule.premise_ids
            and all(p not in concluded for p in rule.premise_ids)
        ):
            rule = replace(rule, confidence=rule.confidence * cfg.beta)
        rules.append(rule)
    return BeliefGraph(dict(graph.statements), tuple(rules), graph.hypotheses)


def two_pass_damping(graph, cfg):
    """A built graph as the two-pass definition makes it: each statement's
    label and confidence and each entailment rule's confidence calibrated
    afresh from its raw score, then `apply_boundary_damping` over the whole
    graph.  A statement is true iff its score s is at least 0.5, with
    confidence exp(k * (s - 1)) for the score of the side it takes, s or
    1 - s; an entailment's confidence is t * exp(k_entailment * (s - 1))."""
    statements = {}
    for sid, node in graph.statements.items():
        label = node.raw_score >= 0.5
        side = node.raw_score if label else 1.0 - node.raw_score
        statements[sid] = replace(node, label=label, confidence=math.exp(cfg.k * (side - 1.0)))
    rules = tuple(
        replace(rule, confidence=cfg.t_entailment
                * math.exp(cfg.k_entailment * (rule.raw_score - 1.0)))
        if rule.rule_type is RuleType.ENTAILMENT
        else rule
        for rule in graph.rules
    )
    return apply_boundary_damping(replace(graph, statements=statements, rules=rules), cfg)


def make_graph(statements, rules, hypotheses):
    nodes = {}
    for sid, text, label, confidence, extra in statements:
        nodes[sid] = StatementNode(
            id=sid,
            text=text,
            label=label,
            confidence=confidence,
            depth=extra.get("depth", 0),
            is_negation_of=extra.get("neg_of"),
            raw_score=extra.get("raw"),
        )
    rule_nodes = tuple(
        RuleNode(
            id=rid,
            rule_type=rtype,
            premise_ids=tuple(premises),
            hypothesis_ids=tuple(hyps),
            confidence=conf,
        )
        for rid, rtype, premises, hyps, conf in rules
    )
    return BeliefGraph(nodes, rule_nodes, tuple(hypotheses))


def overflow_graph(weight):
    """Three statements labelled true, each held true by a one-hypothesis
    MC_HARD rule, under a pairwise MC rule of confidence ``weight`` per pair:
    the optimum violates all three pairwise rules, at three times ``weight``."""
    return make_graph(
        statements=[(sid, f"fact {sid}", True, 0.9, {}) for sid in range(3)],
        rules=[(f"m{a}{b}", RuleType.MC_PAIRWISE, (), (a, b), weight)
               for a, b in ((0, 1), (0, 2), (1, 2))]
              + [(f"h{sid}", RuleType.MC_HARD, (), (sid,), HARD) for sid in range(3)],
        hypotheses=[0, 1, 2],
    )


@pytest.fixture
def giraffe_graph():
    """Two-option question where an XOR conflict flips the wrong answer away."""
    return make_graph(
        statements=[
            (0, "giraffes give live birth", True, 0.8, {}),
            (1, "spiders give live birth", True, 0.55, {}),
            (2, "spiders do not give live birth", True, 0.9, {"neg_of": 1, "depth": 1}),
            (3, "a giraffe is a mammal", True, 0.9, {"depth": 1}),
            (4, "mammals give live birth", True, 0.95, {"depth": 1}),
        ],
        rules=[
            ("r0", RuleType.ENTAILMENT, (3, 4), (0,), 0.9),
            ("r1", RuleType.XOR_PAIR, (), (1, 2), 1.1),
            ("r2", RuleType.MC_HARD, (), (0, 1), HARD),
            ("r3", RuleType.MC_PAIRWISE, (), (0, 1), 0.98),
        ],
        hypotheses=(0, 1),
    )


@pytest.fixture
def flip_to_true_graph():
    """A disbelieved hypothesis with two believed supporting rules; the
    cheapest repair flips it to true."""
    return make_graph(
        statements=[
            (0, "the supported option holds", False, 0.4, {}),
            (1, "the other option holds", False, 0.7, {}),
            (2, "first supporting fact", True, 0.9, {"depth": 1}),
            (3, "second supporting fact", True, 0.9, {"depth": 1}),
            (4, "the alternative is ruled out", True, 0.8, {"depth": 1}),
        ],
        rules=[
            ("r0", RuleType.ENTAILMENT, (2, 3), (0,), 0.9),
            ("r1", RuleType.ENTAILMENT, (4,), (0,), 0.8),
            ("r2", RuleType.MC_HARD, (), (0, 1), HARD),
            ("r3", RuleType.MC_PAIRWISE, (), (0, 1), 0.98),
        ],
        hypotheses=(0, 1),
    )


@pytest.fixture
def weakest_premise_graph():
    """A violated rule repaired by disbelieving its weakest premise."""
    return make_graph(
        statements=[
            (0, "the disbelieved option holds", False, 0.9, {}),
            (1, "a strong premise", True, 0.9, {"depth": 1}),
            (2, "a weak premise", True, 0.3, {"depth": 1}),
            (3, "the believed option holds", True, 0.8, {}),
        ],
        rules=[
            ("r0", RuleType.ENTAILMENT, (1, 2), (0,), 0.9),
            ("r1", RuleType.MC_HARD, (), (0, 3), HARD),
            ("r2", RuleType.MC_PAIRWISE, (), (0, 3), 0.98),
        ],
        hypotheses=(0, 3),
    )


@pytest.fixture
def bad_rule_graph():
    """Strong beliefs on both sides of a weak rule; the rule is rejected."""
    return make_graph(
        statements=[
            (0, "a firmly held premise", True, 0.95, {"depth": 1}),
            (1, "another firmly held premise", True, 0.95, {"depth": 1}),
            (2, "the conclusion the rule pushes", False, 0.95, {}),
            (3, "the accepted option", True, 0.9, {}),
        ],
        rules=[
            ("r0", RuleType.ENTAILMENT, (0, 1), (2,), 0.2),
            ("r1", RuleType.MC_HARD, (), (2, 3), HARD),
            ("r2", RuleType.MC_PAIRWISE, (), (2, 3), 0.98),
        ],
        hypotheses=(2, 3),
    )


@pytest.fixture
def cylinder_graph():
    """A weak wrong belief causes a rule discard that a user verdict repairs."""
    return make_graph(
        statements=[
            (0, "nitrogen would be measured in a graduated cylinder", False, 0.9, {}),
            (1, "perfume would be measured in a graduated cylinder", False, 0.6, {}),
            (2, "a graduated cylinder is used to measure liquids", False, 0.2, {"depth": 1}),
            (3, "perfume is a liquid", True, 0.9, {"depth": 1}),
        ],
        rules=[
            ("r0", RuleType.ENTAILMENT, (2, 3), (1,), 0.5),
            ("r1", RuleType.ENTAILMENT, (1,), (2,), 0.15),
            ("r2", RuleType.MC_HARD, (), (0, 1), HARD),
            ("r3", RuleType.MC_PAIRWISE, (), (0, 1), 0.98),
        ],
        hypotheses=(0, 1),
    )


@pytest.fixture
def xor_essential_graph():
    """Repair is driven purely by the XOR pair; masking it leaves the
    contradiction in place while masking MC does not."""
    return make_graph(
        statements=[
            (0, "the chosen option holds", True, 0.8, {}),
            (1, "the rejected option holds", False, 0.9, {}),
            (2, "the chosen option does not hold", True, 0.6, {"neg_of": 0, "depth": 1}),
        ],
        rules=[
            ("r0", RuleType.XOR_PAIR, (), (0, 2), 1.1),
            ("r1", RuleType.MC_HARD, (), (0, 1), HARD),
            ("r2", RuleType.MC_PAIRWISE, (), (0, 1), 0.98),
        ],
        hypotheses=(0, 1),
    )


TRACE_SCORES = {
    "alpha is a mammal": 0.9,
    "alpha is a reptile": 0.3,
    "alpha is warm blooded": 0.8,
    "alpha has fur": 0.7,
    "alpha is cold blooded": 0.4,
}

TRACE_PREMISES = {
    "alpha is a mammal": ["alpha is warm blooded", "alpha has fur"],
    "alpha is a reptile": ["alpha is cold blooded"],
    "alpha is warm blooded": ["alpha regulates its temperature"],
}


@pytest.fixture
def trace_oracle():
    return MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES)


@pytest.fixture
def trace_hypotheses():
    return HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile."))


@pytest.fixture
def default_config():
    return CalibrationConfig()
