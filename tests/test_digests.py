"""The output invariant as digests: graph and outcome documents of the
construction sweep, pinned and interactive outcomes, the outcomes of the
benchmark's acceptance workload, compiled clauses and DOT text stay
byte-identical.

The sweep builds 800 graphs from `perfbench/inputs.oracle_tables`: seeds
1-5, then vocabulary 20 and 100, then `d_max` 1, 2, 3 and 5, with each
table's 20 questions in order.  Each fixture goes through a file and
`load_mock_oracle`, as `build-graph --oracle mock:<path>` reads it.

Each digest is the first 16 hex digits of the SHA-256 over the
concatenated texts that its comment names; recompute one by running the
loop of its test.  The oracle cache files are pinned the same way, with
their sizes and the transport calls that wrote them.  ``document(g, o)`` stands for
`dumps(outcome_to_document(o, summarize(g, o)))`.  A change that moves a
digest names the change and its reason in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import random
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from beliefgraph import (
    CalibrationConfig,
    RemoteOracle,
    generate_graph,
    reason,
    resolve_interactive,
)
from beliefgraph.dot import to_dot
from beliefgraph.errors import ReasoningError
from beliefgraph.maxsat import encode, solve
from beliefgraph.reasoner import summarize
from beliefgraph.serialize import (
    dumps,
    graph_to_document,
    load_mock_oracle,
    outcome_to_document,
)
from beliefgraph.synthetic import synthetic_graph
from conftest import serving
from reference_solver import score

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

# `dumps(graph_to_document(g))` of every sweep graph.
GRAPH_DIGEST = "810b2f3c748cd83e"
# `document(g, reason(g))` of every sweep graph.
SWEEP_OUTCOME_DIGEST = "dc2485de51d2583d"
# Every fourth sweep graph (indices 0, 4, 8, ...), each hypothesis in graph
# order pinned true and then false: `document(g, reason(g, {h: value}))`, or
# the literal text "infeasible" where `reason` raises `ReasoningError`.
PINNED_OUTCOME_DIGEST = "46d7d87c320d8476"
# Every eighth sweep graph: `document(g, o)` with
# `o = resolve_interactive(g, lambda text: len(text) % 2 == 0)`.
INTERACTIVE_DIGEST = "dd005040259fd54b"
# By seed: `document(g, reason(g))` of the 600 graphs of perfbench's
# `acceptance` workload, `synthetic_graph(s)` for each `s` in
# `random.Random(seed).sample(range(10**6), 600)`, in that order.
ACCEPTANCE_DIGESTS = {1: "eab8852a556c700a", 2: "866086c2a80ec8c3", 3: "257d535873f0dbbe"}
# `synthetic_graph` seeds 0-99: `repr((cs.clauses, scored.violated))` with
# `cs = encode(g)` and `scored = score(cs, solve(cs))`, the tests' clause
# scorer.
CLAUSES_DIGEST = "69417acc6c35ea54"
# `synthetic_graph` seeds 0-19: `to_dot(g)` then
# `to_dot(g, o.final_assignment, o.discarded_rules)` with `o = reason(g)`.
DOT_DIGEST = "80be43577eac3bfc"
# By seed: the JSONL cache file that `RemoteOracle` writes while it builds
# the 20 questions of `oracle_tables(seed, 20, 100)` with `d_max` 5 against
# `perfbench/stub_server.py`, as (digest of its bytes, its size in bytes,
# the client's transport calls).
CACHE_FILES = {1: ("a68dbb99f16f098a", 170304, 1211), 2: ("dcbf861e8bc280eb", 170641, 1214)}


def digest(texts):
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
    return hasher.hexdigest()[:16]


def document(graph, outcome):
    return dumps(outcome_to_document(outcome, summarize(graph, outcome)))


def sweep(directory):
    """The 800 graphs of the construction sweep, in order."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in range(1, 6):
        for vocabulary in (20, 100):
            fixture, questions = inputs.oracle_tables(seed, 20, vocabulary)
            path = directory / f"oracle_{seed}_{vocabulary}.json"
            path.write_text(json.dumps(fixture))
            oracle = load_mock_oracle(path)
            for d_max in (1, 2, 3, 5):
                cfg = CalibrationConfig(d_max=d_max)
                for question in questions:
                    yield generate_graph(question, oracle, cfg)


@pytest.fixture(scope="module")
def sweep_graphs(tmp_path_factory):
    return list(sweep(tmp_path_factory.mktemp("sweep")))


def test_construction_sweep_documents_unchanged(sweep_graphs):
    assert len(sweep_graphs) == 800
    assert digest(dumps(graph_to_document(g)) for g in sweep_graphs) == GRAPH_DIGEST
    assert digest(document(g, reason(g)) for g in sweep_graphs) == SWEEP_OUTCOME_DIGEST


def test_pinned_outcomes_unchanged(sweep_graphs):
    def texts():
        for graph in sweep_graphs[::4]:
            for h in graph.hypotheses:
                for value in (True, False):
                    try:
                        yield document(graph, reason(graph, {h: value}))
                    except ReasoningError:
                        yield "infeasible"

    assert digest(texts()) == PINNED_OUTCOME_DIGEST


def test_interactive_outcomes_unchanged(sweep_graphs):
    def texts():
        for graph in sweep_graphs[::8]:
            yield document(graph, resolve_interactive(graph, lambda text: len(text) % 2 == 0))

    assert digest(texts()) == INTERACTIVE_DIGEST


@pytest.mark.parametrize("seed", sorted(ACCEPTANCE_DIGESTS))
def test_acceptance_outcomes_unchanged(seed):
    graphs = map(synthetic_graph, random.Random(seed).sample(range(10**6), 600))
    assert digest(document(g, reason(g)) for g in graphs) == ACCEPTANCE_DIGESTS[seed]


def test_clauses_and_dot_unchanged():
    def clauses():
        for seed in range(100):
            cs = encode(synthetic_graph(seed))
            yield repr((cs.clauses, score(cs, solve(cs)).violated))

    def dots():
        for seed in range(20):
            graph = synthetic_graph(seed)
            outcome = reason(graph)
            yield to_dot(graph)
            yield to_dot(graph, outcome.final_assignment, outcome.discarded_rules)

    assert digest(clauses()) == CLAUSES_DIGEST
    assert digest(dots()) == DOT_DIGEST


def perfbench_module(name):
    """The module ``perfbench/<name>.py``, loaded by path."""
    path = PERFBENCH_INPUTS.with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", sorted(CACHE_FILES))
def test_oracle_cache_file_unchanged_and_replayed(seed, tmp_path):
    fixture, questions = perfbench_module("inputs").oracle_tables(seed, 20, 100)
    fixture_path = tmp_path / "fixture.json"
    fixture_path.write_text(json.dumps(fixture))
    handler = perfbench_module("stub_server").make_handler(load_mock_oracle(fixture_path), 0.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    cfg = CalibrationConfig(d_max=5)
    cache_path = tmp_path / "oracle_cache.jsonl"

    def documents(oracle):
        return [dumps(graph_to_document(generate_graph(q, oracle, cfg))) for q in questions]

    with serving(server) as url, RemoteOracle(url, cache_path=cache_path) as oracle:
        built = documents(oracle)
    data = cache_path.read_bytes()
    assert (digest([data.decode()]), len(data), oracle.calls) == CACHE_FILES[seed]
    # A fresh client replays every answer from the file, without the server.
    with RemoteOracle("http://127.0.0.1:9/", cache_path=cache_path) as replay:
        assert documents(replay) == built
        assert replay.calls == 0
