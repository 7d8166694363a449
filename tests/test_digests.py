"""The output invariant as digests: graph and outcome documents of the
construction sweep stay byte-identical.

The sweep builds 800 graphs from `perfbench/inputs.oracle_tables`: seeds
1-5, then vocabulary 20 and 100, then `d_max` 1, 2, 3 and 5, with each
table's 20 questions in order.  Each fixture goes through a file and
`load_mock_oracle`, as `build-graph --oracle mock:<path>` reads it.

To recompute a digest, run the sweep below and take the first 16 hex
digits of the SHA-256 over the concatenated texts:
`GRAPH_DIGEST` over `dumps(graph_to_document(g))` of every graph, and
`SWEEP_OUTCOME_DIGEST` over `dumps(outcome_to_document(o, summarize(g, o)))`
with `o = reason(g)`.  A change that moves either names the change and its
reason in CHANGES.md.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from beliefgraph import CalibrationConfig, generate_graph, reason
from beliefgraph.metrics import summarize
from beliefgraph.serialize import (
    dumps,
    graph_to_document,
    load_mock_oracle,
    outcome_to_document,
)

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

GRAPH_DIGEST = "810b2f3c748cd83e"
SWEEP_OUTCOME_DIGEST = "dc2485de51d2583d"


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


def test_construction_sweep_documents_unchanged(tmp_path):
    graphs, outcomes = hashlib.sha256(), hashlib.sha256()
    count = 0
    for graph in sweep(tmp_path):
        graphs.update(dumps(graph_to_document(graph)).encode())
        outcome = reason(graph)
        outcomes.update(dumps(outcome_to_document(outcome, summarize(graph, outcome))).encode())
        count += 1
    assert count == 800
    assert graphs.hexdigest()[:16] == GRAPH_DIGEST
    assert outcomes.hexdigest()[:16] == SWEEP_OUTCOME_DIGEST
