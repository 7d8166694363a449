"""Graph, outcome and DOT bytes do not depend on the interpreter's string
hash seed: the command line builds and reasons the same files under two."""

import json
import subprocess
import sys

from conftest import child_env
from test_solver_milp import shared_premise_questions


def command(hash_seed, *argv):
    subprocess.run(
        [sys.executable, "-m", "beliefgraph.cli", *argv], check=True, capture_output=True,
        env=child_env(PYTHONHASHSEED=str(hash_seed)), timeout=60,
    )


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    oracle, questions = shared_premise_questions(1, questions=3, fact_premises=3)
    fixture, question_file = tmp_path / "oracle.json", tmp_path / "questions.json"
    fixture.write_text(json.dumps({"premises": oracle.premises,
                                   "statement_scores": oracle.statement_scores,
                                   "entailment_scores": oracle.entailment_scores}))
    question_file.write_text(json.dumps([{"hypotheses": q.hypotheses} for q in questions]))
    outputs = {}
    for hash_seed in (0, 1):
        out = tmp_path / f"seed{hash_seed}"
        command(hash_seed, "build-graph", str(question_file), "--out-dir", str(out),
                "--oracle", f"mock:{fixture}")
        graphs = sorted(out.glob("question_*.json"))
        assert len(graphs) == len(questions)
        for graph in graphs:
            command(hash_seed, "reason", str(graph), "-o", str(graph.with_suffix(".outcome")),
                    "--export-dot", str(graph.with_suffix(".dot")))
        outputs[hash_seed] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs[0]) == 3 * len(questions)
    assert outputs[0] == outputs[1]
