import ast
import dataclasses
import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefgraph import (
    HARD,
    BeliefGraph,
    CalibrationConfig,
    HypothesisSet,
    MockOracle,
    RemoteOracle,
    RuleNode,
    RuleType,
    StatementNode,
    document_to_graph,
    generate_graph,
    graph_to_document,
    load_graph,
    save_graph,
)
from beliefgraph import cli, errors, oracle_client, serialize
from beliefgraph.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_ORACLE,
    main,
)
from beliefgraph.construction import MAX_DEPTH
from beliefgraph.dot import to_dot
from beliefgraph.oracle_client import OracleTransportError
from beliefgraph.reasoner import reason
from beliefgraph.serialize import InputError, config_digest, dumps
from beliefgraph.synthetic import synthetic_graph
from conftest import TRACE_PREMISES, TRACE_SCORES, overflow_graph, run_python, serving


ORACLE_FIXTURE = {
    "premises": TRACE_PREMISES,
    "statement_scores": TRACE_SCORES,
}

QUESTION = {
    "question_id": "trace",
    "hypotheses": ["Alpha is a mammal.", "Alpha is a reptile."],
    "gold_index": 0,
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "oracle.json").write_text(json.dumps(ORACLE_FIXTURE))
    (tmp_path / "question.json").write_text(json.dumps(QUESTION))
    return tmp_path


def run_build(workdir, out_name="graph.json", extra=()):
    return main(
        [
            "build-graph",
            str(workdir / "question.json"),
            "--oracle",
            f"mock:{workdir / 'oracle.json'}",
            "-o",
            str(workdir / out_name),
            *extra,
        ]
    )


class TestBuildGraph:
    def test_build_writes_loadable_graph(self, workdir, capsys):
        assert run_build(workdir) == EXIT_OK
        out = capsys.readouterr().out
        assert "statements" in out
        graph = load_graph(workdir / "graph.json")
        assert len(graph.hypotheses) == 2

    def test_repeat_runs_byte_identical(self, workdir):
        run_build(workdir, "first.json")
        run_build(workdir, "second.json")
        assert (workdir / "first.json").read_bytes() == (
            workdir / "second.json"
        ).read_bytes()

    def test_d_max_override(self, workdir):
        run_build(workdir, "shallow.json", ("--d-max", "0"))
        graph = load_graph(workdir / "shallow.json")
        assert len(graph.statements) == 2

    def test_d_max_above_the_bound_is_input_error(self, workdir, capsys):
        # An unreachable remote oracle: a query would make this exit 3.
        code = main(["build-graph", str(workdir / "question.json"), "--oracle",
                     "remote:http://127.0.0.1:9/", "--d-max", str(MAX_DEPTH + 1),
                     "-o", str(workdir / "deep.json")])
        assert code == EXIT_INPUT
        assert f"d_max must be in [0, {MAX_DEPTH}]" in capsys.readouterr().err
        assert not (workdir / "deep.json").exists()

    @pytest.mark.parametrize("count, hint", [(1, "give -o or --out-dir"), (2, "give --out-dir")])
    def test_no_output_option_is_input_error(self, workdir, capsys, count, hint):
        questions = [dict(QUESTION, question_id=f"q{i}") for i in range(count)]
        (workdir / "many.json").write_text(json.dumps(questions))
        code = main(["build-graph", str(workdir / "many.json"),
                     "--oracle", f"mock:{workdir / 'oracle.json'}"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {workdir / 'many.json'}")
        assert err.endswith(f"; {hint}\n" if count > 1 else f": {hint}\n")

    def test_rejected_config_value_names_the_file(self, workdir, capsys):
        """The file is checked on its own: a ``d_max`` it cannot hold is
        rejected even when ``--d-max`` would replace it."""
        (workdir / "config.json").write_text(json.dumps({"d_max": 2 * MAX_DEPTH}))
        code = run_build(workdir, extra=("--config", str(workdir / "config.json"),
                                         "--d-max", "5"))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {workdir / 'config.json'}: "
            f"d_max must be in [0, {MAX_DEPTH}], got {2 * MAX_DEPTH}\n"
        )
        assert not (workdir / "graph.json").exists()

    def test_rejected_d_max_names_the_flag(self, workdir, capsys):
        assert run_build(workdir, extra=("--d-max", "-1")) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: --d-max: d_max must be in [0, {MAX_DEPTH}], got -1\n"
        )

    def test_multi_question_out_dir(self, workdir):
        questions = [
            dict(QUESTION, question_id="q_a"),
            dict(QUESTION, question_id="q_b"),
        ]
        (workdir / "many.json").write_text(json.dumps(questions))
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
                "--out-dir",
                str(workdir / "graphs"),
                "--workers",
                "2",
            ]
        )
        assert code == EXIT_OK
        assert (workdir / "graphs" / "q_a.json").exists()
        assert (workdir / "graphs" / "q_b.json").exists()
        a = (workdir / "graphs" / "q_a.json").read_text()
        b = (workdir / "graphs" / "q_b.json").read_text()
        assert json.loads(a)["statements"] == json.loads(b)["statements"]

    @pytest.mark.parametrize(
        "question_ids",
        [
            ["../escaped", "q_b"],
            ["q", "q"],
            ["question_0001", None],
            ["", "q_b"],
            ["..", "q_b"],
            ["q_a", "sub/q_b"],
            ["q_a", "q\0b"],
        ],
        ids=["parent-path", "repeated", "default-name-taken", "empty", "dot-dot", "subdirectory",
             "nul"],
    )
    def test_out_dir_names_are_distinct_file_names(self, workdir, capsys, question_ids):
        questions = [dict(QUESTION, question_id=qid) for qid in question_ids]
        (workdir / "many.json").write_text(json.dumps(questions))
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
                "--out-dir",
                str(workdir / "graphs"),
            ]
        )
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err
        assert not (workdir / "graphs").exists()
        assert not (workdir / "escaped.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_input_error(self, workdir, capsys, workers):
        (workdir / "many.json").write_text(json.dumps([QUESTION, dict(QUESTION, question_id="b")]))
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
                "--out-dir",
                str(workdir / "graphs"),
                "--workers",
                workers,
            ]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: --workers")
        assert not (workdir / "graphs").exists()

    def test_multi_question_without_out_dir_is_input_error(self, workdir):
        (workdir / "many.json").write_text(json.dumps([QUESTION, QUESTION]))
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("count", [2])
    def test_question_count_other_than_one_with_o_is_input_error(self, workdir, capsys, count):
        (workdir / "many.json").write_text(json.dumps([QUESTION] * count))
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
                "-o",
                str(workdir / "graph.json"),
            ]
        )
        assert code == EXIT_INPUT
        assert f"holds {count} questions; -o takes exactly one" in capsys.readouterr().err
        assert not (workdir / "graph.json").exists()

    @pytest.mark.parametrize("output", ["-o", "--out-dir"])
    def test_empty_question_file_is_input_error(self, workdir, capsys, monkeypatch,
                                                trace_server, output):
        """Rejected before any directory is made or the oracle is asked."""
        asked = []
        answer = _TraceHandler.do_POST

        def recorded(handler):
            asked.append(handler.path)
            answer(handler)

        monkeypatch.setattr(_TraceHandler, "do_POST", recorded)
        (workdir / "none.json").write_text("[]")
        before = sorted(workdir.iterdir())
        target = workdir / ("graph.json" if output == "-o" else "graphs")
        code = main(["build-graph", str(workdir / "none.json"), "--oracle",
                     f"remote:{trace_server}", output, str(target)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {workdir / 'none.json'}: holds no questions\n"
        )
        assert asked == []
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_a_failed_question_leaves_the_others_written(self, workdir, capsys, workers):
        """Every question runs, each graph built is written and reported in
        input order, and then the first failure decides the exit code."""
        questions = [dict(QUESTION, question_id=f"q{k}") for k in range(3)]
        (workdir / "many.json").write_text(json.dumps(questions))
        graphs = workdir / "graphs"
        (graphs / "q0.json").mkdir(parents=True)  # cannot be written
        code = main(["build-graph", str(workdir / "many.json"), "--oracle",
                     f"mock:{workdir / 'oracle.json'}", "--out-dir", str(graphs),
                     "--workers", workers])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith(f"input error: cannot write {graphs / 'q0.json'}: ")
        assert err.count("\n") == 1
        assert [line.partition(": ")[0] for line in out.splitlines()] == [
            f"wrote {graphs / 'q1.json'}", f"wrote {graphs / 'q2.json'}"
        ]
        assert (graphs / "q1.json").is_file() and (graphs / "q2.json").is_file()

    @pytest.mark.parametrize("count", [1, 2])
    def test_o_with_out_dir_is_input_error(self, workdir, capsys, count):
        """Rejected before any file, directory or oracle query: a remote
        oracle would open its cache beside the outputs and then fail to
        connect."""
        questions = [dict(QUESTION, question_id=f"q{k}") for k in range(count)]
        (workdir / "many.json").write_text(json.dumps(questions))
        before = sorted(workdir.iterdir())
        code = main(
            [
                "build-graph",
                str(workdir / "many.json"),
                "--oracle",
                "remote:http://127.0.0.1:9",
                "-o",
                str(workdir / "graph.json"),
                "--out-dir",
                str(workdir / "graphs"),
            ]
        )
        assert code == EXIT_INPUT
        assert "-o/--output or --out-dir, not both" in capsys.readouterr().err
        assert sorted(workdir.iterdir()) == before

    def test_one_element_list_may_use_o(self, workdir, capsys):
        (workdir / "one.json").write_text(json.dumps([QUESTION]))
        args = ["--oracle", f"mock:{workdir / 'oracle.json'}"]
        assert main(["build-graph", str(workdir / "one.json"), *args,
                     "-o", str(workdir / "list.json")]) == EXIT_OK
        assert main(["build-graph", str(workdir / "question.json"), *args,
                     "-o", str(workdir / "object.json")]) == EXIT_OK
        assert main(["build-graph", str(workdir / "one.json"), *args,
                     "--out-dir", str(workdir / "graphs")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # One line format for both outputs: path, statements, rules.
        counts = lines[0].split(": ", 1)[1]
        assert counts.endswith(" rules")
        assert lines == [
            f"wrote {workdir / name}: {counts}"
            for name in ("list.json", "object.json", Path("graphs", "trace.json"))
        ]
        assert (workdir / "list.json").read_bytes() == (workdir / "object.json").read_bytes()
        assert (workdir / "graphs" / "trace.json").read_bytes() == (
            workdir / "list.json"
        ).read_bytes()

    def test_invalid_json_question_file(self, workdir, capsys):
        (workdir / "broken.json").write_text("{not json")
        code = main(
            [
                "build-graph",
                str(workdir / "broken.json"),
                "--oracle",
                f"mock:{workdir / 'oracle.json'}",
                "-o",
                str(workdir / "out.json"),
            ]
        )
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_bad_oracle_spec(self, workdir):
        code = main(
            [
                "build-graph",
                str(workdir / "question.json"),
                "--oracle",
                "carrier-pigeon",
                "-o",
                str(workdir / "out.json"),
            ]
        )
        assert code == EXIT_INPUT

    def test_unreachable_remote_oracle(self, workdir, capsys):
        code = main(
            [
                "build-graph",
                str(workdir / "question.json"),
                "--oracle",
                "remote:http://127.0.0.1:9/",
                "-o",
                str(workdir / "out.json"),
            ]
        )
        assert code == EXIT_ORACLE
        assert "oracle error" in capsys.readouterr().err

    def test_config_file_and_digest_in_provenance(self, workdir):
        (workdir / "config.json").write_text(json.dumps({"d_max": 1}))
        run_build(workdir, "cfg.json", ("--config", str(workdir / "config.json")))
        doc = json.loads((workdir / "cfg.json").read_text())
        assert len(doc["provenance"]["config_digest"]) == 64

    def test_unknown_config_key_rejected(self, workdir, capsys):
        # XOR and MC rules carry no score, so there is no k_xor or k_mc slope.
        for key in ("temperature", "k_xor", "k_mc"):
            (workdir / "config.json").write_text(json.dumps({key: 2}))
            code = run_build(workdir, "cfg.json", ("--config", str(workdir / "config.json")))
            assert code == EXIT_INPUT
            assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, document, message",
        [
            ("question.json", dict(QUESTION, gold_idx=1),
             "question.json: question [0]: unknown question keys ['gold_idx']"),
            ("oracle.json", dict(ORACLE_FIXTURE, statment_scores={}),
             "oracle.json: unknown fixture keys ['statment_scores']"),
        ],
        ids=["question-unknown-key", "fixture-unknown-key"],
    )
    def test_unknown_question_or_fixture_key_is_named(self, workdir, capsys, name, document,
                                                      message):
        (workdir / name).write_text(json.dumps(document))
        assert run_build(workdir) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (workdir / "graph.json").exists()

    @pytest.mark.parametrize(
        "config",
        [{"d_max": 2.5}, {"d_max": True}, {"d_max": "2"}, {"beta": True}, {"k": "9"},
         {"beta": 2}],
    )
    def test_mistyped_config_is_input_error(self, workdir, capsys, config):
        (workdir / "config.json").write_text(json.dumps(config))
        code = run_build(workdir, "cfg.json", ("--config", str(workdir / "config.json")))
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_config_values_pass_through(self, workdir):
        """An integer in a float field is not converted, so it keeps its digest."""
        (workdir / "config.json").write_text(json.dumps({"k": 9, "beta": 1, "d_max": 1}))
        assert run_build(workdir, "cfg.json", ("--config", str(workdir / "config.json"))) == 0
        doc = json.loads((workdir / "cfg.json").read_text())
        expected = config_digest(CalibrationConfig(k=9, beta=1, d_max=1))
        assert doc["provenance"]["config_digest"] == expected

    @pytest.mark.parametrize(
        "name, document",
        [
            ("question.json", dict(QUESTION, hypotheses="ab")),
            ("question.json", dict(QUESTION, hypotheses=["Alpha is a mammal.", 5])),
            ("question.json", dict(QUESTION, gold_index="1")),
            ("question.json", dict(QUESTION, gold_index=True)),
            ("question.json", dict(QUESTION, question_id=5)),
            ("question.json", dict(QUESTION, hypotheses=["Alpha is a mammal.", "beta \ud800 x"])),
            ("question.json", dict(QUESTION, question_id="q \ud800")),
            ("question.json", dict(QUESTION, hypotheses=["A mammal.", "a  MAMMAL"])),
            ("question.json", dict(QUESTION, gold_idx=1)),
            ("oracle.json", dict(ORACLE_FIXTURE, premises=[])),
            ("oracle.json", dict(ORACLE_FIXTURE, negations=3)),
            ("oracle.json", dict(ORACLE_FIXTURE, premises={"alpha is a mammal": "xyz"})),
            ("oracle.json", dict(ORACLE_FIXTURE, premises={"alpha is a mammal": ["p \ud800 q"]})),
            ("oracle.json", dict(ORACLE_FIXTURE, premises={"alpha is a mammal": ["  "]})),
            ("oracle.json", dict(ORACLE_FIXTURE, premises={"alpha is a mammal": ["."]})),
            ("oracle.json", dict(ORACLE_FIXTURE, statement_scores={"alpha is a mammal": "0.9"})),
            ("oracle.json", dict(ORACLE_FIXTURE, statement_scores={"alpha is a mammal": True})),
            ("oracle.json", dict(ORACLE_FIXTURE, entailment_scores={"x": "0.9"})),
            ("oracle.json", dict(ORACLE_FIXTURE, entailment_scores={"x": 0.9})),
            ("oracle.json", dict(ORACLE_FIXTURE, negations={"alpha is a mammal": 5})),
            ("oracle.json", dict(ORACLE_FIXTURE, negations={"alpha is a mammal": ""})),
            ("oracle.json", dict(ORACLE_FIXTURE, default_score=True)),
            ("oracle.json", dict(ORACLE_FIXTURE, default_entailment_score="0.85")),
            ("oracle.json", dict(ORACLE_FIXTURE, statement_scores={"alpha is a mammal": 2.0})),
            ("oracle.json", dict(ORACLE_FIXTURE, statement_scores={"alpha is a mammal": -0.1})),
            ("oracle.json", dict(ORACLE_FIXTURE, entailment_scores={"a => b": 1.5})),
            ("oracle.json", dict(ORACLE_FIXTURE, default_score=-1)),
            ("oracle.json", dict(ORACLE_FIXTURE, default_entailment_score=1.01)),
        ],
        ids=[
            "hypotheses-string",
            "hypothesis-not-string",
            "gold-index-string",
            "gold-index-bool",
            "question-id-int",
            "hypothesis-lone-surrogate",
            "question-id-lone-surrogate",
            "hypotheses-duplicate",
            "question-unknown-key",
            "premises-table-list",
            "negations-table-int",
            "premise-value-string",
            "premise-lone-surrogate",
            "premise-blank",
            "premise-only-period",
            "score-string",
            "score-bool",
            "entailment-score-string",
            "entailment-key-without-arrow",
            "negation-int",
            "negation-blank",
            "default-score-bool",
            "default-entailment-score-string",
            "score-above-one",
            "score-below-zero",
            "entailment-score-above-one",
            "default-score-below-zero",
            "default-entailment-score-above-one",
        ],
    )
    def test_mistyped_question_or_fixture_is_input_error(self, workdir, capsys, name, document):
        (workdir / name).write_text(json.dumps(document))
        assert run_build(workdir) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_gold_index_out_of_range_names_the_field(self, workdir, capsys):
        (workdir / "question.json").write_text(json.dumps(dict(QUESTION, gold_index=2)))
        assert run_build(workdir) == EXIT_INPUT
        assert "gold_index out of range" in capsys.readouterr().err
        assert not (workdir / "graph.json").exists()

    def test_score_out_of_range_names_the_field(self, workdir, capsys):
        fixture = dict(ORACLE_FIXTURE, statement_scores={"alpha is a mammal": 2.0})
        (workdir / "oracle.json").write_text(json.dumps(fixture))
        assert run_build(workdir) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "statement_scores: field 'alpha is a mammal' must be in [0, 1], got 2.0" in err

    def test_misspelt_fixture_table_is_input_error(self, workdir, capsys):
        (workdir / "oracle.json").write_text(json.dumps({"statment_scores": TRACE_SCORES}))
        assert run_build(workdir) == EXIT_INPUT
        assert "'statment_scores'" in capsys.readouterr().err
        assert not (workdir / "graph.json").exists()


# The fixture cases of `test_mistyped_question_or_fixture_is_input_error`,
# read from its parameters so that `MockOracle` is held to the same list.
_MISTYPED = TestBuildGraph.test_mistyped_question_or_fixture_is_input_error.pytestmark[0]
_FIXTURE_CASES = [
    pytest.param(document, id=name)
    for (file, document), name in zip(_MISTYPED.args[1], _MISTYPED.kwargs["ids"])
    if file == "oracle.json"
]


@pytest.mark.parametrize("document", _FIXTURE_CASES)
def test_mock_oracle_rejects_each_rejected_fixture(document):
    """A fixture the command line refuses is refused by `MockOracle` itself."""
    with pytest.raises((TypeError, ValueError)):
        MockOracle(**document)


# The question cases, with lists passed as tuples, as `load_questions` passes
# them.
_QUESTION_CASES = [
    pytest.param({k: tuple(v) if isinstance(v, list) else v for k, v in document.items()},
                 id=name)
    for (file, document), name in zip(_MISTYPED.args[1], _MISTYPED.kwargs["ids"])
    if file == "question.json"
]


@pytest.mark.parametrize("document", _QUESTION_CASES)
def test_hypothesis_set_rejects_each_rejected_question(document):
    """A question the command line refuses is refused by `HypothesisSet` itself."""
    with pytest.raises((TypeError, ValueError)):
        HypothesisSet(**document)


@pytest.mark.parametrize(
    "config", TestBuildGraph.test_mistyped_config_is_input_error.pytestmark[0].args[1]
)
def test_calibration_config_rejects_each_rejected_config(config):
    """A config the command line refuses is refused by `CalibrationConfig` itself."""
    with pytest.raises(ValueError):
        CalibrationConfig(**config)


def test_mock_oracle_names_the_table_and_key():
    with pytest.raises(ValueError, match=re.escape(
            "statement_scores: field 'alpha is a mammal' must be in [0, 1], got 2.0")):
        MockOracle(statement_scores={"alpha is a mammal": 2.0})
    with pytest.raises(TypeError, match="premises: field 'a is b' must be a list, got str"):
        MockOracle(premises={"a is b": "cd"})


def _graph_argv(workdir, path):
    return ["reason", str(path)]


def _question_argv(workdir, path):
    return ["build-graph", str(path), "--oracle", f"mock:{workdir / 'oracle.json'}",
            "-o", str(workdir / "out.json")]


def _config_argv(workdir, path):
    return ["build-graph", str(workdir / "question.json"), "--oracle",
            f"mock:{workdir / 'oracle.json'}", "--config", str(path),
            "-o", str(workdir / "out.json")]


def _fixture_argv(workdir, path):
    return ["build-graph", str(workdir / "question.json"), "--oracle", f"mock:{path}",
            "-o", str(workdir / "out.json")]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["reason", "g.json", "-o", "nodir/out.json"], "nodir/out.json"),
        (["reason", "g.json", "--export-dot", "nodir/x.dot"], "nodir/x.dot"),
        (["export-dot", "g.json", "-o", "nodir/x.dot"], "nodir/x.dot"),
        (["build-graph", "question.json", "-o", "nodir/out.json", "--oracle", "mock:oracle.json"],
         "nodir/out.json"),
        (["build-graph", "question.json", "--out-dir", "afile", "--oracle", "mock:oracle.json"],
         "afile"),
    ],
    ids=["reason-output", "reason-export-dot", "export-dot-output", "build-output",
         "build-out-dir-is-a-file"],
)
def test_unwritable_output_path_is_input_error(workdir, giraffe_graph, capsys, monkeypatch,
                                               argv, path):
    save_graph(giraffe_graph, workdir / "g.json")
    (workdir / "afile").write_text("")
    monkeypatch.chdir(workdir)
    assert main(argv) == EXIT_INPUT
    assert f"input error: cannot write {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["reason", "g.json", "-o", ""],
        ["reason", "g.json", "--export-dot", ""],
        ["resolve", "g.json", "-o", ""],
        ["export-dot", "g.json", "-o", ""],
        ["build-graph", "question.json", "-o", "", "--oracle", "mock:oracle.json"],
        ["build-graph", "question.json", "--out-dir", "", "--oracle", "mock:oracle.json"],
    ],
    ids=["reason-output", "reason-export-dot", "resolve-output", "export-dot-output",
         "build-output", "build-out-dir"],
)
def test_empty_output_path_is_a_usage_error(workdir, giraffe_graph, capsys, monkeypatch, argv):
    """An empty path names no file, and as a directory the current one: the
    parser refuses it before any file is read or written."""
    import io

    save_graph(giraffe_graph, workdir / "g.json")
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    monkeypatch.chdir(workdir)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "an output path must not be empty" in captured.err
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


class _FailingFile:
    """A text file that writes half of what it is given and then raises."""

    def __init__(self, file, error):
        self.file, self.error = file, error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, text):
        self.file.write(text[: len(text) // 2])
        self.file.flush()
        raise self.error


def _fail_writes(monkeypatch, error):
    """Make every output write of the package fail partway through."""
    monkeypatch.setattr(serialize, "open", lambda fd, mode: _FailingFile(open(fd, mode), error),
                        raising=False)


@pytest.mark.parametrize("existing", [True, False], ids=["replacing", "new"])
@pytest.mark.parametrize(
    "argv",
    [
        ["reason", "g.json", "-o", "out"],
        ["reason", "g.json", "--export-dot", "out"],
        ["resolve", "g.json", "-o", "out"],
        ["export-dot", "g.json", "-o", "out"],
        ["build-graph", "question.json", "-o", "out", "--oracle", "mock:oracle.json"],
    ],
    ids=["reason-output", "reason-export-dot", "resolve-output", "export-dot-output",
         "build-output"],
)
def test_failed_write_leaves_the_old_file_or_none(workdir, giraffe_graph, capsys, monkeypatch,
                                                  argv, existing):
    import io

    save_graph(giraffe_graph, workdir / "g.json")
    if existing:
        (workdir / "out").write_text("old")
    before = sorted(p.name for p in workdir.iterdir())
    monkeypatch.chdir(workdir)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    _fail_writes(monkeypatch, OSError(28, "No space left on device"))
    assert main(argv) == EXIT_INPUT
    assert "input error: cannot write out: No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == before
    if existing:
        assert (workdir / "out").read_text() == "old"


def test_interrupted_save_leaves_the_old_file(tmp_path, giraffe_graph, monkeypatch):
    (tmp_path / "g.json").write_text("old")
    _fail_writes(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        save_graph(giraffe_graph, tmp_path / "g.json")
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]
    assert (tmp_path / "g.json").read_text() == "old"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_file_has_write_text_mode(tmp_path, giraffe_graph, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "reference").write_text("")
        save_graph(giraffe_graph, tmp_path / "g.json")
        (tmp_path / "old").write_text("")
        os.chmod(tmp_path / "old", 0o600)
        serialize.write_whole(tmp_path / "old", "new")
    finally:
        os.umask(previous)
    mode = (tmp_path / "reference").stat().st_mode
    assert mode & 0o777 == 0o666 & ~umask
    assert (tmp_path / "g.json").stat().st_mode == mode
    assert (tmp_path / "old").stat().st_mode & 0o777 == 0o600
    assert (tmp_path / "old").read_text() == "new"


def test_replaced_outputs_keep_their_mode(tmp_path, giraffe_graph):
    """An output that exists keeps its permission bits when `reason -o`,
    `--export-dot` or `save_graph` replaces it, and a symbolic link's
    target keeps its own."""
    save_graph(giraffe_graph, tmp_path / "g.json")
    names = ["out.json", "out.dot", "saved.json", "target"]
    for name in names:
        (tmp_path / name).write_text("old")
        os.chmod(tmp_path / name, 0o600)
    (tmp_path / "link").symlink_to("target")
    (tmp_path / "other").write_text("")
    os.chmod(tmp_path / "other", 0o640)
    (tmp_path / "link to other").symlink_to("other")
    argv = ["reason", str(tmp_path / "g.json"), "-o", str(tmp_path / "out.json"),
            "--export-dot", str(tmp_path / "out.dot")]
    assert main(argv) == EXIT_OK
    save_graph(giraffe_graph, tmp_path / "saved.json")
    serialize.write_whole(tmp_path / "link", "new")
    serialize.write_whole(tmp_path / "link to other", "new")
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o600, name
        assert (tmp_path / name).read_text() != "old", name
    assert (tmp_path / "other").stat().st_mode & 0o777 == 0o640


def test_write_follows_a_symbolic_link(tmp_path):
    (tmp_path / "target").write_text("old")
    (tmp_path / "link").symlink_to("target")
    serialize.write_whole(tmp_path / "link", "new")
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "target").read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


def test_a_pipe_is_written_in_place(tmp_path):
    import threading

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    serialize.write_whole(fifo, "through the pipe")
    reader.join(10)
    assert received == ["through the pipe"]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"] and fifo.is_fifo()


@pytest.mark.parametrize(
    "argv, message",
    [
        (_graph_argv, "document root must be an object"),
        (_question_argv, "question [0] must be an object"),
        (_config_argv, "config root must be an object"),
        (_fixture_argv, "fixture root must be an object"),
    ],
    ids=["graph", "question", "config", "fixture"],
)
def test_non_object_root_or_entry_is_input_error(workdir, capsys, argv, message):
    (workdir / "list.json").write_text("[5]")
    assert main(argv(workdir, workdir / "list.json")) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [_graph_argv, _question_argv, _config_argv, _fixture_argv])
def test_non_utf8_input_file_is_input_error(workdir, capsys, argv):
    (workdir / "latin1.json").write_bytes(b'{"a": "\xff"}')
    assert main(argv(workdir, workdir / "latin1.json")) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


class TestReason:
    def test_reason_fixture_graph(self, workdir, giraffe_graph, capsys):
        save_graph(giraffe_graph, workdir / "g.json")
        code = main(
            ["reason", str(workdir / "g.json"), "-o", str(workdir / "out.json")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1 flips" in out
        assert "giraffes give live birth" in out
        doc = json.loads((workdir / "out.json").read_text())
        assert doc["flipped"] == [1]
        assert doc["summary"]["tau_after"] == 0.0
        assert doc["summary"]["tau_before"] > 0.0

    def test_reason_is_deterministic(self, workdir, cylinder_graph):
        save_graph(cylinder_graph, workdir / "g.json")
        main(["reason", str(workdir / "g.json"), "-o", str(workdir / "a.json")])
        main(["reason", str(workdir / "g.json"), "-o", str(workdir / "b.json")])
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_ablate_flag(self, workdir, xor_essential_graph, capsys):
        save_graph(xor_essential_graph, workdir / "g.json")
        code = main(
            [
                "reason",
                str(workdir / "g.json"),
                "--ablate",
                "xor",
                "-o",
                str(workdir / "out.json"),
            ]
        )
        assert code == EXIT_OK
        # post-hoc tau is measured on the unmasked graph: conflict remains
        doc = json.loads((workdir / "out.json").read_text())
        assert doc["summary"]["tau_after"] > 0.0

    def test_export_dot_from_reason(self, workdir, giraffe_graph):
        save_graph(giraffe_graph, workdir / "g.json")
        main(
            [
                "reason",
                str(workdir / "g.json"),
                "--export-dot",
                str(workdir / "g.dot"),
            ]
        )
        text = (workdir / "g.dot").read_text()
        assert text.startswith("digraph belief_graph {")
        assert "grey80" in text  # statement 1 flipped to false

    def test_reason_builds_no_repaired_graph(self, workdir, bad_rule_graph, monkeypatch):
        """The report, the outcome document and the DOT file are drawn from
        the outcome's beliefs and discarded rules, not from a repaired copy."""
        save_graph(bad_rule_graph, workdir / "g.json")

        def refuse(self, assignment):
            raise AssertionError("a repaired graph was built")

        monkeypatch.setattr(BeliefGraph, "with_labels", refuse)
        argv = ["reason", str(workdir / "g.json"), "-o", str(workdir / "out.json"),
                "--export-dot", str(workdir / "g.dot")]
        assert main(argv) == EXIT_OK
        assert json.loads((workdir / "out.json").read_text())["discarded_rules"] == ["r0"]
        assert (workdir / "g.dot").read_text().startswith("digraph belief_graph {")

    def test_export_dot_dashes_discarded_rules(self, workdir, bad_rule_graph):
        save_graph(bad_rule_graph, workdir / "g.json")
        argv = ["reason", str(workdir / "g.json"), "--export-dot", str(workdir / "g.dot")]
        assert main(argv) == EXIT_OK
        lines = (workdir / "g.dot").read_text().splitlines()
        dashed = [line for line in lines if 'style="filled,dashed"' in line]
        assert len(dashed) == 1 and dashed[0].startswith('  "rule:r0" [')

    def test_no_hypothesis_believed(self, workdir, capsys):
        statements = [{"id": k, "text": f"option {k}", "label": False, "confidence": 0.9}
                      for k in range(2)]
        document = {"schema_version": 1, "hypotheses": [0, 1], "statements": statements,
                    "rules": []}
        (workdir / "g.json").write_text(json.dumps(document))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "answer: (no hypothesis believed)"

    def test_missing_graph_file(self, workdir):
        assert main(["reason", str(workdir / "nope.json")]) == EXIT_INPUT

    def test_malformed_graph_document(self, workdir):
        (workdir / "g.json").write_text(json.dumps({"schema_version": 99}))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.update(statements=5),
            lambda doc: doc.update(rules=7),
            lambda doc: doc.update(hypotheses=["x"]),
            lambda doc: doc.update(hypotheses=[0, True]),
            lambda doc: doc["statements"].append(dict(doc["statements"][0], text="twin")),
            lambda doc: doc["rules"][1].update(id="r0"),
            lambda doc: doc["rules"][0].update(premises=[3.0, 4]),
            lambda doc: doc["statements"][2].update(negation_of="zz"),
            lambda doc: doc["rules"][0].update(premises=[4, 4]),
            lambda doc: doc["rules"][1].update(hypotheses=[2, 2]),
            lambda doc: doc["statements"][2].update(depth=1.7),
            lambda doc: doc["statements"][0].update(text=42),
            lambda doc: doc["statements"][0].update(raw_score="high"),
            lambda doc: doc["statements"][0].update(confidence=True),
            lambda doc: doc["statements"][0].update(confidence="0.5"),
            lambda doc: doc["rules"][0].update(id=5),
            lambda doc: doc["rules"][0].update(raw_score="0.9"),
            lambda doc: doc["rules"][0].update(confidence=True),
            lambda doc: doc["rules"][2].update(confidence=0.5),
            lambda doc: doc.update(schema_version=1.0),
            lambda doc: doc.update(hypotheses=[0, 0]),
            lambda doc: doc["statements"][2].update(negation_of=99),
            lambda doc: doc["statements"][2].update(negation_of=doc["statements"][2]["id"]),
            lambda doc: doc["statements"][3].update(is_hypothesis=True),
            lambda doc: doc["statements"][1].update(is_hypothesis=False),
            lambda doc: doc["statements"].__setitem__(1, [1]),
            lambda doc: doc["rules"].__setitem__(0, "r0"),
        ],
        ids=[
            "statements-not-a-list",
            "rules-not-a-list",
            "hypothesis-id-string",
            "hypothesis-id-bool",
            "duplicate-statement-id",
            "duplicate-rule-id",
            "premise-id-float",
            "negation-of-string",
            "premise-repeated",
            "xor-hypothesis-repeated",
            "depth-float",
            "text-int",
            "raw-score-string",
            "confidence-bool",
            "confidence-string",
            "rule-id-int",
            "rule-raw-score-string",
            "rule-confidence-bool",
            "hard-rule-confidence-number",
            "schema-version-float",
            "hypothesis-repeated",
            "negation-of-unknown-statement",
            "negation-of-itself",
            "is-hypothesis-not-listed",
            "listed-hypothesis-not-marked",
            "statement-not-an-object",
            "rule-not-an-object",
        ],
    )
    def test_mistyped_graph_document_is_input_error(self, workdir, giraffe_graph, capsys, corrupt):
        doc = graph_to_document(giraffe_graph)
        corrupt(doc)
        (workdir / "g.json").write_text(json.dumps(doc))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_rejected_graph_document_names_the_file(self, workdir, giraffe_graph, capsys):
        doc = graph_to_document(giraffe_graph)
        doc["statements"][0]["label"] = 1
        (workdir / "g.json").write_text(json.dumps(doc))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {workdir / 'g.json'}: "
            "statements[0]: field 'label' must be true or false, got 1\n"
        )

    @pytest.mark.parametrize(
        "where, key, typo, message",
        [
            ("rules", "premises", "premise", "rules[0]: unknown rule keys ['premise']"),
            ("statements", "depth", "dpeth", "statements[0]: unknown statement keys ['dpeth']"),
            ("statements", "negation_of", "negaton_of",
             "statements[0]: unknown statement keys ['negaton_of']"),
            ("root", "provenance", "provenence", "document: unknown graph keys ['provenence']"),
        ],
        ids=["rule-premise", "statement-dpeth", "statement-negaton-of", "root-provenence"],
    )
    def test_misspelt_graph_key_is_named(self, workdir, giraffe_graph, capsys, where, key,
                                         typo, message):
        """A misspelt key is not read as its field's default: a rule whose
        ``premises`` is misspelt would load as a belief in its conclusion."""
        doc = graph_to_document(giraffe_graph)
        entry = doc if where == "root" else doc[where][0]
        entry[typo] = entry.pop(key)
        (workdir / "g.json").write_text(json.dumps(doc))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {workdir / 'g.json'}: {message}\n"

    def test_repeated_hypothesis_id_fails_to_load(self, workdir, giraffe_graph, capsys):
        """With no statement marked, the agreement check passes and the
        graph's own uniqueness check rejects the list."""
        doc = graph_to_document(giraffe_graph)
        doc["hypotheses"] = [doc["hypotheses"][0]] * 2
        for statement in doc["statements"]:
            statement.pop("is_hypothesis", None)
        (workdir / "g.json").write_text(json.dumps(doc))
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {workdir / 'g.json'}: document: hypothesis ids must be unique\n"
        )

    def test_self_negating_statement_fails_to_load(self, workdir, giraffe_graph):
        doc = graph_to_document(giraffe_graph)
        doc["statements"][2]["negation_of"] = doc["statements"][2]["id"]
        (workdir / "g.json").write_text(json.dumps(doc))
        with pytest.raises(InputError, match="negates itself"):
            load_graph(workdir / "g.json")

    def test_oversized_integer_is_input_error(self, workdir, capsys):
        (workdir / "g.json").write_text('{"schema_version": ' + "9" * 5000 + "}")
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


def _wide_rule_document():
    """One entailment rule with 17 premises: elimination width 17.  Every
    premise is believed true and the conclusion false, so each label can
    violate the rule and none is settled."""
    statements = [{"id": k, "text": f"s{k}", "label": k > 0, "confidence": 0.5}
                  for k in range(18)]
    rule = {"id": "r0", "type": "entailment", "premises": list(range(1, 18)),
            "hypotheses": [0], "confidence": 0.9}
    return {"schema_version": 1, "hypotheses": [0], "statements": statements, "rules": [rule]}


def _many_statements_document():
    """2100 statements, above the solver's variable limit."""
    statements = [{"id": k, "text": f"s{k}", "label": True, "confidence": 0.5}
                  for k in range(2100)]
    return {"schema_version": 1, "hypotheses": [0], "statements": statements, "rules": []}


@pytest.mark.parametrize("command", ["reason", "resolve"])
@pytest.mark.parametrize(
    "document, limit",
    [(_wide_rule_document, "limit of 16"), (_many_statements_document, "limit of 2000")],
    ids=["width-17", "2100-statements"],
)
def test_graph_beyond_solver_limits_is_input_error(
    workdir, capsys, monkeypatch, command, document, limit
):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    (workdir / "g.json").write_text(json.dumps(document()))
    assert main([command, str(workdir / "g.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and limit in err


def test_soft_weights_past_the_largest_float_are_input_error(workdir, capsys):
    """An optimum of 3e308 overflows to infinity, which is a solver limit and
    not proof that the hard rules conflict."""
    save_graph(overflow_graph(1e308), workdir / "g.json")
    assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: graph exceeds the solver's limits: "
        "the soft clause weights sum past the largest float\n"
    )


def test_non_ascii_text_under_an_ascii_locale(tmp_path):
    """Under a locale whose encoding is ASCII, DOT is written as UTF-8 bytes,
    to a file or to standard output, and a summary or prompt line escapes
    what ASCII cannot hold."""
    (tmp_path / "q.json").write_text(json.dumps({"hypotheses": ["café is open", "日本 is far"]}))
    (tmp_path / "mock.json").write_text("{}")
    statements = {0: StatementNode(0, "café is open", True, 0.9),
                  1: StatementNode(1, "日本 is far", True, 0.8)}
    rules = (RuleNode("r0", RuleType.MC_PAIRWISE, (), (0, 1), 0.5),)
    save_graph(BeliefGraph(statements, rules, (0, 1)), tmp_path / "conflict.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("PYTHONIOENCODING", None)

    def run(*argv, stdin=b""):
        result = subprocess.run(
            [sys.executable, "-m", "beliefgraph.cli", *argv], cwd=tmp_path, env=env,
            input=stdin, capture_output=True, timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        return result.stdout

    run("build-graph", "q.json", "--oracle", "mock:mock.json", "-o", "g.json")
    out = run("reason", "g.json", "-o", "o.json", "--export-dot", "r.dot")
    assert out.endswith(b"answer: caf\\xe9 is open\n")
    assert json.loads((tmp_path / "o.json").read_bytes())["predictions"] == [0]
    assert run("export-dot", "g.json", "-o", "g.dot") == b""
    graph = load_graph(tmp_path / "g.json")
    assert (tmp_path / "g.dot").read_bytes() == to_dot(graph).encode()
    assert run("export-dot", "g.json") == to_dot(graph).encode()
    outcome = reason(graph)
    dot = to_dot(graph, outcome.final_assignment, outcome.discarded_rules)
    assert (tmp_path / "r.dot").read_bytes() == dot.encode()
    assert "café is open" in dot and "日本 is far" in dot
    out = run("resolve", "conflict.json", stdin=b"y\nn\n")
    assert out.startswith(b"Is it true that: \\u65e5\\u672c is far? [y/n] "
                          b"Is it true that: caf\\xe9 is open? [y/n] ")


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 5)
    | st.integers()
    | st.floats(0.0, 1.0)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["xor", "entailment", "mc_hard", "r1", "\ud800"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
STATEMENT_FIELDS = ("id", "text", "label", "confidence", "raw_score", "depth",
                    "is_hypothesis", "negation_of")
RULE_FIELDS = ("id", "type", "premises", "hypotheses", "raw_score", "hard", "confidence")
FIELDS = st.one_of(
    st.tuples(st.sampled_from(["schema_version", "hypotheses", "statements", "rules"])),
    st.tuples(st.just("statements"), st.integers(0, 4), st.sampled_from(STATEMENT_FIELDS)),
    st.tuples(st.just("rules"), st.integers(0, 3), st.sampled_from(RULE_FIELDS)),
)


def holds(sent, back):
    """Whether ``back`` is ``sent`` with the same JSON types, except that an
    integer may come back as a float of exactly its value."""
    if isinstance(sent, bool) or isinstance(back, bool):
        return sent is back
    if isinstance(sent, int) and isinstance(back, float):
        return back == sent  # exact: 2**53 + 1 differs from 2.0**53
    if type(sent) is not type(back):
        return False
    if isinstance(sent, list):
        return len(sent) == len(back) and all(map(holds, sent, back))
    if isinstance(sent, dict):
        return sent.keys() == back.keys() and all(holds(v, back[k]) for k, v in sent.items())
    return sent == back


# The fixture graph and the working directory are only read, or rewritten
# whole, by each example, so sharing them across examples is safe.
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=FIELDS, value=JSON_VALUES)
def test_graph_document_field_is_literal_or_rejected(workdir, giraffe_graph, field, value):
    doc = graph_to_document(giraffe_graph)
    *path, key = field
    entry = doc
    for step in path:
        entry = entry[step]
    entry[key] = value
    text = json.dumps(doc)
    try:
        graph = document_to_graph(json.loads(text))
    except InputError:
        pass
    else:
        back = graph_to_document(graph)
        doc["statements"].sort(key=lambda statement: statement["id"])
        assert holds(dict(doc, provenance={}), back)
    (workdir / "g.json").write_text(text)
    assert main(["reason", str(workdir / "g.json")]) != EXIT_INTERNAL


def _fuzz_bases():
    """Valid graph documents that hold every field: one built from an
    oracle (raw scores, negations, depths, every rule type, a hard rule)
    with a provenance, and one synthetic."""
    oracle = MockOracle(premises=TRACE_PREMISES, statement_scores=TRACE_SCORES)
    built = generate_graph(HypothesisSet(("Alpha is a mammal.", "Alpha is a reptile.")),
                           oracle, CalibrationConfig())
    provenance = {"oracle": "mock:oracle.json", "config_digest": "0" * 64, "seed": 7}
    return [graph_to_document(built, provenance),
            graph_to_document(synthetic_graph(0, 3, 60, 15))]


FUZZ_BASES = _fuzz_bases()
# What a number field may get instead: strings, bools, null, NaN and
# infinities, and integers too large for a float or for exactly one.
NOT_A_NUMBER = st.sampled_from(
    ["0.5", "", True, False, None, math.nan, math.inf, -math.inf,
     2**53 + 1, -(2**64) - 1, 2**64, 10**400, -(10**400)]
)
def mutate(draw, entry, key, kind, replacements):
    """Drop, rename to a misspelling, retype or re-nest ``entry[key]``, or
    put one of ``replacements`` in its place, as ``kind`` says."""
    value = entry[key]
    if kind == "drop":
        del entry[key]
    elif kind == "rename":
        typo = draw(st.sampled_from([key[:-1], key + key[-1], key[1] + key[0] + key[2:]]))
        entry[typo] = entry.pop(key)
    elif kind == "retype":
        entry[key] = draw(st.sampled_from([json.dumps(value), True, None, 1, 0.25, [], {}, "x"]))
    elif kind == "re-nest":
        nestings = [[value], {"value": value}]
        if isinstance(value, list) and value:
            nestings += [[[item] for item in value], value[0]]
        entry[key] = draw(st.sampled_from(nestings))
    else:
        entry[key] = draw(replacements)


@st.composite
def field_mutations(draw):
    """A base document and one of its fields, at the root, in a statement or
    in a rule, dropped, renamed, retyped, re-nested or given a non-number,
    and the kind of change."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    where = draw(st.sampled_from(["root", "statements", "rules"]))
    entry = doc if where == "root" else draw(st.sampled_from(doc[where]))
    kind = draw(st.sampled_from(["drop", "rename", "retype", "re-nest", "not a number"]))
    numbers = sorted(k for k, v in entry.items() if v is None or type(v) in (int, float))
    key = draw(st.sampled_from(numbers if kind == "not a number" else sorted(entry)))
    mutate(draw, entry, key, kind, NOT_A_NUMBER)
    return doc, kind


def with_defaults(doc):
    """``doc`` as its loader reads it: each absent optional field at its
    documented default, and the statements, a set keyed by id, in id order."""
    hypotheses = set(doc["hypotheses"])
    statements = [{"depth": 0, "negation_of": None, "raw_score": None,
                   "is_hypothesis": s["id"] in hypotheses, **s} for s in doc["statements"]]
    rules = [{"premises": [], "raw_score": 1.0, "hard": False,
              **({"confidence": None} if r.get("hard") else {}), **r} for r in doc["rules"]]
    return {"provenance": {}, **doc, "statements": sorted(statements, key=lambda s: s["id"]),
            "rules": rules}


# The working directory is only rewritten whole by each example.
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=field_mutations())
def test_mutated_graph_document_is_literal_or_exit_2(workdir, mutation):
    """A renamed key is always exit 2: no graph key is read as its default."""
    doc, kind = mutation
    text = json.dumps(doc)
    try:
        graph = document_to_graph(json.loads(text))
    except InputError:
        (workdir / "g.json").write_text(text)
        assert main(["reason", str(workdir / "g.json")]) == EXIT_INPUT
    else:
        assert kind != "rename"
        expected = with_defaults(doc)
        back = dumps(graph_to_document(graph, expected["provenance"]))
        assert holds(expected, json.loads(back))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(provenance=None),
        lambda doc: doc["rules"][0].update(raw_score=2**53 + 1),
        lambda doc: doc["statements"][0].update(confidence=math.nan),
        lambda doc: doc.update(hypotheses=[[h] for h in doc["hypotheses"]]),
    ],
    ids=["null-provenance", "inexact-integer", "nan-confidence", "nested-hypotheses"],
)
def test_mutated_graph_document_exits_2_from_the_command_line(tmp_path, mutate):
    doc = json.loads(json.dumps(FUZZ_BASES[0]))
    mutate(doc)
    (tmp_path / "g.json").write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "beliefgraph.cli", "reason", "g.json"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == EXIT_INPUT, result.stderr
    assert result.stderr.startswith("input error: ")


# Valid build-graph inputs that hold every field, with canonical table keys,
# so that a fixture loads with its tables as written.
BUILD_BASES = {
    "question.json": dict(QUESTION),
    "config.json": {"k": 8.0, "k_entailment": 30.0, "t_entailment": 1.0, "t_xor": 1.2,
                    "t_mc": 0.9, "m_xor": 0.25, "beta": 0.9, "d_max": 3},
    "oracle.json": dict(
        ORACLE_FIXTURE,
        entailment_scores={"alpha is cold blooded => alpha is a reptile": 0.7},
        negations={"alpha is a reptile": "alpha is no reptile"},
        default_score=0.4,
        default_entailment_score=0.8,
    ),
}
# What a field may get in place of its value: a string, a bool, null, NaN,
# a 400-digit integer, an empty or blank string, or a lone surrogate.
FOREIGN_VALUES = st.sampled_from(
    ["0.5", True, False, None, math.nan, 10**400, "", "  ", "\ud800"]
)


def _paths(value, prefix=()):
    """The path of every field and list item below ``value``, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def build_input_mutations(draw):
    """A build-graph input file and its document with one field or list
    item dropped, retyped, re-nested or given a foreign value."""
    name = draw(st.sampled_from(sorted(BUILD_BASES)))
    doc = json.loads(json.dumps(BUILD_BASES[name]))
    *path, key = draw(st.sampled_from(list(_paths(doc))))
    entry = doc
    for step in path:
        entry = entry[step]
    mutate(draw, entry, key, draw(st.sampled_from(["drop", "retype", "re-nest", "foreign"])),
           FOREIGN_VALUES)
    return name, doc


def loaded_values(name, path):
    """What the loader of the named input reads from ``path``, as JSON values."""
    if name == "question.json":
        (question,) = serialize.load_questions(path)
        return {"hypotheses": list(question.hypotheses), "gold_index": question.gold_index,
                "question_id": question.question_id}
    if name == "config.json":
        return dataclasses.asdict(serialize.load_config(path))
    oracle = serialize.load_mock_oracle(path)
    return {k: getattr(oracle, k) for k in ("premises", "statement_scores", "entailment_scores",
                                            "negations", "default_score",
                                            "default_entailment_score")}


def documented_values(name, doc):
    """``doc`` with each absent optional field at its documented default."""
    if name == "question.json":
        return {"gold_index": None, "question_id": None, **doc}
    if name == "config.json":
        return {**dataclasses.asdict(CalibrationConfig()), **doc}
    return {"premises": {}, "statement_scores": {}, "entailment_scores": {}, "negations": {},
            "default_score": 0.5, "default_entailment_score": 0.85, **doc}


# The working directory is only rewritten whole by each example.
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=build_input_mutations())
def test_mutated_build_input_is_literal_or_exit_2(workdir, mutation):
    name, doc = mutation
    for base_name, base in BUILD_BASES.items():
        (workdir / base_name).write_text(json.dumps(doc if base_name == name else base))
    code = run_build(workdir, extra=("--config", str(workdir / "config.json")))
    assert code in (EXIT_OK, EXIT_INPUT)
    if code == EXIT_OK:
        assert holds(documented_values(name, doc), loaded_values(name, workdir / name))


class TestResolve:
    def test_scripted_yes(self, workdir, cylinder_graph, capsys, monkeypatch):
        import io

        save_graph(cylinder_graph, workdir / "g.json")
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        code = main(
            ["resolve", str(workdir / "g.json"), "-o", str(workdir / "out.json")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Is it true that" in out
        doc = json.loads((workdir / "out.json").read_text())
        assert doc["discarded_rules"] == []
        assert doc["predictions"] == [1]

    def test_eof_falls_back_to_plain_reasoning(self, workdir, cylinder_graph,
                                               capsys, monkeypatch):
        import io

        save_graph(cylinder_graph, workdir / "g.json")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            ["resolve", str(workdir / "g.json"), "-o", str(workdir / "out.json")]
        )
        assert code == EXIT_OK
        assert "falling back" in capsys.readouterr().err
        doc = json.loads((workdir / "out.json").read_text())
        assert doc["discarded_rules"] == ["r1"]

    def test_undecodable_input_falls_back_to_plain_reasoning(
        self, workdir, cylinder_graph, capsys, monkeypatch
    ):
        import io

        save_graph(cylinder_graph, workdir / "g.json")
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(
            ["resolve", str(workdir / "g.json"), "-o", str(workdir / "out.json")]
        )
        assert code == EXIT_OK
        assert "falling back" in capsys.readouterr().err
        doc = json.loads((workdir / "out.json").read_text())
        assert doc["discarded_rules"] == ["r1"]

    def test_contradictory_verdicts_are_infeasible(self, workdir, monkeypatch):
        import io

        # A weak rule ties the two hypotheses together; saying "no" to both
        # contradicts the hard at-least-one constraint.
        statements = {
            0: StatementNode(0, "option a", False, 0.9),
            1: StatementNode(1, "option b", True, 0.9),
        }
        rules = (
            RuleNode("r0", RuleType.ENTAILMENT, (1,), (0,), 0.15),
            RuleNode("mc", RuleType.MC_HARD, (), (0, 1), HARD),
        )
        save_graph(BeliefGraph(statements, rules, (0, 1)), workdir / "g.json")
        monkeypatch.setattr("sys.stdin", io.StringIO("n\nn\n"))
        code = main(["resolve", str(workdir / "g.json")])
        assert code == EXIT_INFEASIBLE

    def test_negative_budget_is_input_error(self, workdir, cylinder_graph, capsys, monkeypatch):
        import io

        save_graph(cylinder_graph, workdir / "g.json")
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        code = main(
            ["resolve", str(workdir / "g.json"), "--budget", "-3",
             "-o", str(workdir / "out.json")]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: --budget")
        assert captured.out == ""
        assert not (workdir / "out.json").exists()


class TestExportDot:
    # A DOT ID as `to_dot` writes it: a name, or a quoted string with \-escapes.
    DOT_ID = r'([A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*")'

    def node_ids(self, text):
        """The node ids on each node and edge line of ``text``, in order;
        every line but the three header lines and the closing brace is one."""
        lines = text.splitlines()
        assert lines[0] == "digraph belief_graph {" and lines[-1] == "}"
        ids = []
        for line in lines[3:-1]:
            match = re.fullmatch(rf"  {self.DOT_ID} \[.*\];|  {self.DOT_ID} -> {self.DOT_ID};",
                                 line)
            assert match, line
            ids += [node for node in match.groups() if node is not None]
        return ids

    def test_synthetic_graph_node_ids_are_dot_ids(self):
        for seed in range(20):
            graph = synthetic_graph(seed)
            outcome = reason(graph)
            assert self.node_ids(to_dot(graph))
            assert self.node_ids(to_dot(graph, outcome.final_assignment, outcome.discarded_rules))

    def test_negative_statement_id_is_quoted(self, workdir, capsys):
        statements = {sid: StatementNode(sid, text, True, 0.9) for sid, text in ((-1, "a"), (2, "b"))}
        rules = (RuleNode("r0", RuleType.ENTAILMENT, (2,), (-1,), 0.5),)
        save_graph(BeliefGraph(statements, rules, (-1, 2)), workdir / "g.json")
        assert main(["export-dot", str(workdir / "g.json")]) == EXIT_OK
        rule = '"rule:r0"'
        assert self.node_ids(capsys.readouterr().out) == ['"s-1"', "s2", rule, "s2", rule, rule,
                                                           '"s-1"']

    def test_stdout(self, workdir, giraffe_graph, capsys):
        save_graph(giraffe_graph, workdir / "g.json")
        assert main(["export-dot", str(workdir / "g.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph belief_graph {")
        assert out.rstrip().endswith("}")

    def test_stdout_without_a_byte_layer(self, workdir, giraffe_graph):
        """A standard output replaced by a text stream with no byte layer
        beneath it still gets the DOT text."""
        import contextlib
        import io

        save_graph(giraffe_graph, workdir / "g.json")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["export-dot", str(workdir / "g.json")]) == EXIT_OK
        assert out.getvalue() == to_dot(giraffe_graph)

    def test_file_output(self, workdir, giraffe_graph):
        save_graph(giraffe_graph, workdir / "g.json")
        main(["export-dot", str(workdir / "g.json"), "-o", str(workdir / "g.dot")])
        assert "mc_hard" in (workdir / "g.dot").read_text()

    def test_rule_ids_are_their_own_nodes(self, workdir, capsys):
        """A rule id that reads as a statement's node id or as DOT syntax
        still names one node of its own, and every edge joins a statement
        to a rule."""
        statements = {sid: StatementNode(sid, f"fact {sid}", True, 0.9) for sid in (0, 1)}
        rules = (
            RuleNode("s1", RuleType.ENTAILMENT, (0,), (1,), 0.5),
            RuleNode("x -> y; z", RuleType.XOR_PAIR, (), (0, 1), 1.1),
            RuleNode('a"b\\', RuleType.MC_PAIRWISE, (), (0, 1), 0.98),
        )
        save_graph(BeliefGraph(statements, rules, (0, 1)), workdir / "g.json")
        assert main(["export-dot", str(workdir / "g.json")]) == EXIT_OK
        text = capsys.readouterr().out
        # A DOT ID here: a bare statement id, or a quoted string with \-escapes.
        node_id = r'(s\d+|"(?:[^"\\]|\\.)*")'
        nodes = re.findall(rf"^  {node_id} \[.*\];$", text, re.MULTILINE)
        edges = re.findall(rf"^  {node_id} -> {node_id};$", text, re.MULTILINE)
        r0, r1, r2 = rule_ids = ['"rule:s1"', '"rule:x -> y; z"', '"rule:a\\"b\\\\"']
        assert nodes == ["s0", "s1", *rule_ids]
        assert edges == [("s0", r0), (r0, "s1"), (r1, "s0"), (r1, "s1"), (r2, "s0"), (r2, "s1")]
        # Nothing else but the header lines and the closing brace.
        assert len(text.splitlines()) == 3 + len(nodes) + len(edges) + 1


class TestRoundTrip:
    def test_all_fixture_graphs(
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
            doc = graph_to_document(g)
            back = document_to_graph(json.loads(dumps(doc)))
            assert back.statements == g.statements
            assert back.rules == g.rules
            assert back.hypotheses == g.hypotheses
            assert graph_to_document(back) == doc

    def test_hypotheses_are_marked_by_the_graph_alone(self):
        statements = {sid: StatementNode(sid, f"option {sid}", sid == 0, 0.9) for sid in range(3)}
        rules = (RuleNode("r0", RuleType.MC_HARD, (), (0, 1), HARD),)
        g = BeliefGraph(statements, rules, (0, 1))
        doc = graph_to_document(g)
        assert [s["is_hypothesis"] for s in doc["statements"]] == [True, True, False]
        assert document_to_graph(doc) == g

    def test_missing_field_error_names_location(self):
        doc = {
            "schema_version": 1,
            "hypotheses": [0],
            "statements": [{"id": 0, "text": "s", "label": True}],
            "rules": [],
        }
        with pytest.raises(InputError, match=r"statements\[0\].*confidence"):
            document_to_graph(doc)

    @pytest.mark.parametrize("value", ["false", 0, None])
    @pytest.mark.parametrize("field", ["label", "is_hypothesis", "hard"])
    def test_boolean_fields_are_strict(self, field, value):
        doc = graph_to_document(synthetic_graph(0))
        entry = doc["rules" if field == "hard" else "statements"][0]
        entry[field] = value
        with pytest.raises(InputError, match=rf"\[0\]: field '{field}' must be true or false"):
            document_to_graph(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            document_to_graph({"schema_version": 2})


class _TraceHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        op = body["op"]
        if op == "generate_premises":
            reply = {"premises": TRACE_PREMISES.get(body["statement"], [])}
        elif op == "score_statement":
            reply = {"score": TRACE_SCORES.get(body["statement"], 0.5)}
        elif op == "score_entailment":
            reply = {"score": 0.85}
        else:
            prefix = "it is not the case that "
            s = body["statement"]
            negated = s[len(prefix):] if s.startswith(prefix) else prefix + s
            reply = {"statement": negated}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def trace_server():
    with serving(HTTPServer(("127.0.0.1", 0), _TraceHandler)) as url:
        yield url


_SCORE_KEY = '{"op": "score_statement", "statement": "alpha is a mammal"}'
_PREMISES_KEY = '{"op": "generate_premises", "statement": "alpha is a mammal"}'


def _cached(workdir) -> dict:
    """The records of ``workdir``'s oracle cache file by key; none if it is absent."""
    path = workdir / "oracle_cache.jsonl"
    return dict(map(json.loads, path.read_text().splitlines())) if path.exists() else {}


class TestRemoteOracle:
    def test_matches_mock_build(self, workdir, trace_server):
        run_build(workdir, "mock.json")
        code = main(
            [
                "build-graph",
                str(workdir / "question.json"),
                "--oracle",
                f"remote:{trace_server}",
                "-o",
                str(workdir / "remote.json"),
            ]
        )
        assert code == EXIT_OK
        mock_doc = json.loads((workdir / "mock.json").read_text())
        remote_doc = json.loads((workdir / "remote.json").read_text())
        assert mock_doc["statements"] == remote_doc["statements"]
        assert mock_doc["rules"] == remote_doc["rules"]

    def test_cache_survives_server_shutdown(self, workdir, trace_server):
        args = [
            "build-graph",
            str(workdir / "question.json"),
            "--oracle",
            f"remote:{trace_server}",
            "-o",
            str(workdir / "remote.json"),
        ]
        assert main(args) == EXIT_OK
        first = (workdir / "remote.json").read_bytes()
        # Second run must be answered entirely from the on-disk cache.
        dead = args[:]
        dead[3] = "remote:http://127.0.0.1:9/"
        assert main(dead) == EXIT_OK
        # Provenance records the oracle spec, so compare graph content.
        first_doc = json.loads(first)
        second_doc = json.loads((workdir / "remote.json").read_text())
        assert second_doc["statements"] == first_doc["statements"]
        assert second_doc["rules"] == first_doc["rules"]

    def test_corrupt_cache_is_oracle_error(self, workdir, trace_server, capsys):
        (workdir / "oracle_cache.jsonl").write_text(
            json.dumps([_SCORE_KEY, {"score": 0.5}]) + '\nxx{"broken\n'
            + json.dumps([_PREMISES_KEY, {"premises": []}]) + "\n"
        )
        code = main(
            [
                "build-graph",
                str(workdir / "question.json"),
                "--oracle",
                f"remote:{trace_server}",
                "-o",
                str(workdir / "remote.json"),
            ]
        )
        assert code == EXIT_ORACLE
        assert "oracle_cache.jsonl: line 2" in capsys.readouterr().err

    def test_text_utf8_cannot_encode_is_oracle_error(self, workdir, trace_server, monkeypatch,
                                                     capsys):
        """A premise holding a lone surrogate escape is refused before a graph
        that could not be loaded is written, and the answer is not cached."""
        monkeypatch.setitem(TRACE_PREMISES, "alpha is a mammal", ["bad \ud800 premise"])
        code = main(["build-graph", str(workdir / "question.json"), "--oracle",
                     f"remote:{trace_server}", "--d-max", "1", "-o", str(workdir / "g.json")])
        assert code == EXIT_ORACLE
        err = capsys.readouterr().err
        assert r"oracle field 'premises' must be a UTF-8 string, got 'bad \ud800 premise'" in err
        assert not (workdir / "g.json").exists()
        assert _PREMISES_KEY not in _cached(workdir)

    def test_score_out_of_range_is_oracle_error(self, workdir, trace_server, monkeypatch,
                                               capsys):
        """A score outside [0, 1] is refused, and the answer is not cached."""
        monkeypatch.setitem(TRACE_SCORES, "alpha is a mammal", 1.5)
        code = main(["build-graph", str(workdir / "question.json"), "--oracle",
                     f"remote:{trace_server}", "-o", str(workdir / "g.json")])
        assert code == EXIT_ORACLE
        assert "oracle field 'score' must be in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (workdir / "g.json").exists()
        assert _SCORE_KEY not in _cached(workdir)

    def test_bad_cached_record_names_the_cache(self, workdir, capsys):
        """A record in the cache file that breaks a field rule is refused when
        the file is opened, naming the file and the line; the endpoint is
        never asked."""
        record = json.dumps([_SCORE_KEY, {"score": 1.5}], separators=(",", ":"))
        (workdir / "oracle_cache.jsonl").write_text(record + "\n")
        code = main(["build-graph", str(workdir / "question.json"), "--oracle",
                     "remote:http://127.0.0.1:9/", "-o", str(workdir / "g.json")])
        assert code == EXIT_ORACLE
        err = capsys.readouterr().err
        assert ("oracle_cache.jsonl: line 1: oracle field 'score' must be in [0, 1], got 1.5"
                in err)
        assert "failed after" not in err
        assert not (workdir / "g.json").exists()

    def test_bad_cached_record_stops_every_question(self, tmp_path, trace_server, capsys):
        """A bad record that only the second question would read still stops
        the first: no graph is written and nothing is asked or appended."""
        questions = [{"question_id": "q0", "hypotheses": ["Beta is a bird.", "Beta is a fish."]},
                     {"question_id": "q1", "hypotheses": ["Alpha is a mammal.", "Alpha has fur."]}]
        (tmp_path / "many.json").write_text(json.dumps(questions))
        cache = tmp_path / "out" / "oracle_cache.jsonl"
        cache.parent.mkdir()
        cache.write_text(json.dumps([_PREMISES_KEY, {"premises": []}]) + "\n"
                         + json.dumps([_SCORE_KEY, {"score": 1.5}]) + "\n")
        before = cache.read_bytes()
        code = main(["build-graph", str(tmp_path / "many.json"), "--oracle",
                     f"remote:{trace_server}", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_ORACLE
        assert "oracle_cache.jsonl: line 2: oracle field 'score'" in capsys.readouterr().err
        assert sorted(p.name for p in cache.parent.iterdir()) == ["oracle_cache.jsonl"]
        assert cache.read_bytes() == before

    def test_workers_share_one_client(self, tmp_path, trace_server):
        questions = [
            {"question_id": f"q{i}", "hypotheses": hypotheses}
            for i, hypotheses in enumerate(
                [
                    ["Alpha is a mammal.", "Alpha is a reptile."],
                    ["Alpha is warm blooded.", "Alpha is cold blooded."],
                    ["Alpha has fur.", "Alpha is a reptile."],
                    ["Alpha is a mammal.", "Alpha regulates its temperature."],
                    ["Beta is a bird.", "Beta is a fish.", "Alpha has fur."],
                    ["Alpha is cold blooded.", "Beta is a bird."],
                ]
            )
        ]
        (tmp_path / "many.json").write_text(json.dumps(questions))

        def build(run, oracle, workers):
            graphs = tmp_path / run / "graphs"
            code = main(
                [
                    "build-graph",
                    str(tmp_path / "many.json"),
                    "--oracle",
                    f"remote:{oracle}",
                    "--out-dir",
                    str(graphs),
                    "--workers",
                    str(workers),
                ]
            )
            assert code == EXIT_OK
            # Without -o the cache file goes beside the graphs.
            assert (graphs / "oracle_cache.jsonl").exists()
            docs = [
                json.loads((graphs / f"q{i}.json").read_text())
                for i in range(len(questions))
            ]
            return [(doc["statements"], doc["rules"]) for doc in docs]

        serial = build("serial", trace_server, 1)
        assert build("parallel", trace_server, 4) == serial
        # The cache written by four threads is complete: a rerun is answered
        # from it alone.
        assert build("parallel", "http://127.0.0.1:9/", 4) == serial

    def test_missing_output_directory_fails_before_any_query(
        self, workdir, trace_server, monkeypatch, capsys
    ):
        """The response cache goes next to ``-o``, so a missing directory
        there, or a cache there that cannot be read, is exit 2 before the
        oracle is asked anything."""
        asked = []
        answer = _TraceHandler.do_POST

        def recorded(handler):
            asked.append(handler.path)
            answer(handler)

        monkeypatch.setattr(_TraceHandler, "do_POST", recorded)
        monkeypatch.chdir(workdir)
        argv = ["build-graph", "question.json", "--oracle", f"remote:{trace_server}",
                "-o", "nodir/out.json"]
        assert main(argv) == EXIT_INPUT
        assert "input error: cannot write nodir/out.json: no directory nodir" in capsys.readouterr().err
        assert asked == []
        assert not (workdir / "nodir").exists()
        # A response cache that exists but cannot be read is exit 2 as well.
        (workdir / "out" / "oracle_cache.jsonl").mkdir(parents=True)
        argv[-1] = "out/out.json"
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot use oracle cache {Path('out/oracle_cache.jsonl')}: ")
        assert asked == []
        assert not (workdir / "out" / "out.json").exists()

    @pytest.mark.parametrize("failing", [False, True])
    def test_build_closes_the_client(self, tmp_path, trace_server, failing):
        """Under ``-X dev`` an unclosed socket or cache file is reported as a
        ResourceWarning; none is, also when a question fails mid-run."""
        questions = [
            {"question_id": "q0", "hypotheses": ["Alpha is a mammal.", "Alpha is a reptile."]},
            {"question_id": "q1", "hypotheses": ["Alpha has fur.", "Beta is a bird."]},
        ]
        (tmp_path / "two.json").write_text(json.dumps(questions))
        (tmp_path / "one.json").write_text(json.dumps(questions[0]))
        if failing:
            (tmp_path / "out" / "q1.json").mkdir(parents=True)  # cannot be written
            args = ["two.json", "--out-dir", "out", "--workers", "2"]
        else:
            args = ["one.json", "-o", "one.out.json"]
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "beliefgraph.cli", "build-graph", *args,
             "--oracle", f"remote:{trace_server}"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == (EXIT_INPUT if failing else EXIT_OK), result.stderr
        assert (tmp_path / ("out" if failing else ".") / "oracle_cache.jsonl").exists()
        assert "ResourceWarning" not in result.stderr

    def test_call_counter_and_cache_hits(self, trace_server, tmp_path):
        with RemoteOracle(trace_server, cache_path=tmp_path / "cache.json") as oracle:
            assert oracle.score_statement("Alpha is a mammal.") == 0.9
            assert oracle.score_statement("alpha is a mammal") == 0.9
            assert oracle.calls == 1
        with RemoteOracle(trace_server, cache_path=tmp_path / "cache.json") as fresh:
            assert fresh.score_statement("alpha is a mammal") == 0.9
            assert fresh.calls == 0

    def test_unreachable_raises_transport_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle_client, "BACKOFF_SECONDS", 0.01)
        oracle = RemoteOracle("http://127.0.0.1:9/")
        with pytest.raises(OracleTransportError):
            oracle.score_statement("anything")

    def test_malformed_response_raises_decode_error(self, monkeypatch):
        monkeypatch.setattr(oracle_client, "BACKOFF_SECONDS", 0.01)
        class _BadHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(200)
                payload = b"not json"
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        from beliefgraph.oracle_client import OracleDecodeError

        with serving(HTTPServer(("127.0.0.1", 0), _BadHandler)) as url:
            with RemoteOracle(url) as oracle, pytest.raises(OracleDecodeError):
                oracle.score_statement("anything")


EXIT_CASES = [
    (errors.InputError("x"), EXIT_INPUT, "input error: x"),
    (errors.SolverLimitError("x"), EXIT_INPUT, "input error: graph exceeds the solver's limits: x"),
    (errors.ConstructionError("x"), EXIT_ORACLE, "oracle error: x"),
    (errors.OracleTransportError("x"), EXIT_ORACLE, "oracle error: x"),
    (errors.OracleDecodeError("x"), EXIT_ORACLE, "oracle error: x"),
    (errors.ReasoningError("x"), EXIT_INFEASIBLE, "infeasible: x"),
    (BrokenPipeError(32, "Broken pipe"), EXIT_INPUT,
     "input error: cannot write standard output: Broken pipe"),
    (RuntimeError("x"), EXIT_INTERNAL, "internal error: x"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code, message", EXIT_CASES, ids=[type(e).__name__ for e, _, _ in EXIT_CASES]
    )
    def test_error_maps_to_exit_code(self, monkeypatch, capsys, exc, code, message):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_export_dot", fail)
        assert main(["export-dot", "unused.json"]) == code
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["export-dot", "reason"])
    def test_closed_standard_output_is_input_error(self, tmp_path, command, buffered):
        """The DOT text is larger than the output buffer and the reason
        summary smaller, so the pipe breaks during the command or at the
        final flush; either way the failure is reported once."""
        save_graph(synthetic_graph(3), tmp_path / "g.json")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "beliefgraph.cli", command, "g.json"], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == EXIT_INPUT
        assert err == "input error: cannot write standard output: Broken pipe\n"

    def test_construction_error_before_construction_is_imported(self):
        out = run_python(
            "import json, sys\n"
            "from beliefgraph import cli, errors\n"
            "def fail(args):\n"
            "    raise errors.ConstructionError('x')\n"
            "cli._cmd_reason = fail\n"
            "code = cli.main(['reason', 'unused.json'])\n"
            "print(json.dumps([code, 'beliefgraph.construction' in sys.modules]))\n"
        )
        assert json.loads(out) == [EXIT_ORACLE, False]

    @pytest.mark.parametrize("deep", ["graph", "question", "fixture", "config"])
    def test_deeply_nested_json_is_an_input_error(self, workdir, capsys, deep):
        """Nesting deeper than the parser's recursion limit is exit 2, not 5,
        in every file a command reads."""
        (workdir / "deep.json").write_text("[" * 100000 + "]" * 100000)
        (workdir / "config.json").write_text("{}")
        files = {name: workdir / f"{name}.json" for name in ("question", "oracle", "config")}
        files[{"fixture": "oracle"}.get(deep, deep)] = workdir / "deep.json"
        if deep == "graph":
            argv = ["reason", str(workdir / "deep.json")]
        else:
            argv = ["build-graph", str(files["question"]), "--oracle", f"mock:{files['oracle']}",
                    "--config", str(files["config"]), "-o", str(workdir / "out.json")]
        assert main(argv) == EXIT_INPUT
        message = f"input error: {workdir / 'deep.json'}: JSON nested too deeply\n"
        assert capsys.readouterr().err == message
        assert not (workdir / "out.json").exists()


class TestDependencies:
    # Loaded by graph construction or the oracle transport only.
    CONSTRUCTION_SIDE = [
        "http.client", "ssl", "email.parser", "concurrent.futures", "hashlib",
        "beliefgraph.construction", "beliefgraph.oracle_client",
        "beliefgraph.synthetic", "beliefgraph.evaluation",
    ]
    TRANSPORT = ["http.client", "ssl", "concurrent.futures"]

    def test_listed_modules_exist(self):
        """A listed module that no longer exists would make its "is not
        loaded" assertion pass whatever a command imports."""
        missing = [m for m in self.CONSTRUCTION_SIDE + self.TRANSPORT
                   if importlib.util.find_spec(m) is None]
        assert missing == []

    def test_cli_import_leaves_numpy_out(self, workdir, giraffe_graph):
        save_graph(giraffe_graph, workdir / "g.json")
        g, o, d = (str(workdir / name) for name in ("g.json", "o.json", "g.dot"))
        # Each step reports the modules it added to those present at start-up.
        code = (
            "import json, sys\n"
            "start = set(sys.modules)\n"
            "def added(): return sorted(set(sys.modules) - start)\n"
            "from beliefgraph.cli import main\n"
            "steps = {'import': added()}\n"
            f"assert main(['reason', {g!r}, '-o', {o!r}, '--export-dot', {d!r}]) == 0\n"
            "steps['reason'] = added()\n"
            f"assert main(['export-dot', {g!r}]) == 0\n"
            "steps['export-dot'] = added()\n"
            f"assert main(['resolve', {g!r}]) == 0\n"
            "steps['resolve'] = added()\n"
            "print(json.dumps(steps))\n"
        )
        lines = run_python(code, stdin="y\n" * 10).splitlines()
        steps = json.loads(lines[-1])
        assert list(steps) == ["import", "reason", "export-dot", "resolve"]
        unwanted = self.CONSTRUCTION_SIDE + ["numpy", "requests", "urllib3", "tempfile"]
        for step, modules in steps.items():
            assert [m for m in unwanted if m in modules] == [], step

    @pytest.mark.parametrize("count", [1, 2])
    def test_thread_pool_only_for_several_questions(self, workdir, count):
        questions = [dict(QUESTION, question_id=f"q{i}") for i in range(count)]
        (workdir / "many.json").write_text(json.dumps(questions))
        code = (
            "import json, sys\n"
            "from beliefgraph.cli import main\n"
            f"assert main(['build-graph', {str(workdir / 'many.json')!r},\n"
            f"      '--oracle', {'mock:' + str(workdir / 'oracle.json')!r},\n"
            f"      '--out-dir', {str(workdir / 'graphs')!r}]) == 0\n"
            "print(json.dumps('concurrent.futures' in sys.modules))\n"
        )
        assert json.loads(run_python(code).splitlines()[-1]) is (count > 1)
        assert sorted(p.name for p in (workdir / "graphs").iterdir()) == [
            f"q{i}.json" for i in range(count)
        ]

    def test_build_graph_with_mock_oracle_leaves_transport_out(self, workdir):
        code = (
            "import json, sys\n"
            "start = set(sys.modules)\n"
            "from beliefgraph.cli import main\n"
            f"assert main(['build-graph', {str(workdir / 'question.json')!r},\n"
            f"      '--oracle', {'mock:' + str(workdir / 'oracle.json')!r},\n"
            f"      '-o', {str(workdir / 'graph.json')!r}]) == 0\n"
            "built = sorted(set(sys.modules) - start)\n"
            "from beliefgraph import RemoteOracle\n"
            "print(json.dumps([built, sorted(set(sys.modules) - start)]))\n"
        )
        built, after = json.loads(run_python(code).splitlines()[-1])
        assert (workdir / "graph.json").exists()
        assert "beliefgraph.construction" in built
        assert [m for m in self.TRANSPORT if m in built] == []
        # Positive control: the names still import the transport on demand,
        # which is built on `socket` alone.
        assert "beliefgraph.oracle_client" in after
        assert [m for m in ("http.client", "email.parser", "ssl") if m in after] == []


class TestEntryPoint:
    def test_script_and_main_block_name_one_entry(self):
        """``belief-graph`` and ``python -m beliefgraph.cli`` start the same way."""
        package = Path(cli.__file__).resolve().parent
        pyproject = (package.parents[1] / "pyproject.toml").read_text()
        script = re.search(r'^belief-graph = "beliefgraph\.cli:(\w+)"$', pyproject, re.M)
        assert script is not None
        (block,) = [
            node for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(statement) for statement in block.body] == [f"{script[1]}()"]
        assert getattr(cli, script[1]) is cli.run

    def test_entry_freezes_before_the_command(self, tmp_path):
        """The entry freezes the import-time heap before the command runs, so
        a file the command leaves in a reference cycle is still collected,
        and reported under ``-X dev``, at exit."""
        (tmp_path / "leaked.txt").write_text("x")
        code = (
            "import gc, sys\n"
            "from beliefgraph import cli\n"
            "def leak(args):\n"
            "    print(gc.get_freeze_count() > 0)\n"
            "    held = [open('leaked.txt', 'rb')]\n"
            "    held.append(held)  # a cycle: only the collector closes the file\n"
            "    return 0\n"
            "cli._cmd_export_dot = leak\n"
            "sys.argv = ['belief-graph', 'export-dot', 'unused.json']\n"
            "cli.run()\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-c", code], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == "True\n"
        assert re.search(r"ResourceWarning: unclosed file .*leaked\.txt", result.stderr)

    def test_main_leaves_the_collector_alone(self, workdir, giraffe_graph, capsys):
        save_graph(giraffe_graph, workdir / "g.json")
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["export-dot", str(workdir / "g.json")]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
