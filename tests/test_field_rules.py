"""One rule, one answer: each input field is checked by one rule in
`beliefgraph.errors`, so a value read from a file and the same value given
from Python, or answered by a remote oracle and held in a `MockOracle`
table, are accepted or rejected alike."""

import json
import math
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from beliefgraph import CalibrationConfig, HypothesisSet, MockOracle
from beliefgraph.oracle_client import OracleDecodeError, RemoteOracle
from beliefgraph.serialize import InputError, load_config, load_mock_oracle, load_questions
from conftest import serving

VALUES = pytest.mark.parametrize(
    "value",
    [True, "0.5", math.nan, math.inf, -math.inf, 2**53 + 1, 10**400, 1.5, "\ud800"],
    ids=["true", "string", "nan", "inf", "-inf", "2**53+1", "10**400", "1.5", "surrogate"],
)


def accepts(call, *errors) -> bool:
    """Whether ``call()`` returns rather than raising one of ``errors``."""
    try:
        call()
    except errors:
        return False
    return True


def written(tmp_path, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    return path


@VALUES
@pytest.mark.parametrize("field", ["k", "m_xor", "d_max"])
def test_config_file_and_calibration_config_agree(tmp_path, field, value):
    document = {field: value}
    from_file = accepts(lambda: load_config(written(tmp_path, document)), InputError)
    assert from_file == accepts(lambda: CalibrationConfig(**document), ValueError)


FIXTURES = {
    "statement-score": lambda v: {"statement_scores": {"fact": v}},
    "entailment-score": lambda v: {"entailment_scores": {"a => fact": v}},
    "default-score": lambda v: {"default_score": v},
    "premise": lambda v: {"premises": {"fact": [v]}},
    "negation": lambda v: {"negations": {"fact": v}},
}


@VALUES
@pytest.mark.parametrize("field", list(FIXTURES))
def test_fixture_file_and_mock_oracle_agree(tmp_path, field, value):
    document = FIXTURES[field](value)
    from_file = accepts(lambda: load_mock_oracle(written(tmp_path, document)), InputError)
    assert from_file == accepts(lambda: MockOracle(**document), TypeError, ValueError)


QUESTIONS = {
    "hypothesis": lambda v: {"hypotheses": [v, "B"]},
    "gold-index": lambda v: {"hypotheses": ["A", "B"], "gold_index": v},
    "question-id": lambda v: {"hypotheses": ["A", "B"], "question_id": v},
}


@VALUES
@pytest.mark.parametrize("field", list(QUESTIONS))
def test_question_file_and_hypothesis_set_agree(tmp_path, field, value):
    document = QUESTIONS[field](value)
    from_file = accepts(lambda: load_questions(written(tmp_path, document)), InputError)
    from_python = accepts(
        lambda: HypothesisSet(**dict(document, hypotheses=tuple(document["hypotheses"]))),
        TypeError, ValueError,
    )
    assert from_file == from_python


class _Answer(BaseHTTPRequestHandler):
    """Answers every query with ``document``."""

    document: dict = {}

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(self.document).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def answering():
    with serving(HTTPServer(("127.0.0.1", 0), _Answer)) as url:
        yield url


# Each query, the answer it gets, and the fixture field that would hold it.
ANSWERS = {
    "statement-score": (lambda o: o.score_statement("fact"), lambda v: {"score": v}),
    "entailment-score": (lambda o: o.score_entailment(["a"], "fact"), lambda v: {"score": v}),
    "premise": (lambda o: o.generate_premises("fact"), lambda v: {"premises": [v]}),
    "negation": (lambda o: o.negate("fact"), lambda v: {"statement": v}),
}


@VALUES
@pytest.mark.parametrize("query", list(ANSWERS))
def test_remote_answer_and_mock_oracle_entry_agree(answering, monkeypatch, query, value):
    ask, answer = ANSWERS[query]
    monkeypatch.setattr(_Answer, "document", answer(value))
    with closing(RemoteOracle(answering)) as oracle:
        from_remote = accepts(lambda: ask(oracle), OracleDecodeError)
    from_table = accepts(lambda: MockOracle(**FIXTURES[query](value)), TypeError, ValueError)
    assert from_remote == from_table
