"""The message table: the text of every error a malformed graph document,
question file or oracle premise list gets, pinned by digest, so a change to
how inputs are read that alters one word of one message shows up here."""

import hashlib
import json

from beliefgraph.construction import statement_texts
from beliefgraph.serialize import InputError, document_to_graph, load_questions
from test_cli import FUZZ_BASES

# What each field is retyped to, beside the JSON text of its own value.
RETYPES = [True, None, 1, 0.25, [], {}, "x"]
# Question files: a question without hypotheses, and hypotheses of each other type.
QUESTION_FILES = [
    {"gold_index": 0},
    [{"hypotheses": ["Alpha is a mammal."]}, {"question_id": "q2"}],
    *({"hypotheses": value} for value in ["Alpha is a mammal.", None, 1, True, {}]),
]
NOT_LISTS = ["Alpha is a mammal.", None, 1, 0.5, True, {}, ("Alpha is a mammal.",)]


def loads(document) -> str:
    """The `InputError` text `document_to_graph` gives ``document``, or "ok"."""
    try:
        document_to_graph(document)
    except InputError as exc:
        return str(exc)
    return "ok"


def field_messages() -> list[str]:
    """One line for each field at the root, in a statement and in a rule of
    each `FUZZ_BASES` document, dropped and retyped in turn."""
    lines = []
    for b, base in enumerate(FUZZ_BASES):
        doc = json.loads(json.dumps(base))
        entries = [("root", doc)] + [(f"{kind}[{i}]", entry) for kind in ("statements", "rules")
                                     for i, entry in enumerate(doc[kind])]
        for where, entry in entries:
            for key in sorted(entry):
                value = entry.pop(key)
                lines.append(f"{b} {where} {key} dropped: {loads(doc)}")
                for retype in [json.dumps(value), *RETYPES]:
                    entry[key] = retype
                    lines.append(f"{b} {where} {key} = {json.dumps(retype)}: {loads(doc)}")
                entry[key] = value
    return lines


def question_messages(tmp_path, monkeypatch) -> list[str]:
    monkeypatch.chdir(tmp_path)
    lines = []
    for document in QUESTION_FILES:
        with open("q.json", "w") as file:
            json.dump(document, file)
        try:
            load_questions("q.json")
        except InputError as exc:
            lines.append(str(exc))
        else:
            lines.append("ok")
    return lines


def premise_messages() -> list[str]:
    lines = []
    for value in NOT_LISTS:
        try:
            statement_texts(value, "premises")
        except (TypeError, ValueError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            lines.append("ok")
    return lines


def test_messages_are_pinned(tmp_path, monkeypatch):
    lines = field_messages() + question_messages(tmp_path, monkeypatch) + premise_messages()
    assert "ok" not in lines[-len(NOT_LISTS + QUESTION_FILES):]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        3371, "68323bda150bd6e8fc7146e8394730efd9c1d0c6bee0c9931770084da85183f0")
