"""JSON documents: versioned graphs and outcomes, configs, question files, oracle fixtures."""

from __future__ import annotations

import json
import os
import stat
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection, TypeVar

from .errors import InputError, array, boolean, finite_number, integer, utf8_string
from .model import HARD, BeliefGraph, RuleNode, RuleType, StatementNode

# Construction is imported by the loaders of questions, fixtures and
# configs, so reading and writing graph and outcome documents does not load it.
if TYPE_CHECKING:
    from .construction import CalibrationConfig, HypothesisSet, MockOracle
    from .reasoner import ReasoningOutcome

SCHEMA_VERSION = 1
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The keys `graph_to_document` writes: the only ones a graph document may hold.
_GRAPH_KEYS = frozenset({"schema_version", "provenance", "hypotheses", "statements", "rules"})
_STATEMENT_KEYS = frozenset({"id", "text", "label", "confidence", "raw_score", "depth",
                             "is_hypothesis", "negation_of"})
_RULE_KEYS = frozenset({"id", "type", "premises", "hypotheses", "raw_score", "hard",
                        "confidence"})

_T = TypeVar("_T")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file in UTF-8, UTF-16 or UTF-32, which `json.loads`
    tells apart by the first bytes (a byte-order mark is allowed); an
    unreadable or malformed file, other bytes, or nesting deeper than the
    parser's recursion limit is an InputError."""
    try:
        return json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, an oversized integer
        raise InputError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def dumps(document: dict) -> str:
    """Canonical serialization: stable key order, two-space indent.

    The bytes of ``json.dumps(document, indent=2, sort_keys=True)`` and a
    newline, written here because ``json`` uses its C encoder only without
    ``indent``; strings still go through its C quoter.
    """
    return _text(document, "\n") + "\n"


def _text(value: Any, newline: str) -> str:
    """``value`` as canonical JSON, its nested lines starting with ``newline``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_SPECIALS.get(text, text)
    inner = newline + "  "
    # Items of exactly str, int or bool are written in place, a subclass by
    # the general path; dict values are tested for bool first (assignments).
    if isinstance(value, (list, tuple)):
        items = [_quote(v) if (t := type(v)) is str else int.__repr__(v) if t is int
                 else ("true" if v else "false") if t is bool else _text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if isinstance(value, dict):
        # Sorting the keys alone gives the order sorting the items would,
        # since no two keys of one dict compare equal; each value is read by
        # its key in the type test.
        items = [(_quote(k) if isinstance(k, str) else _key(k)) + ": "
                 + (("true" if v else "false") if (t := type(v := value[k])) is bool
                    else _quote(v) if t is str else int.__repr__(v) if t is int else _text(v, inner))
                 for k in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: Any) -> str:
    """A dict key that is not a string, as ``json`` writes it: its text, quoted."""
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quote(_text(key, ""))


def graph_to_document(graph: BeliefGraph, provenance: dict | None = None) -> dict:
    hypotheses = set(graph.hypotheses)
    statements = [
        {
            "id": node.id,
            "text": node.text,
            "label": node.label,
            "confidence": node.confidence,
            "raw_score": node.raw_score,
            "depth": node.depth,
            "is_hypothesis": node.id in hypotheses,
            "negation_of": node.is_negation_of,
        }
        for _, node in sorted(graph.statements.items())
    ]
    rules = [
        {
            "id": rule.id,
            "type": rule.rule_type.value,
            "premises": list(rule.premise_ids),
            "hypotheses": list(rule.hypothesis_ids),
            "raw_score": rule.raw_score,
            "hard": rule.is_hard,
            "confidence": None if rule.is_hard else rule.confidence,
        }
        for rule in graph.rules
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": provenance or {},
        "hypotheses": list(graph.hypotheses),
        "statements": statements,
        "rules": rules,
    }


def _known_keys(mapping: dict, known: Collection[str], where: str | Path, kind: str) -> None:
    """An InputError naming ``where`` and every key of ``mapping`` outside ``known``."""
    unknown = mapping.keys() - known
    if unknown:
        raise InputError(f"{where}: unknown {kind} keys {sorted(unknown)}")


def document_to_graph(document: dict) -> BeliefGraph:
    if not isinstance(document, dict):
        raise InputError("document root must be an object")
    # A rule's error or a missing key names the field; ``where`` the entry it is in.
    where = "document"
    try:
        version = integer(document["schema_version"], "field 'schema_version'")
        if version != SCHEMA_VERSION:
            raise InputError(f"document: unsupported schema_version {version!r}")
        _known_keys(document, _GRAPH_KEYS, where, "graph")
        # Not read here, but `graph_to_document` writes an object, so no other value holds.
        provenance = document.get("provenance", {})
        if not isinstance(provenance, dict):
            raise InputError(
                f"document: field 'provenance' must be an object, got {type(provenance).__name__}"
            )
        hypotheses = tuple([integer(v, "an item of field 'hypotheses'")
                            for v in array(document["hypotheses"], "field 'hypotheses'")])
        statements: dict[int, StatementNode] = {}
        for i, entry in enumerate(array(document["statements"], "field 'statements'")):
            where = f"statements[{i}]"
            if not isinstance(entry, dict):
                raise InputError(f"{where} must be an object")
            _known_keys(entry, _STATEMENT_KEYS, where, "statement")
            negated, raw = entry.get("negation_of"), entry.get("raw_score")
            node = StatementNode(
                id=integer(entry["id"], "field 'id'"),
                text=utf8_string(entry["text"], "field 'text'"),
                label=boolean(entry["label"], "field 'label'"),
                confidence=finite_number(entry["confidence"], "field 'confidence'"),
                depth=integer(entry.get("depth", 0), "field 'depth'"),
                is_negation_of=None if negated is None else integer(negated, "field 'negation_of'"),
                raw_score=None if raw is None else finite_number(raw, "field 'raw_score'"),
            )
            if node.id in statements:
                raise InputError(f"{where}: duplicate statement id {node.id}")
            listed = node.id in hypotheses
            if boolean(entry.get("is_hypothesis", listed), "field 'is_hypothesis'") is not listed:
                raise InputError(f"{where}: 'is_hypothesis' disagrees with 'hypotheses'")
            statements[node.id] = node
        rules = []
        where = "document"
        for i, entry in enumerate(array(document["rules"], "field 'rules'")):
            where = f"rules[{i}]"
            if not isinstance(entry, dict):
                raise InputError(f"{where} must be an object")
            _known_keys(entry, _RULE_KEYS, where, "rule")
            rule_type = RuleType(entry["type"])
            if boolean(entry.get("hard", False), "field 'hard'"):
                if entry.get("confidence") is not None:
                    raise InputError(f"{where}: a hard rule's 'confidence' must be null")
                confidence = HARD
            else:
                confidence = finite_number(entry["confidence"], "field 'confidence'")
            rules.append(
                RuleNode(
                    id=utf8_string(entry["id"], "field 'id'"),
                    rule_type=rule_type,
                    premise_ids=tuple([integer(v, "an item of field 'premises'")
                                       for v in array(entry.get("premises", []),
                                                      "field 'premises'")]),
                    hypothesis_ids=tuple([integer(v, "an item of field 'hypotheses'")
                                          for v in array(entry["hypotheses"],
                                                         "field 'hypotheses'")]),
                    confidence=confidence,
                    raw_score=finite_number(entry.get("raw_score", 1.0), "field 'raw_score'"),
                )
            )
        where = "document"
        return BeliefGraph(statements, tuple(rules), hypotheses)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{where}: missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def write_whole(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so that the file appears whole or not at all.

    The text goes to a temporary file beside the target, which then
    replaces the target.  The temporary file takes the permission bits of
    the file it replaces, or, for a new file, the mode `Path.write_text`
    gives one (0o666 less the umask); owner and group are not carried over,
    so the file belongs to the writing process's user.  A write that
    raises, an interrupt included, leaves the old file, or none, and no
    temporary file; a killed process may leave a temporary file, but never
    a partial target.  A symbolic link is followed, so its target is
    replaced and keeps its own mode.  A path that names something other
    than a regular file, such as a pipe or a device, is written in place.
    The text is written as UTF-8 whatever the locale.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        Path(path).write_bytes(text.encode())
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "wb") as file:
            if mode is not None:
                os.fchmod(descriptor, stat.S_IMODE(mode))
            file.write(text.encode())
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def save_graph(graph: BeliefGraph, path: str | Path, provenance: dict | None = None) -> None:
    write_whole(path, dumps(graph_to_document(graph, provenance)))


def load_graph(path: str | Path) -> BeliefGraph:
    document = read_json(path)
    try:
        return document_to_graph(document)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _from_object(cls: type[_T], raw: Any, where: str | Path, kind: str, subject: str) -> _T:
    """``cls(**raw)`` for ``raw`` an object of ``cls``'s fields, checked as
    ``cls`` checks them; anything else is an InputError naming ``where``, or
    ``subject`` for a ``raw`` that is not an object."""
    if not isinstance(raw, dict):
        raise InputError(f"{subject} must be an object")
    _known_keys(raw, cls.__dataclass_fields__, where, kind)
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def load_questions(path: str | Path) -> list[HypothesisSet]:
    """A question file: one question object or a non-empty list of them, each
    an object of `HypothesisSet`'s fields with ``hypotheses`` a list, checked
    as it checks them."""
    from .construction import HypothesisSet

    raw = read_json(path)
    if raw == []:
        raise InputError(f"{path}: holds no questions")
    questions = []
    for i, entry in enumerate(raw if isinstance(raw, list) else [raw]):
        where = f"{path}: question [{i}]"
        if isinstance(entry, dict):  # the file's list is the class's tuple
            try:
                entry = dict(entry, hypotheses=tuple(array(entry["hypotheses"],
                                                           "field 'hypotheses'")))
            except KeyError:
                raise InputError(f"{where}: missing required field 'hypotheses'") from None
            except TypeError as exc:
                raise InputError(f"{where}: {exc}") from exc
        questions.append(_from_object(HypothesisSet, entry, where, "question", where))
    return questions


def outcome_to_document(outcome: ReasoningOutcome, summary: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        # dumps sorts every key, so the assignment is built unsorted.
        "assignment": {str(k): v for k, v in outcome.final_assignment.items()},
        "flipped": sorted(outcome.flipped),
        "discarded_rules": sorted(outcome.discarded_rules),
        "predictions": sorted(outcome.predictions),
        "optimal_cost": outcome.optimal_cost,
        "explanations": {
            str(root): {
                "statements": sorted(sub.statement_ids),
                "rules": list(sub.rule_ids),
                "support": {str(k): list(v) for k, v in sub.support.items()},
            }
            for root, sub in outcome.explanation_roots.items()
        },
        "summary": summary,
    }


# -- configuration ------------------------------------------------------------

def config_digest(cfg: CalibrationConfig) -> str:
    import hashlib

    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load_config(path: str | Path | None) -> CalibrationConfig:
    """The config file at ``path``, an object of `CalibrationConfig`'s fields
    checked as it checks them; the defaults for no path."""
    from .construction import CalibrationConfig

    if path is None:
        return CalibrationConfig()
    return _from_object(CalibrationConfig, read_json(path), path, "config", f"{path}: config root")


# -- oracle fixture files -----------------------------------------------------

def load_mock_oracle(path: str | Path) -> MockOracle:
    """A fixture file: an object of `MockOracle`'s fields, checked as it checks them."""
    from .construction import MockOracle

    return _from_object(MockOracle, read_json(path), path, "fixture", f"{path}: fixture root")
