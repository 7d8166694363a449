"""JSON documents: versioned graphs and outcomes, configs, question files, oracle fixtures."""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import InputError
from .model import HARD, BeliefGraph, RuleNode, RuleType, StatementNode

# Construction and calibration are imported by the loaders that need them,
# so reading and writing graph and outcome documents does not load them.
if TYPE_CHECKING:
    from .calibration import CalibrationConfig
    from .construction import HypothesisSet, MockOracle
    from .reasoner import ReasoningOutcome

SCHEMA_VERSION = 1
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
        items = [(_quote(k) if isinstance(k, str) else _key(k)) + ": "
                 + (("true" if v else "false") if (t := type(v)) is bool else _quote(v) if t is str
                    else int.__repr__(v) if t is int else _text(v, inner))
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: Any) -> str:
    """A dict key that is not a string, as ``json`` writes it: its text, quoted."""
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quote(_text(key, ""))


def graph_to_document(graph: BeliefGraph, provenance: dict | None = None) -> dict:
    hypotheses = set(graph.hypotheses)
    statements = []
    for sid in sorted(graph.statements):
        node = graph.statements[sid]
        statements.append(
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
        )
    rules = []
    for rule in graph.rules:
        rules.append(
            {
                "id": rule.id,
                "type": rule.rule_type.value,
                "premises": list(rule.premise_ids),
                "hypotheses": list(rule.hypothesis_ids),
                "raw_score": rule.raw_score,
                "hard": rule.is_hard,
                "confidence": None if rule.is_hard else rule.confidence,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": provenance or {},
        "hypotheses": list(graph.hypotheses),
        "statements": statements,
        "rules": rules,
    }


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise InputError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _bool(mapping: dict, key: str, where: str, default: bool | None = None) -> bool:
    """A JSON true/false field; anything else is an InputError, never coerced."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f"{where}: field {key!r} must be true or false, got {value!r}")
    return value


def _int(value: Any, key: str, where: str) -> int:
    """A JSON integer, never a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: field {key!r} must hold integers, got {value!r}")
    return value


def _number(value: Any, key: str, where: str) -> float:
    """A finite JSON number, never a bool or a string; integers become floats."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise InputError(f"{where}: field {key!r} must be a finite number, got {value!r}")


def _score(value: Any, key: str, where: str) -> float:
    """A `_number` in [0, 1], as oracle scores are."""
    number = _number(value, key, where)
    if not 0.0 <= number <= 1.0:
        raise InputError(f"{where}: field {key!r} must be in [0, 1], got {value!r}")
    return number


def _str(value: Any, key: str, where: str) -> str:
    """A JSON string that UTF-8 can encode: no lone surrogate escapes, which
    could not be printed or written back."""
    if isinstance(value, str):
        try:
            value.encode()
            return value
        except UnicodeEncodeError:
            pass
    raise InputError(f"{where}: field {key!r} must be a UTF-8 string, got {value!r}")


def _statement(value: Any, key: str, where: str) -> str:
    """A `_str` that `canonicalize` accepts: more than spaces and periods."""
    from .construction import canonicalize

    text = _str(value, key, where)
    try:
        canonicalize(text)
    except ValueError as exc:
        raise InputError(f"{where}: field {key!r}: {exc}") from exc
    return text


def _optional(read, mapping: dict, key: str, where: str) -> Any:
    """``read`` applied to a field that may be absent or null (then None)."""
    value = mapping.get(key)
    return None if value is None else read(value, key, where)


def _list(mapping: dict, key: str, where: str, default: list | None = None) -> list:
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not isinstance(value, list):
        raise InputError(f"{where}: field {key!r} must be a list, got {type(value).__name__}")
    return value


def _ints(mapping: dict, key: str, where: str, default: list | None = None) -> tuple[int, ...]:
    return tuple(_int(v, key, where) for v in _list(mapping, key, where, default))


def document_to_graph(document: dict) -> BeliefGraph:
    if not isinstance(document, dict):
        raise InputError("document root must be an object")
    version = _int(_require(document, "schema_version", "document"), "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise InputError(f"document: unsupported schema_version {version!r}")
    hypotheses = _ints(document, "hypotheses", "document")
    statements: dict[int, StatementNode] = {}
    for i, entry in enumerate(_list(document, "statements", "document")):
        where = f"statements[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where} must be an object")
        try:
            node = StatementNode(
                id=_int(_require(entry, "id", where), "id", where),
                text=_str(_require(entry, "text", where), "text", where),
                label=_bool(entry, "label", where),
                confidence=_number(_require(entry, "confidence", where), "confidence", where),
                depth=_int(entry.get("depth", 0), "depth", where),
                is_negation_of=_optional(_int, entry, "negation_of", where),
                raw_score=_optional(_number, entry, "raw_score", where),
            )
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc
        if node.id in statements:
            raise InputError(f"{where}: duplicate statement id {node.id}")
        listed = node.id in hypotheses
        if _bool(entry, "is_hypothesis", where, listed) is not listed:
            raise InputError(f"{where}: 'is_hypothesis' disagrees with 'hypotheses'")
        statements[node.id] = node
    rules = []
    for i, entry in enumerate(_list(document, "rules", "document")):
        where = f"rules[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where} must be an object")
        try:
            rule_type = RuleType(_require(entry, "type", where))
            if _bool(entry, "hard", where, False):
                if entry.get("confidence") is not None:
                    raise InputError(f"{where}: a hard rule's 'confidence' must be null")
                confidence = HARD
            else:
                confidence = _number(_require(entry, "confidence", where), "confidence", where)
            rules.append(
                RuleNode(
                    id=_str(_require(entry, "id", where), "id", where),
                    rule_type=rule_type,
                    premise_ids=_ints(entry, "premises", where, []),
                    hypothesis_ids=_ints(entry, "hypotheses", where),
                    confidence=confidence,
                    raw_score=_number(entry.get("raw_score", 1.0), "raw_score", where),
                )
            )
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    try:
        return BeliefGraph(statements, tuple(rules), hypotheses)
    except ValueError as exc:
        raise InputError(f"document: {exc}") from exc


def save_graph(graph: BeliefGraph, path: str | Path, provenance: dict | None = None) -> None:
    Path(path).write_text(dumps(graph_to_document(graph, provenance)))


def load_graph(path: str | Path) -> BeliefGraph:
    return document_to_graph(read_json(path))


def load_questions(path: str | Path) -> list[HypothesisSet]:
    """A question file: one question object or a list of them."""
    from .construction import HypothesisSet

    raw = read_json(path)
    questions = []
    for i, entry in enumerate(raw if isinstance(raw, list) else [raw]):
        where = f"{path}: question [{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where} must be an object")
        hypotheses = tuple(_str(h, "hypotheses", where) for h in _list(entry, "hypotheses", where))
        gold_index = _optional(_int, entry, "gold_index", where)
        question_id = _optional(_str, entry, "question_id", where)
        try:
            questions.append(HypothesisSet(hypotheses, gold_index, question_id))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
    return questions


def outcome_to_document(outcome: ReasoningOutcome, summary: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "assignment": {str(k): v for k, v in sorted(outcome.final_assignment.items())},
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
        "summary": summary or {},
    }


# -- configuration ------------------------------------------------------------

def config_digest(cfg: CalibrationConfig) -> str:
    import hashlib

    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load_config(path: str | Path | None, overrides: dict | None = None) -> CalibrationConfig:
    from .calibration import CalibrationConfig

    values: dict = {}
    if path is not None:
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise InputError(f"{path}: config root must be an object")
        unknown = set(raw) - set(CalibrationConfig.__dataclass_fields__)
        if unknown:
            raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
        # Checked, not converted: an accepted value keeps its config digest.
        for key, value in raw.items():
            (_int if key == "d_max" else _number)(value, key, str(path))
        values.update(raw)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return CalibrationConfig(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config: {exc}") from exc


# -- oracle fixture files -----------------------------------------------------

def load_mock_oracle(path: str | Path) -> MockOracle:
    """Fixture file with four tables: premises, statement_scores,
    entailment_scores, negations (plus optional default scores); every score
    is a number in [0, 1]."""
    from .construction import MockOracle

    raw = read_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: fixture root must be an object")
    tables = {
        name: raw.get(name, {})
        for name in ("premises", "statement_scores", "entailment_scores", "negations")
    }
    for name, table in tables.items():
        if not isinstance(table, dict):
            raise InputError(f"{path}: {name!r} must be an object")
    where = str(path)
    for key in tables["premises"]:
        for premise in _list(tables["premises"], key, f"{where}: premises"):
            _statement(premise, key, f"{where}: premises")
    for name in ("statement_scores", "entailment_scores"):
        tables[name] = {k: _score(v, k, f"{where}: {name}") for k, v in tables[name].items()}
    for key, negation in tables["negations"].items():
        _statement(negation, key, f"{where}: negations")
    try:
        return MockOracle(
            **tables,
            default_score=_score(raw.get("default_score", 0.5), "default_score", where),
            default_entailment_score=_score(
                raw.get("default_entailment_score", 0.85), "default_entailment_score", where
            ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
