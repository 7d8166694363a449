"""Versioned JSON documents for graphs, outcomes, configs, and oracle fixtures."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any

from .calibration import CalibrationConfig
from .construction import MockOracle
from .model import BeliefGraph, RuleNode, RuleType, StatementNode
from .reasoner import ReasoningOutcome

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed input document; the message names the offending location."""


def dumps(document: dict) -> str:
    """Canonical serialization: stable key order, two-space indent."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def graph_to_document(graph: BeliefGraph, provenance: dict | None = None) -> dict:
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
                "is_hypothesis": node.is_hypothesis,
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


def document_to_graph(document: dict) -> BeliefGraph:
    if not isinstance(document, dict):
        raise InputError("document root must be an object")
    version = _require(document, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise InputError(f"document: unsupported schema_version {version!r}")
    statements: dict[int, StatementNode] = {}
    for i, entry in enumerate(_require(document, "statements", "document")):
        where = f"statements[{i}]"
        try:
            node = StatementNode(
                id=int(_require(entry, "id", where)),
                text=str(_require(entry, "text", where)),
                label=_bool(entry, "label", where),
                confidence=float(_require(entry, "confidence", where)),
                depth=int(entry.get("depth", 0)),
                is_hypothesis=_bool(entry, "is_hypothesis", where, False),
                is_negation_of=entry.get("negation_of"),
                raw_score=entry.get("raw_score"),
            )
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc
        statements[node.id] = node
    rules = []
    for i, entry in enumerate(_require(document, "rules", "document")):
        where = f"rules[{i}]"
        try:
            rule_type = RuleType(_require(entry, "type", where))
            hard = _bool(entry, "hard", where, False)
            confidence = math.inf if hard else float(_require(entry, "confidence", where))
            rules.append(
                RuleNode(
                    id=str(_require(entry, "id", where)),
                    rule_type=rule_type,
                    premise_ids=tuple(int(p) for p in entry.get("premises", [])),
                    hypothesis_ids=tuple(int(h) for h in _require(entry, "hypotheses", where)),
                    confidence=confidence,
                    raw_score=float(entry.get("raw_score", 1.0)),
                )
            )
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    hypotheses = tuple(int(h) for h in _require(document, "hypotheses", "document"))
    try:
        return BeliefGraph(statements, tuple(rules), hypotheses)
    except ValueError as exc:
        raise InputError(f"document: {exc}") from exc


def save_graph(graph: BeliefGraph, path: str | Path, provenance: dict | None = None) -> None:
    Path(path).write_text(dumps(graph_to_document(graph, provenance)))


def load_graph(path: str | Path) -> BeliefGraph:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return document_to_graph(document)


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

def config_to_dict(cfg: CalibrationConfig) -> dict:
    return asdict(cfg)


def config_digest(cfg: CalibrationConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load_config(path: str | Path | None, overrides: dict | None = None) -> CalibrationConfig:
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
            ) from exc
        except OSError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError(f"{path}: config root must be an object")
        known = set(CalibrationConfig.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
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
    entailment_scores, negations (plus optional default scores)."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: fixture root must be an object")
    try:
        return MockOracle(
            premises=raw.get("premises", {}),
            statement_scores=raw.get("statement_scores", {}),
            entailment_scores=raw.get("entailment_scores", {}),
            negations=raw.get("negations", {}),
            default_score=float(raw.get("default_score", 0.5)),
            default_entailment_score=float(raw.get("default_entailment_score", 0.85)),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
