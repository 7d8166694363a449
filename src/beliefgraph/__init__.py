"""Belief-graph construction and exact MaxSAT-based belief revision.

Public names are imported from their submodule on first access (PEP 562),
so ``import beliefgraph`` loads no submodule, and a CLI command that never
queries an oracle never imports the oracle transport.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_EXPORTS = {
    "construction": (
        "BeliefOracle",
        "CalibrationConfig",
        "HypothesisSet",
        "MockOracle",
        "canonicalize",
        "generate_graph",
    ),
    "errors": (
        "ConstructionError",
        "InputError",
        "OracleDecodeError",
        "OracleTransportError",
        "ReasoningError",
        "SolverLimitError",
    ),
    "evaluation": (
        "DatasetReport",
        "evaluate_dataset",
        "mc_accuracy",
    ),
    "maxsat": (
        "SolveResult",
        "WeightedClauseSet",
        "encode",
        "solve",
    ),
    "model": (
        "HARD",
        "Assignment",
        "BeliefGraph",
        "RuleNode",
        "RuleType",
        "StatementNode",
        "total_cost",
    ),
    "oracle_client": ("RemoteOracle",),
    "reasoner": (
        "ConsistencyReport",
        "ExplanationSubgraph",
        "ReasoningOutcome",
        "ablate",
        "consistency",
        "extract_explanation",
        "reason",
        "resolve_interactive",
    ),
    "serialize": (
        "SCHEMA_VERSION",
        "document_to_graph",
        "dumps",
        "graph_to_document",
        "load_graph",
        "save_graph",
    ),
}

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
