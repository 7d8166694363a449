"""Score calibration: raw oracle scores to node/rule confidences.

Raw model scores are heavily skewed towards 0 and 1, so the two scores the
oracle gives (statement truth and entailment) are squashed with
exp(k * (s - 1)), each with its own k; an entailment also carries an
importance factor t on top.  XOR and multiple-choice rules are structural:
their confidence is their importance factor alone.  Also hosts the XOR
margin filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import finite_number, integer, score

# Construction recurses about two frames per level, so this bound keeps a
# full-depth build well inside the interpreter's default recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class CalibrationConfig:
    """Calibration and construction hyperparameters (tuned once, then frozen)."""

    k: float = 9.0
    k_entailment: float = 36.0
    t_entailment: float = 1.02
    t_xor: float = 1.1
    t_mc: float = 0.98
    m_xor: float = 0.3
    beta: float = 0.95
    d_max: int = 5

    def __post_init__(self) -> None:
        # Checked, not converted, so an accepted value keeps its config digest.
        for name in ("k", "k_entailment", "t_entailment", "t_xor", "t_mc"):
            if finite_number(getattr(self, name), name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        score(self.m_xor, "m_xor")
        if not 0.0 < finite_number(self.beta, "beta") <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0 <= integer(self.d_max, "d_max") <= MAX_DEPTH:
            raise ValueError(f"d_max must be in [0, {MAX_DEPTH}], got {self.d_max!r}")


def calibrate_statement(s_raw: float, cfg: CalibrationConfig) -> float:
    """exp(k * (s_raw - 1)); strictly increasing, maps 1.0 to 1.0."""
    s_raw = score(s_raw, "raw statement score")
    return math.exp(cfg.k * (s_raw - 1.0))


def calibrate_entailment(s_raw: float, cfg: CalibrationConfig) -> float:
    """t_entailment * exp(k_entailment * (s_raw - 1)); may exceed 1, since
    costs are unnormalized."""
    s_raw = score(s_raw, "raw entailment score")
    return cfg.t_entailment * math.exp(cfg.k_entailment * (s_raw - 1.0))


def label_from_score(s_d: float) -> tuple[bool, float]:
    """Map a truth score to (label, raw confidence): (True, s) iff s >= 0.5."""
    s_d = score(s_d, "truth score")
    if s_d >= 0.5:
        return True, s_d
    return False, 1.0 - s_d


def xor_admissible(score_h: float, score_negh: float, cfg: CalibrationConfig) -> bool:
    """Keep an XOR pair only when the two raw truth scores clearly disagree.

    The margin test is inclusive: a gap of exactly m_xor drops the pair.  A
    tiny tolerance keeps that boundary stable under float rounding (e.g.
    0.8 - 0.5 evaluates slightly above 0.3).
    """
    return abs(score_h - score_negh) - cfg.m_xor > 1e-12
