"""Spans recorded by the benchmark around its calls into beliefgraph.

A span has a name, start, end, parent span and question id.  Spans stay
in memory until the run ends and are then written out in one file.  A
layer's self time is its span's duration minus the time its child spans
cover.  Counts recorded at the same boundaries go to `Tracer.counts`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "question", "child_time")

    def __init__(self, name: str, start: float, parent: int | None, question: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.question = question
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.question = ""
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent, self.question)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[self.question][name] += value

    def totals(self, questions: Sequence[str]) -> dict[str, float]:
        """Per span name: summed duration and self time (suffix ``.self``),
        in seconds, over spans of the given questions."""
        wanted = set(questions)
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.question in wanted:
                out[span.name] += span.duration
                out[span.name + ".self"] += span.duration - span.child_time
        return out

    def by_question(self, name: str, questions: Sequence[str]) -> list[float]:
        """Summed duration of the named spans, per question."""
        sums = dict.fromkeys(questions, 0.0)
        for span in self.spans:
            if span.name == name and span.question in sums:
                sums[span.question] += span.duration
        return list(sums.values())

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        rows = [
            [s.name, round(s.start, 7), round(s.end, 7), s.parent, s.question]
            for s in self.spans
        ]
        document = {"fields": ["name", "start", "end", "parent", "question"], "spans": rows}
        path.write_text(json.dumps(document, separators=(",", ":")))


def timed(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call fn, inside a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


class TimedOracle:
    """BeliefOracle proxy that records a span per query and classifies it
    as a hit or a miss by the client's transport-call counter."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def _query(self, method: str, *args):
        before = self.inner.calls
        with self.tracer.span("oracle_client.query") as span:
            result = getattr(self.inner, method)(*args)
        missed = self.inner.calls > before
        span.name = "oracle_client.miss" if missed else "oracle_client.hit"
        self.tracer.count("oracle_client.queries", 1)
        self.tracer.count("oracle_client.transport_calls", self.inner.calls - before)
        return result

    def generate_premises(self, statement: str) -> list[str]:
        return self._query("generate_premises", statement)

    def score_statement(self, statement: str) -> float:
        return self._query("score_statement", statement)

    def score_entailment(self, premises: Sequence[str], hypothesis: str) -> float:
        return self._query("score_entailment", premises, hypothesis)

    def negate(self, statement: str) -> str:
        return self._query("negate", statement)
