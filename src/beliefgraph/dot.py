"""Graphviz DOT rendering of belief graphs and reasoning outcomes.

Statements are ellipses filled white (believed true) or grey (believed
false); rule nodes are small boxes.  Violated rules are drawn red and
discarded rules dashed.
"""

from __future__ import annotations

from typing import Collection

from .model import Assignment, BeliefGraph, rule_satisfied


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    graph: BeliefGraph,
    assignment: Assignment | None = None,
    discarded: Collection[str] = (),
) -> str:
    a = assignment if assignment is not None else graph.initial_assignment()
    discarded = set(discarded)
    hypotheses = set(graph.hypotheses)
    lines = [
        "digraph belief_graph {",
        "  rankdir=BT;",
        '  node [style=filled, fontname="Helvetica"];',
    ]
    for sid in sorted(graph.statements):
        node = graph.statements[sid]
        fill = "white" if a[sid] else "grey80"
        shape = "ellipse"
        attrs = [f"label={_quote(node.text)}", f"fillcolor={fill}", f"shape={shape}"]
        if sid in hypotheses:
            attrs.append("penwidth=2")
        lines.append(f"  s{sid} [{', '.join(attrs)}];")
    for rule in graph.rules:
        label = rule.rule_type.value
        if not rule.is_hard:
            label += f" ({rule.confidence:.3f})"
        attrs = [
            f"label={_quote(label)}",
            "shape=box",
            "fillcolor=lightyellow",
            "fontsize=9",
        ]
        style = []
        if rule.id in discarded:
            style.append("dashed")
        if not rule_satisfied(rule, a):
            attrs.append("color=red")
            attrs.append("fontcolor=red")
        if style:
            attrs.append(f'style="filled,{",".join(style)}"')
        lines.append(f"  {rule.id} [{', '.join(attrs)}];")
        for sid in rule.premise_ids:
            lines.append(f"  s{sid} -> {rule.id};")
        for sid in rule.hypothesis_ids:
            lines.append(f"  {rule.id} -> s{sid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
