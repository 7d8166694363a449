"""Graphviz DOT rendering of belief graphs and reasoning outcomes.

Statements are ellipses filled white (believed true) or grey (believed
false); rule nodes are small boxes.  Violated rules are drawn red and
discarded rules dashed.
"""

from __future__ import annotations

from typing import Collection

from .model import Assignment, BeliefGraph, scan_rules


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    graph: BeliefGraph,
    assignment: Assignment | None = None,
    discarded: Collection[str] = (),
) -> str:
    a = assignment if assignment is not None else graph.initial_assignment()
    discarded = set(discarded)
    violated = {rule.id for rule in scan_rules(graph.rules, a)[2]}
    hypotheses = set(graph.hypotheses)
    lines = [
        "digraph belief_graph {",
        "  rankdir=BT;",
        '  node [style=filled, fontname="Helvetica"];',
    ]
    # A DOT ID cannot hold '-', so a negative id's node is quoted, as a rule's is.
    names = {}
    for sid in sorted(graph.statements):
        node = graph.statements[sid]
        fill = "white" if a[sid] else "grey80"
        attrs = [f"label={_quote(node.text)}", f"fillcolor={fill}", "shape=ellipse"]
        if sid in hypotheses:
            attrs.append("penwidth=2")
        name = names[sid] = f"s{sid}" if sid >= 0 else f'"s{sid}"'
        lines.append(f"  {name} [{', '.join(attrs)}];")
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
        if rule.id in violated:
            attrs += ["color=red", "fontcolor=red"]
        if rule.id in discarded:
            attrs.append('style="filled,dashed"')
        # Quoted, and never the bare s<N> of a statement.
        node_id = _quote(f"rule:{rule.id}")
        lines.append(f"  {node_id} [{', '.join(attrs)}];")
        for sid in rule.premise_ids:
            lines.append(f"  {names[sid]} -> {node_id};")
        for sid in rule.hypothesis_ids:
            lines.append(f"  {node_id} -> {names[sid]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
