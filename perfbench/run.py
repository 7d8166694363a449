"""Benchmark for beliefgraph: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Workloads: acceptance, cli, oracle-cold, oracle-warm (see workloads.py).
With ``--trace 0`` the run measures the untraced closed loop and reports
the end-to-end metrics.  With ``--trace 1`` the first half of the time
runs untraced and the second half traced, on the same questions; it
reports the per-layer metrics, the tracing overhead between the halves,
and each layer's share of question time, and writes the spans to
``.perfbench_out/``.  A human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 on a usage error, such as
running outside a checkout with beliefgraph's sources under ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "questions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "maxsat.encode_ms": "ms",
    "maxsat.solve_ms": "ms",
    "maxsat.nodes": "count",
    "maxsat.nodes_max": "count",
    "maxsat.variables": "count",
    "maxsat.clauses": "count",
    "reasoner.reason_ms": "ms",
    "reasoner.self_ms": "ms",
    "reasoner.explain_ms": "ms",
    "reasoner.flips": "count",
    "reasoner.discarded_rules": "count",
    "metrics.consistency_ms": "ms",
    "serialize.load_ms": "ms",
    "serialize.dump_ms": "ms",
    "serialize.doc_bytes": "bytes",
    "dot.render_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.invocation_ms": "ms",
    "construction.build_ms": "ms",
    "construction.self_ms": "ms",
    "construction.statements": "count",
    "construction.rules": "count",
    "construction.oracle_queries": "count",
    "oracle_client.queries": "count",
    "oracle_client.transport_calls": "count",
    "oracle_client.hit_ratio": "ratio",
    "oracle_client.miss_ms_mean": "ms",
    "oracle_client.hit_ms_mean": "ms",
    "oracle_client.server_ms": "ms",
    "oracle_client.cache_load_ms": "ms",
    "oracle_client.cache_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def questions_per_s(latencies: list[float]) -> float:
    """Completed questions per second of question time (checks excluded)."""
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def end_to_end(workload, phase, setups, notes) -> dict[str, float]:
    """Times are scaled by the reference kernel; the notes give them as
    measured."""
    # A run in which every question failed reports zeros, not NaN.
    scaled, raw = phase.scaled or [0.0], phase.latencies or [0.0]
    p = workload.tail_percentile
    tail = percentile(scaled, p)
    beyond = sum(1 for x in scaled if x > tail)
    notes["questions_per_s"] = (
        f"{len(phase.scaled)} questions; as measured {questions_per_s(phase.latencies):.4g} 1/s"
    )
    notes["latency_p50_ms"] = f"as measured {statistics.median(raw) * 1000.0:.4g} ms"
    notes["latency_tail_ms"] = (
        f"p{p:g}, {beyond} of {len(phase.scaled)} samples beyond it; "
        f"as measured {percentile(raw, p) * 1000.0:.4g} ms"
    )
    notes["setup_s"] = "median of 3; as measured " + ", ".join(f"{t:.3f}" for t, _ in setups)
    rss_median, rss_max = workload.peak_rss_mb()
    notes["peak_rss_mb"] = f"median over questions; the largest was {rss_max:.4g} MB"
    kernels = phase.kernels or [0.0]
    notes["reference_kernel"] = (
        f"median {statistics.median(kernels) * 1000.0:.4g} ms, "
        f"IQR {percentile(kernels, 25) * 1000.0:.4g}-{percentile(kernels, 75) * 1000.0:.4g} ms "
        f"over {len(phase.kernels)} passes (reference {reference.REFERENCE_S * 1000.0:g} ms)"
    )
    return {
        "questions_per_s": questions_per_s(phase.scaled),
        "latency_p50_ms": statistics.median(scaled) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": rss_median,
    }


def layer_metrics(workload, tracer, phase, base, server_ms, notes):
    """Per-layer metrics of the traced phase, and each layer's share of
    the question time an untraced run would see."""
    questions = phase.questions
    n = len(questions)
    first = questions[: workload.prefix]
    totals = tracer.totals(questions)
    counts = tracer.counts

    def per_question_ms(name: str) -> float:
        return totals.get(name, 0.0) / n * 1000.0

    def per_span_ms(name: str) -> float:
        durations = tracer.durations(name)
        return statistics.mean(durations) * 1000.0 if durations else 0.0

    def mean_count(name: str) -> float:
        return sum(counts[q][name] for q in first) / len(first)

    # reason() runs encode and solve again inside; its own work is the
    # difference.  The median keeps the solver's run-to-run noise out.
    own = [
        r - e - s
        for r, e, s in zip(*(tracer.by_question(name, questions) for name in
                             ("reasoner.reason", "maxsat.encode", "maxsat.solve")))
    ]
    reasoner_self_ms = statistics.median(own) * 1000.0
    queries = sum(counts[q]["oracle_client.queries"] for q in first)
    transport = sum(counts[q]["oracle_client.transport_calls"] for q in first)
    startups = tracer.durations("cli.startup")
    untraced, traced = questions_per_s(base.scaled), questions_per_s(phase.scaled)
    notes["oracle_client.hit_ratio"] = f"{queries - transport:g} hits of {queries:g} queries"
    notes["trace.overhead_pct"] = f"{untraced:.4g} 1/s untraced, {traced:.4g} 1/s traced"
    metrics = {
        "maxsat.encode_ms": per_question_ms("maxsat.encode"),
        "maxsat.solve_ms": per_question_ms("maxsat.solve"),
        "maxsat.nodes": mean_count("maxsat.nodes"),
        "maxsat.nodes_max": max(counts[q]["maxsat.nodes"] for q in first),
        "maxsat.variables": mean_count("maxsat.variables"),
        "maxsat.clauses": mean_count("maxsat.clauses"),
        "reasoner.reason_ms": per_question_ms("reasoner.reason"),
        "reasoner.self_ms": reasoner_self_ms,
        "reasoner.explain_ms": per_question_ms("reasoner.explain"),
        "reasoner.flips": mean_count("reasoner.flips"),
        "reasoner.discarded_rules": mean_count("reasoner.discarded_rules"),
        "metrics.consistency_ms": per_question_ms("metrics.consistency"),
        "serialize.load_ms": per_question_ms("serialize.load"),
        "serialize.dump_ms": per_question_ms("serialize.dump"),
        "serialize.doc_bytes": mean_count("serialize.doc_bytes"),
        "dot.render_ms": per_question_ms("dot.render"),
        "cli.startup_ms": statistics.median(startups) * 1000.0 if startups else 0.0,
        "cli.invocation_ms": per_span_ms("cli.invocation"),
        "construction.build_ms": per_question_ms("construction.build"),
        "construction.self_ms": per_question_ms("construction.build.self"),
        "construction.statements": mean_count("construction.statements"),
        "construction.rules": mean_count("construction.rules"),
        "construction.oracle_queries": mean_count("oracle_client.queries"),
        "oracle_client.queries": queries,
        "oracle_client.transport_calls": transport,
        "oracle_client.hit_ratio": (queries - transport) / queries if queries else 0.0,
        "oracle_client.miss_ms_mean": per_span_ms("oracle_client.miss"),
        "oracle_client.hit_ms_mean": per_span_ms("oracle_client.hit"),
        "oracle_client.server_ms": server_ms / n,
        "oracle_client.cache_load_ms": per_span_ms("oracle_client.load"),
        "oracle_client.cache_bytes": workload.cache_bytes(),
        "trace.overhead_pct": 100.0 * (1.0 - traced / untraced) if untraced else 0.0,
    }

    # Disjoint parts of one untraced question, in ms per question.  The
    # reason() span is split into encode, solve and its own work in the
    # ratio the separate calls measured.
    reason_ms = metrics["reasoner.reason_ms"]
    inner = metrics["maxsat.encode_ms"] + metrics["maxsat.solve_ms"]
    scale = max(reason_ms - reasoner_self_ms, 0.0) / inner if inner else 0.0
    parts = {
        "maxsat.encode": metrics["maxsat.encode_ms"] * scale,
        "maxsat.solve": metrics["maxsat.solve_ms"] * scale,
        "reasoner.self": min(reasoner_self_ms, reason_ms),
        "metrics.consistency": metrics["metrics.consistency_ms"],
        "serialize.dump": metrics["serialize.dump_ms"],
    }
    if metrics["cli.invocation_ms"]:
        # The CLI's in-process steps are taken from the replay; startup
        # is interpreter start plus import plus argument parsing.
        whole = metrics["cli.invocation_ms"]
        parts["cli.startup"] = metrics["cli.startup_ms"]
        parts["serialize.load"] = metrics["serialize.load_ms"]
        parts["dot.render"] = metrics["dot.render_ms"]
    else:
        # The traced question also ran encode, solve and explanation
        # extraction outside reason(); an untraced one does not.
        whole = (per_question_ms("question") - metrics["maxsat.encode_ms"]
                 - metrics["maxsat.solve_ms"] - metrics["reasoner.explain_ms"])
        parts["construction.self"] = metrics["construction.self_ms"]
        parts["oracle_client.hits"] = per_question_ms("oracle_client.hit")
        parts["oracle_client.misses"] = per_question_ms("oracle_client.miss")
        parts["oracle_client.load"] = per_question_ms("oracle_client.load")
    parts = {k: v for k, v in parts.items() if v}
    parts["other"] = whole - sum(parts.values())
    shares = sorted(((k, v / whole) for k, v in parts.items()), key=lambda kv: -kv[1])
    return metrics, shares


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None,
        fail_ratio: float = 0.0) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    import workloads  # imports beliefgraph, so only once src/ is on the path

    reference.pin_to_one_cpu()
    workload = workloads.WORKLOADS[name](
        seed, sizes or workloads.Sizes(), workloads.fresh_workdir(OUT, name, seed), fail_ratio
    )
    notes: dict[str, str] = {}
    report = [f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}",
              f"  {workload.why}"]
    try:
        setups = []  # (as measured, scaled)
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            before = reference.kernel_s()
            began = time.perf_counter()
            workload.setup()
            took = time.perf_counter() - began
            setups.append((took, took * reference.scale(before, reference.kernel_s())))
        # The inputs the harness holds are not the program's heap: keep the
        # collector from rescanning them during every timed question.
        gc.collect()
        gc.freeze()
        if trace:
            base = workloads.run_phase(workload, seconds / 2)
            tracer = Tracer()
            workload.begin_trace(tracer)
            served = workload.server_ms()
            phase = workloads.run_phase(workload, seconds / 2, tracer)
            served = workload.server_ms() - served
            metrics, shares = layer_metrics(workload, tracer, phase, base, served, notes)
            units = LAYER_UNITS
            phases = [base, phase]
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_path)
        else:
            phase = workloads.run_phase(workload, seconds)
            metrics = end_to_end(workload, phase, setups, notes)
            units = END_TO_END_UNITS
            phases = [phase]
    finally:
        gc.unfreeze()
        workload.teardown()
        shutil.rmtree(workload.workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    digest = hashlib.sha256("\n".join(phase.outputs).encode()).hexdigest()
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        report.append(f"  {key:<32} {value:>14.6g} {units[key]}{note}")
    if not trace:
        report.append(f"  {'failed_ratio':<32} {len(failures) / attempted:>14.6g} ratio"
                      f"  ({len(failures)} of {attempted} questions)")
    report.append(f"  outputs_sha256 {digest}  (first {len(phase.outputs)} questions)")
    if "reference_kernel" in notes:
        report.append(f"  reference kernel: {notes['reference_kernel']}")
    if trace:
        report.append("  shares of an untraced question's time:")
        report.extend(f"    {part:<30} {share:7.2%}" for part, share in shares)
        report.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    report.extend(f"  FAILED {f}" for f in failures[:10])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "outputs_sha256": digest,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="beliefgraph benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["acceptance", "cli", "oracle-cold", "oracle-warm"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "beliefgraph" / "__init__.py").is_file():
        print(f"perfbench: no beliefgraph sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    del result["outputs_sha256"]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
