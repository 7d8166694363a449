"""The benchmark's workloads and the closed loop that drives them.

One caller sends the next question only after the previous one
completes.  A question's latency covers the program's work only; output
checks run after the clock stops, and a question that raises or fails a
check is counted as failed.  Workloads call only beliefgraph's public
functions and its CLI.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from beliefgraph import (
    CalibrationConfig,
    RemoteOracle,
    consistency,
    dumps,
    encode,
    extract_explanation,
    generate_graph,
    graph_to_document,
    load_graph,
    reason,
    save_graph,
    solve,
    total_cost,
)
from beliefgraph.dot import to_dot
from beliefgraph.serialize import load_mock_oracle, outcome_to_document

import inputs
import reference
from spans import TimedOracle, Tracer, timed

HERE = Path(__file__).resolve().parent
COST_TOLERANCE = 1e-9
ORACLE_CONFIG = CalibrationConfig(d_max=5)
CLI_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Sizes:
    """Workload parameters.  The defaults are the benchmark; the self-test
    shrinks them."""

    acceptance_graphs: int = 600
    acceptance_prefix: int = 100
    cli_graphs: int = 64
    cli_prefix: int = 10
    oracle_questions: int = 20
    oracle_vocabulary: int = 100
    cli_startups: int = 3


# -- shared steps ---------------------------------------------------------------

def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's sources first."""
    path = os.environ.get("PYTHONPATH")
    src = str(HERE.parent / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def reset_peak_rss() -> None:
    """Reset this process's resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as control:
        control.write("5")


def check_repair(graph, updated, assignment, optimal_cost) -> None:
    cost = total_cost(graph, assignment)
    if abs(cost - optimal_cost) > COST_TOLERANCE:
        raise CheckFailed(f"optimal_cost {optimal_cost!r} != total_cost {cost!r}")
    violated = consistency(updated).violated_rules
    if violated:
        raise CheckFailed(f"updated graph violates {violated} rules")


def reason_traced(graph, tracer: Tracer | None):
    """`reason`, plus, when tracing, separate `encode`/`solve` calls and an
    explanation extraction whose spans give the reasoner's layer split."""
    if tracer is None:
        return reason(graph)
    clauses = tracer.call("maxsat.encode", encode, graph)
    result = tracer.call("maxsat.solve", solve, clauses)
    outcome = tracer.call("reasoner.reason", reason, graph)
    if result.assignment != outcome.final_assignment:
        raise CheckFailed("solve(encode(graph)) disagrees with reason(graph)")
    cleared = dataclasses.replace(outcome, explanation_roots={})
    with tracer.span("reasoner.explain"):
        for root in sorted(outcome.predictions):
            extract_explanation(cleared, root)
    for name, value in (
        ("maxsat.nodes", result.nodes_explored),
        ("maxsat.variables", len(clauses.variable_order)),
        ("maxsat.clauses", len(clauses.clauses)),
        ("reasoner.flips", len(outcome.flipped)),
        ("reasoner.discarded_rules", len(outcome.discarded_rules)),
    ):
        tracer.count(name, value)
    return outcome


def outcome_text(graph, outcome, tracer: Tracer | None) -> str:
    """The outcome document `belief-graph reason` writes for this graph."""
    before = timed(tracer, "metrics.consistency", consistency, graph)
    after = timed(tracer, "metrics.consistency", consistency, graph, outcome.final_assignment)
    summary = {
        "tau_before": before.tau,
        "tau_after": after.tau,
        "self_consistency_before": before.self_consistency,
        "self_consistency_after": after.self_consistency,
        "flips": len(outcome.flipped),
        "discarded_rules": len(outcome.discarded_rules),
    }
    text = timed(tracer, "serialize.dump", lambda: dumps(outcome_to_document(outcome, summary)))
    if tracer is not None:
        tracer.count("serialize.doc_bytes", len(text))
    return text


# -- workloads ------------------------------------------------------------------

class Workload:
    """A fixed, seeded list of questions.  A pass asks each once, in order;
    passes repeat until the run's time is up."""

    name = ""
    why = ""
    # Percentile reported as latency_tail_ms.  Fixed per workload so that
    # runs stay comparable; it leaves at least ten samples beyond it at
    # the sample count a run reaches.  Higher percentiles were tried and
    # spread too far across seeds (p99 on oracle-warm: 0.55).
    tail_percentile = 90.0
    size = 0  # questions per pass
    prefix = 0  # questions whose counts and outputs must repeat exactly

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, fail_ratio: float = 0.0):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.fail_ratio = fail_ratio
        self.rss_mb: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def start_pass(self, tracer: Tracer | None) -> None:
        pass

    def question(self, index: int, tracer: Tracer | None) -> Callable[[], str]:
        """Do one question's work; return the untimed check, which returns
        the output documents."""
        raise NotImplementedError

    def begin_trace(self, tracer: Tracer) -> None:
        pass

    def server_ms(self) -> float:
        return 0.0

    def cache_bytes(self) -> int:
        return 0

    def sample_rss(self) -> None:
        """Record the peak resident memory of the question just answered."""
        self.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def peak_rss_mb(self) -> tuple[float, float]:
        """Median and maximum over questions of each question's peak."""
        samples = self.rss_mb or [0.0]
        return statistics.median(samples), max(samples)


class Acceptance(Workload):
    name = "acceptance"
    why = ("solver workload: in-process reason, consistency and outcome document on "
           "acceptance-shaped graphs (50-400 statements); no oracle, construction or CLI")

    def setup(self) -> None:
        self.graphs = inputs.acceptance_graphs(self.seed, self.sizes.acceptance_graphs)
        self.size = len(self.graphs)
        self.prefix = min(self.size, self.sizes.acceptance_prefix)

    def teardown(self) -> None:
        self.graphs = []

    def question(self, index, tracer):
        graph = self.graphs[index]
        outcome = reason_traced(graph, tracer)
        text = outcome_text(graph, outcome, tracer)

        def verify() -> str:
            check_repair(graph, outcome.updated_graph, outcome.final_assignment,
                         outcome.optimal_cost)
            return text

        return verify


class Cli(Workload):
    name = "cli"
    why = ("what a CLI user pays per graph: one `belief-graph reason -o --export-dot` "
           "process per acceptance graph; interpreter start, import, load, solve, dumps, DOT")
    tail_percentile = 75.0

    def setup(self) -> None:
        self.graphs = inputs.acceptance_graphs(self.seed, self.sizes.cli_graphs)
        self.size = len(self.graphs)
        self.prefix = min(self.size, self.sizes.cli_prefix)
        directory = self.workdir / "cli"
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, graph in enumerate(self.graphs):
            path = directory / f"g{i:03d}.json"
            save_graph(graph, path)
            self.paths.append(path)

    def teardown(self) -> None:
        self.graphs = []

    def _cli(self, *args: str) -> tuple[int, str]:
        """Run the CLI; return its exit code and standard error.  Records
        the child's own peak resident memory, which wait4 reports."""
        proc = subprocess.Popen([sys.executable, "-m", "beliefgraph.cli", *args],
                                env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        with proc.stderr:
            deadline = time.monotonic() + CLI_TIMEOUT_S
            chunks = []
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([proc.stderr], [], [], left)[0]:
                    proc.kill()
                    break
                chunk = os.read(proc.stderr.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        return proc.returncode, b"".join(chunks).decode(errors="replace")

    def sample_rss(self) -> None:
        """The CLI processes do the work; `_cli` records their peaks."""

    def begin_trace(self, tracer):
        tracer.question = ""
        for _ in range(self.sizes.cli_startups):
            tracer.call("cli.startup", self._cli, "--help")

    def question(self, index, tracer):
        graph, path = self.graphs[index], self.paths[index]
        out, dot = path.with_suffix(".out.json"), path.with_suffix(".dot")
        code, stderr = timed(tracer, "cli.invocation", self._cli,
                             "reason", str(path), "-o", str(out), "--export-dot", str(dot))
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()[-300:]}")
        text = out.read_text()
        if tracer is not None:
            # Replay the CLI's `reason` steps in-process, one span per layer.
            loaded = tracer.call("serialize.load", load_graph, path)
            outcome = reason_traced(loaded, tracer)
            replayed = outcome_text(loaded, outcome, tracer)
            tracer.call("dot.render", to_dot, loaded, outcome.final_assignment,
                        outcome.discarded_rules)
            if replayed != text:
                raise CheckFailed("in-process replay differs from the CLI's outcome document")

        def verify() -> str:
            document = json.loads(text)
            assignment = {int(k): v for k, v in document["assignment"].items()}
            updated = graph.with_labels(assignment).without_rules(document["discarded_rules"])
            check_repair(graph, updated, assignment, document["optimal_cost"])
            if not dot.read_text().startswith("digraph"):
                raise CheckFailed("DOT export is not a digraph")
            return text

        return verify


class StubServer:
    """The stub oracle endpoint, run as a child process."""

    def __init__(self, fixture: Path, fail_ratio: float):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), str(fixture),
             "--fail-ratio", repr(fail_ratio)],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("stub oracle server did not start")
        self.url = f"http://127.0.0.1:{line[1]}/"

    def service_ms(self) -> float:
        with urllib.request.urlopen(self.url + "stats", timeout=30) as response:
            return float(json.load(response)["service_ms"])

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class OracleCold(Workload):
    name = "oracle-cold"
    why = ("oracle I/O on misses: a fresh RemoteOracle with an empty cache per pass, "
           "generate_graph(d_max=5) and reason per question against the loopback stub")
    tail_percentile = 70.0
    warm = False

    server: StubServer | None = None

    def setup(self) -> None:
        fixture, self.hypothesis_sets = inputs.oracle_tables(
            self.seed, self.sizes.oracle_questions, self.sizes.oracle_vocabulary
        )
        self.size = self.prefix = len(self.hypothesis_sets)
        directory = self.workdir / self.name
        directory.mkdir(parents=True, exist_ok=True)
        fixture_path = directory / "fixture.json"
        fixture_path.write_text(json.dumps(fixture))
        mock = load_mock_oracle(fixture_path)
        self.reference = [
            dumps(graph_to_document(generate_graph(q, mock, ORACLE_CONFIG)))
            for q in self.hypothesis_sets
        ]
        self.server = StubServer(fixture_path, self.fail_ratio)
        self.cache_path = directory / "oracle_cache.json"
        self.cache_path.unlink(missing_ok=True)
        self._cache_bytes = 0
        if self.warm:
            client = RemoteOracle(self.server.url, cache_path=self.cache_path)
            for q in self.hypothesis_sets:
                generate_graph(q, client, ORACLE_CONFIG)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def start_pass(self, tracer):
        if not self.warm:
            self.cache_path.unlink(missing_ok=True)
        self.client = timed(tracer, "oracle_client.load", RemoteOracle,
                            self.server.url, cache_path=self.cache_path)
        self.oracle = self.client if tracer is None else TimedOracle(self.client, tracer)

    def question(self, index, tracer):
        hypothesis_set = self.hypothesis_sets[index]
        graph = timed(tracer, "construction.build", generate_graph,
                      hypothesis_set, self.oracle, ORACLE_CONFIG)
        outcome = reason_traced(graph, tracer)
        if tracer is not None:
            tracer.count("construction.statements", len(graph.statements))
            tracer.count("construction.rules", len(graph.rules))
            if index == self.size - 1 and not self._cache_bytes:
                self._cache_bytes = self.cache_path.stat().st_size
        transport_calls = self.client.calls

        def verify() -> str:
            document = dumps(graph_to_document(graph))
            if document != self.reference[index]:
                raise CheckFailed("RemoteOracle graph differs from the MockOracle graph")
            if self.warm and transport_calls:
                raise CheckFailed(f"warm cache made {transport_calls} transport calls")
            check_repair(graph, outcome.updated_graph, outcome.final_assignment,
                         outcome.optimal_cost)
            return document + outcome_text(graph, outcome, None)

        return verify

    def server_ms(self) -> float:
        return self.server.service_ms()

    def cache_bytes(self) -> int:
        return self._cache_bytes


class OracleWarm(OracleCold):
    name = "oracle-warm"
    why = ("oracle cache reads only: the same questions and server, cache file prefilled "
           "in setup; a fresh RemoteOracle loads it per pass and makes 0 transport calls")
    warm = True


WORKLOADS = {w.name: w for w in (Acceptance, Cli, OracleCold, OracleWarm)}


# -- the closed loop ------------------------------------------------------------

@dataclass
class Phase:
    """What one stretch of the closed loop measured."""

    latencies: list[float] = field(default_factory=list)  # seconds, as measured
    scaled: list[float] = field(default_factory=list)  # seconds, scaled by the kernel
    kernels: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # of the first `prefix` questions
    questions: list[str] = field(default_factory=list)  # question ids, in order


def _ask(workload: Workload, index: int, tracer: Tracer | None) -> Callable[[], str]:
    if tracer is None:
        if index == 0:
            workload.start_pass(None)
        return workload.question(index, None)
    with tracer.span("question"):
        if index == 0:
            workload.start_pass(tracer)
        return workload.question(index, tracer)


def run_phase(workload: Workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Ask questions until `seconds` have passed and at least `prefix`
    questions were asked.  The reference kernel runs right before and
    right after each question's timed work."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.attempted < workload.prefix or time.perf_counter() < deadline:
        index = phase.attempted % workload.size
        qid = f"{phase.attempted // workload.size}:{index}"
        phase.questions.append(qid)
        if tracer is not None:
            tracer.question = qid
        output = ""
        reset_peak_rss()
        before = reference.kernel_s()
        began = time.perf_counter()
        try:
            verify = _ask(workload, index, tracer)
            ended = time.perf_counter()
            after = reference.kernel_s()
            workload.sample_rss()
            output = verify()
        except Exception as exc:  # a failed question is counted; the run goes on
            phase.failures.append(f"question {qid}: {type(exc).__name__}: {exc}")
        else:
            phase.latencies.append(ended - began)
            phase.scaled.append((ended - began) * reference.scale(before, after))
            phase.kernels += (before, after)
        if phase.attempted < workload.prefix:
            phase.outputs.append(output)
        phase.attempted += 1
    return phase


def fresh_workdir(root: Path, name: str, seed: int) -> Path:
    workdir = root / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
