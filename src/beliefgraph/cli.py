"""Command-line surface: graph building, reasoning, interactive resolution,
and DOT export.

Exit codes: 0 ok, 2 input error (including a graph beyond the solver's
limits, an output path that cannot be written and an oracle cache that
cannot be read), 3 oracle error, 4 infeasible, 5 internal.

A command imports only what it uses: `reason`, `resolve` and `export-dot`
never load graph construction, the oracle transport or dataset evaluation.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .dot import to_dot
from .errors import (
    ConstructionError,
    InputError,
    OracleDecodeError,
    OracleTransportError,
    ReasoningError,
    SolverLimitError,
)
from .metrics import ABLATABLE, ablate, summarize
from .reasoner import DEFAULT_QUERY_BUDGET, reason, resolve_interactive
from .serialize import (
    config_digest,
    dumps,
    load_config,
    load_graph,
    load_mock_oracle,
    load_questions,
    outcome_to_document,
    save_graph,
)

if TYPE_CHECKING:
    from .calibration import CalibrationConfig
    from .construction import BeliefOracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ORACLE = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


@contextmanager
def _open_oracle(spec: str, cache_dir: Path) -> Iterator[BeliefOracle]:
    """The oracle named by ``spec``; a remote one is closed on the way out."""
    kind, _, rest = spec.partition(":")
    if kind == "mock" and rest:
        yield load_mock_oracle(rest)
    elif kind == "remote" and rest:
        from .oracle_client import RemoteOracle

        cache = cache_dir / "oracle_cache.jsonl"
        try:
            oracle = RemoteOracle(rest, cache_path=cache)
        except OSError as exc:  # the cache exists but cannot be read or cut back
            raise InputError(f"cannot use oracle cache {cache}: {exc.strerror or exc}") from exc
        with oracle:
            yield oracle
    else:
        raise InputError(f"oracle spec must be mock:<path> or remote:<url>, got {spec!r}")


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """An output path that cannot be written is an input error, not an
    internal one."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _provenance(args: argparse.Namespace, cfg: CalibrationConfig) -> dict:
    return {
        "oracle": args.oracle,
        "config_digest": config_digest(cfg),
        "seed": args.seed,
    }


def _cmd_build_graph(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1, got {args.workers}")
    if args.output and args.out_dir is not None:
        raise InputError("give -o/--output or --out-dir, not both")
    from .construction import generate_graph

    cfg = load_config(args.config, {"d_max": args.d_max})
    questions = load_questions(args.input)
    provenance = _provenance(args, cfg)
    if len(questions) == 1 and args.output:
        paths = [Path(args.output)]
        cache_dir = paths[0].parent
        # A remote oracle's cache goes there too, so check before any query.
        if not cache_dir.is_dir():
            raise InputError(f"cannot write {args.output}: no directory {cache_dir}")
    elif args.out_dir is None:
        raise InputError(
            f"{args.input} holds {len(questions)} questions; -o takes exactly one, "
            "so give --out-dir"
        )
    else:
        cache_dir = Path(args.out_dir)
        paths = [cache_dir / f"{name}.json" for name in _output_names(questions)]
        with _writing(cache_dir):
            cache_dir.mkdir(parents=True, exist_ok=True)

    with _open_oracle(args.oracle, cache_dir) as oracle:

        def build(question, path):
            graph = generate_graph(question, oracle, cfg)
            with _writing(path):
                save_graph(graph, path, provenance)
            return f"wrote {path}: {len(graph.statements)} statements, {len(graph.rules)} rules"

        if len(questions) > 1:  # a lone question does not pay for the pool's import
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                for line in pool.map(build, questions, paths):
                    print(line)
        else:
            for line in map(build, questions, paths):
                print(line)
    return EXIT_OK


def _output_names(questions) -> list[str]:
    """Each question's output file name without ``.json``: its ``question_id``,
    else ``question_<index>``.  A name must be a plain file name of its own."""
    names = []
    for index, question in enumerate(questions):
        name = question.question_id
        if name is None:
            name = f"question_{index:04d}"
        elif name in ("", "..") or "\0" in name or Path(name).name != name:
            raise InputError(f"question [{index}]: question_id {name!r} is not a file name")
        if name in names:
            raise InputError(f"question [{index}]: a second question is named {name!r}")
        names.append(name)
    return names


def _report(graph, outcome, output: str | None) -> None:
    """Write the outcome document when asked, and print the summary."""
    summary = summarize(graph, outcome)
    if output:
        with _writing(output):
            Path(output).write_text(dumps(outcome_to_document(outcome, summary)))
    print(f"tau before reasoning:  {summary['tau_before']:.4f}")
    print(f"tau after reasoning:   {summary['tau_after']:.4f}")
    print(f"{summary['flips']} flips, {summary['discarded_rules']} rules discarded")
    answers = [graph.statements[h].text for h in sorted(outcome.predictions)]
    if answers:
        print("answer: " + "; ".join(answers))
    else:
        print("answer: (no hypothesis believed)")


def _cmd_reason(args: argparse.Namespace) -> int:
    full_graph = load_graph(args.graph)
    graph = ablate(full_graph, args.ablate) if args.ablate else full_graph
    outcome = reason(graph)
    if args.export_dot:
        with _writing(args.export_dot):
            Path(args.export_dot).write_text(
                to_dot(full_graph, outcome.final_assignment, outcome.discarded_rules)
            )
    _report(full_graph, outcome, args.output)
    return EXIT_OK


def _cmd_resolve(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise InputError(f"--budget must not be negative, got {args.budget}")
    full_graph = load_graph(args.graph)

    stream_closed = False

    def ask(text: str) -> bool:
        nonlocal stream_closed
        print(f"Is it true that: {text}? [y/n] ", end="", flush=True)
        try:
            line = sys.stdin.readline()
        except (OSError, ValueError):  # unreadable or undecodable: treated as closed
            line = ""
        if not line:
            stream_closed = True
            raise EOFError("no interactive input available")
        return line.strip().lower() in ("y", "yes", "true", "t", "1")

    outcome = resolve_interactive(full_graph, ask, budget=args.budget)
    if stream_closed:
        print("warning: input stream closed, falling back to plain reasoning",
              file=sys.stderr)
    _report(full_graph, outcome, args.output)
    if outcome.discarded_rules:
        print(f"note: {len(outcome.discarded_rules)} conflicts remain")
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    text = to_dot(graph)
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belief-graph",
        description="Build belief graphs from an oracle and repair them with exact MaxSAT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="construct a belief graph from hypotheses")
    p.add_argument("input", help="JSON question file (object or list of objects)")
    p.add_argument("-o", "--output", help="graph document output path")
    p.add_argument("--out-dir", help="output directory for multi-question input")
    p.add_argument("--oracle", required=True, help="mock:<path> or remote:<url>")
    p.add_argument("--config", help="calibration config JSON")
    p.add_argument("--d-max", type=int, default=None, help="max recursion depth override")
    p.add_argument("--seed", type=int, default=None, help="recorded in provenance")
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("reason", help="solve a graph document and emit the outcome")
    p.add_argument("graph", help="graph document path")
    p.add_argument("-o", "--output", help="outcome document output path")
    p.add_argument("--ablate", action="append", choices=sorted(ABLATABLE), default=[])
    p.add_argument("--export-dot", help="also write a DOT rendering of the outcome")
    p.set_defaults(func=_cmd_reason)

    p = sub.add_parser("resolve", help="interactively pin beliefs to resolve conflicts")
    p.add_argument("graph", help="graph document path")
    p.add_argument("-o", "--output", help="outcome document output path")
    p.add_argument("--budget", type=int, default=DEFAULT_QUERY_BUDGET, help="max user queries")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("export-dot", help="render a graph document as DOT")
    p.add_argument("graph", help="graph document path")
    p.add_argument("-o", "--output", help="DOT output path (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverLimitError as exc:
        print(f"input error: graph exceeds the solver's limits: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstructionError, OracleTransportError, OracleDecodeError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ReasoningError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """Process entry point: the ``belief-graph`` script and ``python -m
    beliefgraph.cli``.

    It freezes the objects made by the imports, which live until exit
    anyway, so the collections at interpreter shutdown skip them.  The
    freeze comes before the command runs: whatever the command leaves in a
    reference cycle, an unclosed file or socket too, is still collected and
    reported at exit.  `main` itself changes no process-wide state.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
