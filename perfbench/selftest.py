"""Fast self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
- every metric BENCHMARK.json names is reported, with its unit, for
  every workload, traced and untraced;
- a stub server answering HTTP 500 to some requests gives failures that
  are counted, not a crash;
- two runs on one seed repeat the counted metrics and outputs_sha256;
- the benchmark refuses to run, with a non-zero exit and no result
  line, in a directory without beliefgraph's sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
COUNTED = ("maxsat.nodes", "oracle_client.queries", "oracle_client.transport_calls",
           "construction.statements")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Sizes

    tiny = Sizes(acceptance_graphs=6, acceptance_prefix=4, cli_graphs=2, cli_prefix=2,
                 oracle_questions=3, oracle_vocabulary=20, cli_startups=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            problems.append(message)

    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "every workload BENCHMARK.json lists is implemented")
    for name in WORKLOADS:
        for trace in (0, 1):
            runs = [run.run(name, 7, 0.3, bool(trace), tiny) for _ in range(2)]
            for result, report in runs:
                reported = {k: v["unit"] for k, v in result["metrics"].items()}
                printed = all(
                    any(line.split()[:1] == [k] and line.split()[2] == unit for line in report)
                    for k, unit in reported.items()
                )
                numbers = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                              for v in result["metrics"].values())
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace}: all output checks pass")
                expect(reported == wanted[trace] and printed and numbers,
                       f"{name} trace={trace}: every named metric, with its unit")
            (first, _), (second, _) = runs
            expect(first["outputs_sha256"] == second["outputs_sha256"],
                   f"{name} trace={trace}: outputs_sha256 repeats on one seed")
            if trace:
                differ = [m for m in COUNTED
                          if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
                expect(not differ, f"{name}: counted metrics repeat on one seed {differ or ''}")

    result, report = run.run("oracle-cold", 7, 0.3, False, tiny, fail_ratio=0.2)
    expect(result["failed"] > 0 and not result["correct"],
           f"HTTP 500s are counted as failures ({result['failed']} of {result['attempted']})")
    expect(any("OracleTransportError" in line or "ConstructionError" in line for line in report),
           "the report names the failures")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"refuses to run without sources (exit {proc.returncode})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
