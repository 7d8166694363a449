"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]

Runs the benchmark once per seed and workload, one run at a time, for the
configured `run_seconds`, cycling through the workloads for each seed so
that a slow spell of the machine touches every workload a little rather
than one workload a lot.  Reports for each workload and metric the median
of the runs and the distance between their first and third quartiles as a
share of the median.  A metric is steady when that spread is below a third
of its bound.  Seeds change the inputs, so the spread covers both the
machine's noise and the workload's variation between input sets.  Results
also go to .perfbench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for seed in args.seeds:
        for workload in names:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for name, series in values[workload].items():
                series.append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values[workload].items()), flush=True)

    rows = []
    print(f"{'workload':<12} {'metric':<16} {'median':>9} {'q1':>9} {'q3':>9} "
          f"{'spread':>6} {'bound':>5}")
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread < bound / 3
                       else "within bound" if spread <= bound else "OVER")
            rows.append({"workload": workload, "metric": name, "median": median, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bound, "verdict": verdict,
                         "values": values[workload][name]})
            print(f"{workload:<12} {name:<16} {median:>9.4g} {q1:>9.4g} {q3:>9.4g} "
                  f"{spread:>6.3f} {bound:>5}  {verdict}")
    out = ROOT / ".perfbench_out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
