"""Run one workload N times and print each end-to-end metric's spread.

    python3 perfbench/steady.py --workload live_ingest --runs 10

Seeds 1..N each run once for ``run_seconds`` of ``BENCHMARK.json``, then
seed 1 runs again so the work-repeat check compares two runs of the same
inputs. For
every end-to-end metric the table shows the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (the
quartile distance as a share of the median) and the metric's bound from
``BENCHMARK.json``. Exits 1 if any run failed, printed a wrong answer or
varied its failed share, or if a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1)) + [1]
    values: dict[str, list[float]] = {}
    shares, ok = set(), True
    for i, seed in enumerate(seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        shares.add((result["failed"], result["attempted"]))
        if not result["correct"]:
            print(f"seed {seed}: wrong answers\n{proc.stderr}", file=sys.stderr)
        if i < args.runs:  # the repeat run only checks the work counts
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
    if len({f / a for f, a in shares}) != 1:
        print(f"failed share varies between runs: {sorted(shares)}", file=sys.stderr)
        ok = False
    print(f"{args.workload}: {args.runs} runs of {seconds} s, seeds {seeds[:-1]}, "
          f"failed/attempted {sorted(shares)}")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, q2, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / q2
        flag = ""
        if spread > metric["bound"]:
            flag, ok = "  over bound", False
        print(f"{name:<18}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}"
              f"{metric['bound']:>8.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
