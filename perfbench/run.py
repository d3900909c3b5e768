"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The workload is set up several times (``setup_s`` is the median) and then
does a fixed amount of work, set by ``--seconds`` and drawn from
``--seed``; every answer is checked apart from the program. ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``. With
``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics. A traced run records spans on every
other slice of its operations; where those spans are recorded as the
operations run, the cost per operation of those slices against the
others is the tracing overhead (otherwise it reads 0). Exits 2 when the
library under test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("paper_sweep", "dashboard_wire", "live_ingest", "dbms_cold")
#: Set-ups per run (``setup_s`` is their median); a workload may set its own.
SETUPS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the library under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.common import STATE_DIR, Tracer, check_work_repeat, pct, slice_of

    # MiniDB pages live in temp files; keep them inside the checkout.
    scratch = STATE_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    workload = importlib.import_module(f"perfbench.{args.workload}")
    setups = getattr(workload, "SETUPS", SETUPS)
    setup_times = []
    tracer = Tracer(bool(args.trace))
    for i in range(setups):
        # The previous set-up's garbage is freed before timing starts.
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(args.seed, args.seconds)
        setup_times.append(time.perf_counter() - start)
        try:
            if i == setups - 1:  # the last set-up is measured
                # Objects made by the set-up (inputs, streams, loaded data)
                # are moved out of the cyclic collector's reach, so that
                # collections during timing scan only what the timed phase
                # made.
                gc.collect()
                gc.freeze()
                result = workload.measure(state, tracer)
                gc.unfreeze()
        finally:
            state.close()
            del state
    if args.trace:
        tracer.dump(STATE_DIR / f"trace-{args.workload}-{args.seed}.jsonl")

    wrong = list(result.wrong)
    repeat = check_work_repeat(args.workload, args.seed, args.seconds, result.work)
    if repeat:
        wrong.append(repeat)
    for message in wrong[:10]:
        print(f"WRONG: {message}", file=sys.stderr)

    lat = result.latencies_ms
    parts = [[] for _ in result.slices]
    for i, value in enumerate(lat):
        parts[slice_of(i, len(lat))].append(value)
    # Cost per op of each slice: CPU where the serving process is this
    # one, else wall time.
    cost = [(c if c is not None else w) / len(p) for p, (w, c) in zip(parts, result.slices)]
    if args.trace:
        units = _units()
        layers = {name: 0.0 for name in units}
        layers.update(result.layers)
        traced = sum(len(p) for s, p in enumerate(parts) if s % 2)
        for layer, seconds in result.self_times.items():
            layers[f"self.{layer}_ms"] = seconds * 1e3 / traced
        if result.trace_overhead:
            on = statistics.median(cost[1::2])
            off = statistics.median(cost[0::2])
            layers["trace.overhead_pct"] = (on / off - 1) * 100.0
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in units.items()}
    else:
        # p50, capacity and CPU are medians over the slices of the run. p99
        # is too, where every slice holds 1000 operations, so that ten lie
        # beyond it; otherwise it is taken over the whole run.
        if min(len(p) for p in parts) >= 1000:
            p99 = statistics.median(pct(p, 99) for p in parts)
        else:
            p99 = pct(lat, 99)
        cpu_ms = [c / len(p) * 1e3 for p, (_, c) in zip(parts, result.slices) if c is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "p50_ms": {"value": statistics.median(pct(p, 50) for p in parts), "unit": "ms"},
            "p99_ms": {"value": p99, "unit": "ms"},
            "capacity_qps": {
                "value": statistics.median(len(p) / w for p, (w, _) in zip(parts, result.slices)),
                "unit": "query/s",
            },
            "cpu_ms_per_query": {
                "value": statistics.median(cpu_ms) if cpu_ms
                else result.cpu_seconds / result.completed * 1e3,
                "unit": "ms",
            },
            "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict[str, str]:
    """Name and unit of every per-layer metric, from ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in _spec()["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
