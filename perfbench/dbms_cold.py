"""``dbms_cold``: T-Hop and T-Base stored procedures over MiniDB.

One closed-loop client calls both procedures on every drawn query, each
call starting from an empty buffer pool (``cold=True``), as in Tables
IV-VI. The pool holds 64 pages, far fewer than the table and its index
table. The queries walk the sweeps of Table IV (tau from 10% to 50% at
|I|=50%) and Table V (|I| from 10% to 50% at tau=10%) with k=10; the seed
draws the preferences and where each interval lies. The data are
per-36-minute NBA-like rates (d=2), which do not tie.

On tied scores the T-Hop procedure can miss a durable record (see
:func:`_tie_probe`); such misses would depend on the seed, so the seeded
stream runs on tie-free data, and every run ends with one fixed tie case
that T-Hop fails each time, counted in ``failed``.
"""

from __future__ import annotations

import time

import numpy as np
from repro.core.record import Dataset
from repro.minidb import MiniDB, t_base_procedure, t_hop_procedure

from perfbench import inputs, oracle
from perfbench.common import Measured, Slicer, peak_rss_mb, pct

N = 10_000
K = 10
BUFFER_PAGES = 64
#: (tau fraction, |I| fraction) of one round: Table IV, then Table V.
ROUND = tuple((t, 0.5) for t in (0.1, 0.2, 0.3, 0.4, 0.5)) + tuple(
    (0.1, i) for i in (0.1, 0.2, 0.3, 0.4, 0.5)
)
#: Rounds per second of --seconds.
ROUNDS_PER_SECOND = 3.0
PROCEDURES = {"t-hop": t_hop_procedure, "t-base": t_base_procedure}
#: Set-ups per run: a set-up takes well under 0.1 s, so more of them
#: are needed for a steady median.
SETUPS = 25


class State:
    def __init__(self, seed: int, seconds: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.values = inputs.nba_rates(rng, N)
        self.queries = []
        for _ in range(max(1, round(seconds * ROUNDS_PER_SECOND))):
            for i in rng.permutation(len(ROUND)):
                tau_frac, interval_frac = ROUND[i]
                length = int(N * interval_frac)
                lo = int(rng.integers(0, N - length + 1))
                weights = inputs.preference(rng, 2)
                self.queries.append((weights, int(N * tau_frac), lo, lo + length - 1))
        self.db = MiniDB(Dataset(self.values), buffer_pages=BUFFER_PAGES)
        # Warm-up: both procedures once on a fixed Table IV query.
        for procedure in PROCEDURES.values():
            procedure(self.db, np.array([0.5, 0.5]), K, N // 10, N // 2, N - 1, cold=True)

    def close(self) -> None:
        self.db.close()


def setup(seed: int, seconds: int) -> State:
    return State(seed, seconds)


#: A fixed tie case, independent of --seed: box scores drawn with seed 7,
#: where T-Hop misses record 2048 (9 records beat it, one earlier record
#: ties it, k=10), which T-Base and the oracle report.
TIE_PROBE = {"seed": 7, "weights": (0.2160058011426144, 0.7839941988573856),
             "tau": 4000, "lo": 442, "hi": 5441}


def _tie_probe() -> list[str]:
    """Run both procedures on :data:`TIE_PROBE`; one message per wrong answer."""
    p = TIE_PROBE
    values = inputs.nba_like(np.random.default_rng([p["seed"], 4]), N)
    wrong = []
    with MiniDB(Dataset(values), buffer_pages=BUFFER_PAGES) as db:
        for name, procedure in PROCEDURES.items():
            report = procedure(
                db, np.array(p["weights"]), K, p["tau"], p["lo"], p["hi"], cold=True
            )
            problem = oracle.check_answer(
                values, p["weights"], K, p["tau"], p["lo"], p["hi"], oracle.PAST, report.ids
            )
            if problem:
                wrong.append(f"tie probe ({name}): {problem}")
    return wrong


def measure(state: State, tracer) -> Measured:
    db, reports, latencies = state.db, [], []
    slicer = Slicer(len(state.queries) * len(PROCEDURES), tracer)
    for i, (weights, tau, lo, hi) in enumerate(state.queries):
        u = np.array(weights)
        for name, procedure in PROCEDURES.items():
            start = time.perf_counter()
            root = tracer.begin("query", "unattributed", request=i)
            span = tracer.begin(f"minidb.{name}", "minidb", root, i)
            report = procedure(db, u, K, tau, lo, hi, cold=True)
            tracer.end(span)
            tracer.end(root)
            latencies.append((time.perf_counter() - start) * 1e3)
            reports.append((name, report))
            slicer.tick(len(reports))
    rss = peak_rss_mb()

    wrong, failed = [], 0
    for i, (weights, tau, lo, hi) in enumerate(state.queries):
        (_, hop), (_, base) = reports[2 * i], reports[2 * i + 1]
        if hop.ids != base.ids:
            wrong.append(f"query {i}: T-Hop and T-Base disagree")
        expected = oracle.durable_ids(state.values, weights, K, tau, lo, hi)
        for name, report in (("t-hop", hop), ("t-base", base)):
            if report.ids != expected:
                wrong.append(f"query {i} ({name}): ids differ from the oracle")
                failed += 1

    probe_failures = _tie_probe()

    count = len(reports)
    layers = {
        "minidb.logical_reads_per_query": sum(r.logical_reads for _, r in reports) / count,
        "minidb.physical_reads_per_query": sum(r.physical_reads for _, r in reports) / count,
        "minidb.topk_calls_per_query": sum(r.topk_queries for _, r in reports) / count,
    }
    for name in PROCEDURES:
        layers[f"minidb.{name}.query_ms"] = pct(
            [r.elapsed_seconds * 1e3 for n, r in reports if n == name], 50
        )
    return Measured(
        latencies_ms=latencies,
        slices=slicer.slices,
        completed=count,
        peak_rss_mb=rss,
        attempted=count + len(PROCEDURES),
        failed=failed + len(probe_failures),
        wrong=wrong,
        layers=layers,
        self_times=tracer.self_times(),
        trace_overhead=True,
        work={
            "minidb.logical_reads": sum(r.logical_reads for _, r in reports),
            "minidb.physical_reads": sum(r.physical_reads for _, r in reports),
            "minidb.topk_calls": sum(r.topk_queries for _, r in reports),
        },
    )
