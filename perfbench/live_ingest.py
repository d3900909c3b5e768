"""``live_ingest``: reads beside scheduled appends.

An in-process ``DurableTopKService`` serves a ``LiveDataset`` through
``LiveBackend`` with the semantic answer cache on. One closed-loop client
sends the query stream and, on a fixed schedule between its queries,
appends a row batch; it seals the tail and compacts segments at fixed
points of that schedule, so the counts of seals and compactions repeat
exactly. A batch of 20 rows lands after every second query and every
append moves the epoch, so the answer cache fills but seldom hits, and
pooled sessions rebind their stitched indexes. Each query's interval
straddles the end of the initially loaded rows, so its answer changes as
the first appended rows land and its look-ahead windows reach into them;
each answer is checked against the oracle on the first
``extra["snapshot_n"]`` rows it saw.
"""

from __future__ import annotations

import os
import time

import numpy as np
from repro.cache import SemanticAnswerCache
from repro.core.query import Direction
from repro.ingest import LiveDataset
from repro.obs import MetricsRegistry
from repro.scoring import LinearPreference
from repro.service import DurableTopKService, LiveBackend, QueryRequest
from repro.service.metrics import MetricsCollector

from perfbench import inputs, oracle
from perfbench.common import Measured, Slicer, peak_rss_mb, pct, traced_op

D = 3
INITIAL_ROWS = 20_000
SEAL_ROWS = 2_000
COMPACT_FANOUT = 4
APPEND_BATCH = 20
#: Append batches per second of --seconds; batch j lands once the client
#: has completed j times REQUESTS_PER_SECOND / APPENDS_PER_SECOND queries.
APPENDS_PER_SECOND = 50
PREFERENCES = 64
#: Ranges of tau and of the interval's half-width around the end of the
#: initial load; each request takes a point of each (see :func:`shape`).
TAU_RANGE = (100, 1_000)
HALF_WIDTH_RANGE = (250, 1_000)
ZIPF_EXPONENT = 0.8
#: Requests per second of --seconds, from one closed-loop client.
REQUESTS_PER_SECOND = 100
#: Set-ups per run: a set-up takes well under 0.1 s, so more of them
#: are needed for a steady median.
SETUPS = 40


def _shape(i: int) -> inputs.Shape:
    """The shape of request ``i``, the same for every seed and preference.

    k, the algorithm and the direction cycle with period 8: k=5 and 10,
    t-hop and t-base, and look-ahead on two of the eight, both t-hop.
    tau and the half-width spread log-evenly over their ranges along
    golden-ratio and sqrt(2) sequences, so every stretch of the stream
    covers both ranges evenly and the latencies form one continuous
    distribution rather than a cluster per fixed shape.
    """
    j = i % 8
    lo_tau, hi_tau = TAU_RANGE
    lo_half, hi_half = HALF_WIDTH_RANGE
    tau = round(lo_tau * (hi_tau / lo_tau) ** (i * 0.6180339887498949 % 1.0))
    half = round(lo_half * (hi_half / lo_half) ** (i * 0.41421356237309515 % 1.0))
    return inputs.Shape(
        k=(5, 10)[j & 1],
        tau=tau,
        lo=INITIAL_ROWS - half,
        hi=INITIAL_ROWS + half - 1,
        direction="future" if j in (1, 4) else "past",
        algorithm=("t-hop", "t-base")[(j >> 1) & 1],
    )


class State:
    def __init__(self, seed: int, seconds: int) -> None:
        # The client and a worker thread of the service hand off twice per
        # query. Kept on one CPU (the workers inherit this thread's
        # affinity), each hand-off is a switch on that CPU instead of a
        # wake-up of the other virtual CPU, which a shared host may have
        # descheduled. One query runs at a time, so no parallelism is lost.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = np.random.default_rng([seed, 3])
        batches = max(1, seconds * APPENDS_PER_SECOND)
        self.values = inputs.network_like(rng, INITIAL_ROWS + batches * APPEND_BATCH, D)
        self.batches = batches
        requests = REQUESTS_PER_SECOND * seconds

        prefs = [inputs.preference(rng, D) for _ in range(PREFERENCES)]
        picks = inputs.zipf_choice(rng, PREFERENCES, ZIPF_EXPONENT, requests)
        scorers = [LinearPreference(list(w)) for w in prefs]
        self.stream = []
        for i, p in enumerate(picks):
            shape = _shape(i)
            direction = Direction.FUTURE if shape.direction == "future" else Direction.PAST
            request = QueryRequest(
                scorer=scorers[p], k=shape.k, tau=shape.tau, interval=(shape.lo, shape.hi),
                direction=direction, algorithm=shape.algorithm,
            )
            self.stream.append((prefs[p], shape, request))

        self.live = LiveDataset(D, seal_rows=SEAL_ROWS, compact_fanout=COMPACT_FANOUT)
        self.live.extend(self.values[:INITIAL_ROWS])
        self.live.seal()
        self.cache = SemanticAnswerCache(registry=MetricsRegistry())
        self.service = DurableTopKService(
            LiveBackend(self.live), workers=2, max_queue=1 << 20,
            metrics=MetricsCollector(), cache=self.cache,
        )
        # Warm-up: every algorithm and direction once, off the stream.
        for algorithm in ("t-hop", "t-base"):
            for direction in (Direction.PAST, Direction.FUTURE):
                self.service.query(QueryRequest(
                    scorer=LinearPreference([1.0] * D), k=5, tau=100,
                    interval=(0, 1_000), direction=direction, algorithm=algorithm,
                ))
        self.service.metrics.reset()

    def close(self) -> None:
        self.service.close()


def setup(seed: int, seconds: int) -> State:
    return State(seed, seconds)


def _append(state: State, batch: int, tracer, timings: dict) -> None:
    """Append row batch ``batch``; seal and compact at the fixed points."""
    live = state.live
    rows = INITIAL_ROWS + batch * APPEND_BATCH
    t0 = time.perf_counter()
    live.extend(state.values[rows : rows + APPEND_BATCH])
    t1 = time.perf_counter()
    tracer.add("ingest.append", "ingest", t0, t1)
    timings["append"].append((t1 - t0) * 1e3)
    if (batch + 1) * APPEND_BATCH % SEAL_ROWS == 0:
        t0 = time.perf_counter()
        live.seal()
        t1 = time.perf_counter()
        live.compact()
        t2 = time.perf_counter()
        tracer.add("ingest.seal", "ingest", t0, t1)
        tracer.add("ingest.compact", "ingest", t1, t2)
        timings["seal"].append((t1 - t0) * 1e3)
        timings["compact"].append((t2 - t1) * 1e3)


def measure(state: State, tracer) -> Measured:
    service, stream = state.service, state.stream
    seals0, compactions0 = state.live.seals, state.live.compactions
    timings = {"append": [], "seal": [], "compact": []}
    responses, sent, done = [], [], []
    step = len(stream) // state.batches
    slicer = Slicer(len(stream), tracer)
    for i, (_, _, request) in enumerate(stream):
        sent.append(time.perf_counter())
        responses.append(service.query(request))
        done.append(time.perf_counter())
        if (i + 1) % step == 0 and (i + 1) // step <= state.batches:
            _append(state, (i + 1) // step - 1, tracer, timings)
        slicer.tick(i + 1)
    rss = peak_rss_mb()
    snapshot = service.metrics.snapshot()

    tracer.enabled = tracer.traced  # spans below are rebuilt after timing
    wrong, failed, memo = [], 0, {}
    for i, ((weights, shape, _), response) in enumerate(zip(stream, responses)):
        if not response.ok:
            failed += 1
            continue
        result = response.result
        n = int(result.extra["snapshot_n"])
        if tracer.traced and traced_op(i, len(stream)):
            # Reconstructed from the fields the service returns.
            end = done[i]
            root = tracer.add("request", "unattributed", sent[i], end, None, i)
            total = response.total_seconds
            s = tracer.add("service", "service", end - total, end, root, i)
            tracer.add("engine", "core", end - result.elapsed_seconds, end, s, i)
        key = (weights, shape, n)
        if key not in memo:
            memo[key] = oracle.durable_ids(
                state.values[:n], weights, shape.k, shape.tau, shape.lo, shape.hi,
                shape.direction,
            )
        if list(result.ids) != memo[key]:
            wrong.append(f"request {i} {shape} at n={n}: ids differ from the oracle")
            failed += 1

    answered = [r for r in responses if r.ok]
    misses = [r for r in answered if r.extra.get("cache") is None]
    layers = {
        "core.engine_ms": pct([r.result.elapsed_seconds * 1e3 for r in misses], 50),
        "service.overhead_p50_ms": pct(
            [(r.total_seconds - r.result.elapsed_seconds) * 1e3 for r in misses], 50),
        "service.overhead_p99_ms": pct(
            [(r.total_seconds - r.result.elapsed_seconds) * 1e3 for r in misses], 99),
        "service.queue_wait_ms": pct([r.wait_seconds * 1e3 for r in answered], 99),
        "service.batch_size": snapshot.mean_batch_size,
        "service.pool_hit_rate": snapshot.pool_hit_rate,
        "service.coalesced": snapshot.coalesced,
        "cache.hit_rate": sum(r.extra.get("cache") == "exact" for r in answered)
        / max(1, len(answered)),
        "cache.bytes": state.cache.stats()["bytes"],
        "ingest.append_ms": pct(timings["append"], 99),
        "ingest.seal_ms": sum(timings["seal"]),
        "ingest.compact_ms": sum(timings["compact"]),
        "ingest.seals": state.live.seals - seals0,
        "ingest.compactions": state.live.compactions - compactions0,
        "ingest.rows": state.live.n - INITIAL_ROWS,
        "ingest.staleness_rows": pct(
            [r.result.extra.get("staleness_rows", 0) for r in answered], 50),
    }
    return Measured(
        latencies_ms=[(b - a) * 1e3 for a, b in zip(sent, done)],
        slices=slicer.slices,
        completed=len(answered),
        peak_rss_mb=rss,
        attempted=len(stream),
        failed=failed,
        wrong=wrong,
        layers=layers,
        self_times=tracer.self_times(),
        work={
            "ingest.rows": layers["ingest.rows"],
            "ingest.seals": layers["ingest.seals"],
            "ingest.compactions": layers["ingest.compactions"],
            "requests": len(stream),
        },
    )
