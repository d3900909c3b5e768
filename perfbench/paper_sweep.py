"""``paper_sweep``: the paper's own protocol against the in-process engine.

One closed-loop client. Every query binds a fresh random preference
(``DurableTopKEngine.session``, which builds the preference-bound top-k
index) and answers one query with one of the five algorithms, taken in
turn. k, tau and |I| are drawn along the sweeps of figures 8-10 around
the Table III defaults. Look-back queries run on NBA-like integer box
scores (d=2), so scores tie often.

A fifth of the queries look ahead. On tied scores the engine answers
those with ties going to the earlier arrival, which the canonical order
does not allow, so their failures would depend on the seed; they run on
a second engine over the tie-free per-36-minute rates of the same kind
of data, where they still pay for the forward index the session binds
and for the reversed engine's index they are answered from. Every run
ends with one fixed, seed-independent look-ahead tie probe per
algorithm; those five operations fail on every run and are counted in
``failed``.
"""

from __future__ import annotations

import time

import numpy as np
import repro.core.engine as engine_module
from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery
from repro.core.record import Dataset
from repro.scoring import LinearPreference

from perfbench import inputs, oracle
from perfbench.common import Measured, Slicer, peak_rss_mb, pct

N = 10_000
#: Rounds per second of --seconds; each round is 125 queries, 25 of them
#: looking ahead (inputs.paper_round).
ROUNDS_PER_SECOND = 0.4
ALGORITHMS = ("t-base", "t-hop", "s-hop", "s-band", "s-base")


class TimedIndex:
    """Times every ``topk``/``top1`` call into the engine's top-k index."""

    def __init__(self, inner, tracer, parent, calls: list) -> None:
        self._inner = inner
        self._tracer = tracer
        self._parent = parent
        self._calls = calls

    @property
    def n(self):
        return self._inner.n

    def score(self, record_id):
        return self._inner.score(record_id)

    def top1(self, lo, hi):
        start = time.perf_counter()
        found = self._inner.top1(lo, hi)
        end = time.perf_counter()
        self._calls.append(end - start)
        self._tracer.add("index.top1", "index", start, end, self._parent)
        return found

    def topk(self, k, lo, hi):
        start = time.perf_counter()
        found = self._inner.topk(k, lo, hi)
        end = time.perf_counter()
        self._calls.append(end - start)
        self._tracer.add("index.topk", "index", start, end, self._parent)
        return found


class BuildCounter:
    """Counts the engine's calls of ``build_topk_index``, the index layer's build.

    Every preference-bound index the engine builds, the reversed
    engine's included, goes through that function. If the engine stops
    calling it under that name, the count reads 0.
    """

    def __init__(self) -> None:
        self.count = 0
        self._inner = getattr(engine_module, "build_topk_index", None)

    def _counted(self, *args, **kwargs):
        self.count += 1
        return self._inner(*args, **kwargs)

    def __enter__(self) -> "BuildCounter":
        if self._inner is not None:
            engine_module.build_topk_index = self._counted
        return self

    def __exit__(self, *exc) -> None:
        if self._inner is not None:
            engine_module.build_topk_index = self._inner


class State:
    def __init__(self, seed: int, seconds: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.values = {
            oracle.PAST: inputs.nba_like(rng, N),
            oracle.FUTURE: inputs.nba_rates(np.random.default_rng([seed, 2]), N),
        }
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
        self.stream = [
            (inputs.preference(rng, 2), shape, durations)
            for _ in range(rounds)
            for shape, durations in inputs.paper_round(rng, N, ALGORITHMS)
        ]
        self.engines = {}
        for direction, values in self.values.items():
            engine = DurableTopKEngine(Dataset(values))
            engine.prepare(["s-band"])
            # Warm-up: each algorithm once at the Table III default point.
            query = DurableTopKQuery(
                k=10, tau=N // 10, interval=(N // 4, 3 * N // 4 - 1),
                direction=Direction.FUTURE if direction == oracle.FUTURE else Direction.PAST,
            )
            for algorithm in ALGORITHMS:
                engine.session(LinearPreference([0.5, 0.5])).query(query, algorithm=algorithm)
            self.engines[direction] = engine

    def close(self) -> None:
        self.engines = None


def setup(seed: int, seconds: int) -> State:
    return State(seed, seconds)


def _future_tie_probe() -> list[str]:
    """Fixed look-ahead tie case; returns one message per wrong answer."""
    values = np.array([[3.0], [3.0], [1.0]])
    engine = DurableTopKEngine(Dataset(values))
    query = DurableTopKQuery(k=1, tau=1, interval=(0, 1), direction=Direction.FUTURE)
    wrong = []
    for algorithm in ALGORITHMS:
        result = engine.query(query, LinearPreference([1.0]), algorithm=algorithm)
        problem = oracle.check_answer(values, [1.0], 1, 1, 0, 1, oracle.FUTURE, result.ids)
        if problem:
            wrong.append(f"future tie probe ({algorithm}): {problem}")
    return wrong


def measure(state: State, tracer) -> Measured:
    latencies, builds, results, topk_time = [], [], [], []
    per_call: list[float] = []
    slicer = Slicer(len(state.stream), tracer)
    with BuildCounter() as built:
        for i, (weights, shape, durations) in enumerate(state.stream):
            engine = state.engines[shape.direction]
            start = time.perf_counter()
            root = tracer.begin("query", "unattributed", request=i)
            span = tracer.begin("index.build", "index", root, i)
            session = engine.session(LinearPreference(weights))
            tracer.end(span)
            bound = time.perf_counter()
            query = DurableTopKQuery(
                k=shape.k, tau=shape.tau, interval=(shape.lo, shape.hi),
                direction=Direction.FUTURE if shape.direction == oracle.FUTURE
                else Direction.PAST,
            )
            span = tracer.begin("engine.query", "core", root, i)
            # Look-ahead queries never read the session's index, so only
            # look-back ones get the timing wrapper.
            wrapped = tracer.enabled and shape.direction == oracle.PAST
            if wrapped:
                calls: list[float] = []
                session.index = TimedIndex(session.index, tracer, span, calls)
            result = session.query(query, algorithm=shape.algorithm, with_durations=durations)
            tracer.end(span)
            tracer.end(root)
            end = time.perf_counter()
            latencies.append((end - start) * 1e3)
            builds.append((bound - start) * 1e3)
            if wrapped:
                per_call.extend(calls)
                topk_time.append(sum(calls))
            else:
                topk_time.append(None)
            results.append(result)
            slicer.tick(i + 1)
    rss = peak_rss_mb()

    wrong = []
    for (weights, shape, durations), result in zip(state.stream, results):
        problem = oracle.check_answer(
            state.values[shape.direction], weights, shape.k, shape.tau, shape.lo, shape.hi,
            shape.direction, result.ids, result.durations if durations else None,
        )
        if problem:
            wrong.append(f"{shape}: {problem}")
    probe_failures = _future_tie_probe()

    calls_per_query = [r.stats.topk_queries for r in results]
    layers = {
        "index.build_ms": pct(builds, 50),
        "index.builds": built.count,
        "index.topk_calls_per_query": float(np.mean(calls_per_query)),
    }
    if tracer.traced:
        layers["index.topk_us"] = float(np.mean(per_call)) * 1e6 if per_call else 0.0
        for algorithm in ALGORITHMS:
            # Look-back queries through the wrapper only; elapsed_seconds
            # stops before durations are attached, so queries that asked
            # for durations are left out too.
            own = [
                (r.elapsed_seconds - t) * 1e3
                for (_, s, d), r, t in zip(state.stream, results, topk_time)
                if s.algorithm == algorithm and t is not None and not d
            ]
            layers[f"core.{algorithm}.query_ms"] = pct(own, 50)
    attempted = len(results) + len(ALGORITHMS)
    return Measured(
        latencies_ms=latencies,
        slices=slicer.slices,
        completed=len(results),
        peak_rss_mb=rss,
        attempted=attempted,
        failed=len(wrong) + len(probe_failures),
        wrong=wrong,
        layers=layers,
        self_times=tracer.self_times(),
        trace_overhead=True,
        work={
            "index.builds": built.count,
            "index.topk_calls": int(sum(calls_per_query)),
            "answers": int(sum(len(r.ids) for r in results)),
        },
    )
