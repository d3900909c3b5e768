"""Shared measurement helpers: run slices, spans, percentiles, work records."""

from __future__ import annotations

import json
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Measured",
    "ROOT",
    "SLICES",
    "Slicer",
    "slice_of",
    "traced_op",
    "STATE_DIR",
    "Tracer",
    "check_work_repeat",
    "peak_rss_mb",
    "pct",
]

ROOT = Path(__file__).resolve().parent.parent
#: Consecutive equal shares of a run's operations that figures are taken over.
SLICES = 5
#: Scratch space of the benchmark inside the checkout (temp files, traces,
#: the work-repeat records).
STATE_DIR = ROOT / ".perfbench"


@dataclass
class Measured:
    """What one timed pass of a workload produced.

    ``latencies_ms`` are the timed operations behind ``p50_ms``/``p99_ms``,
    in the order they were sent (completed, where several clients send);
    ``slices`` holds ``(wall seconds, CPU
    seconds or None)`` for the :data:`SLICES` equal consecutive shares of
    them (see :class:`Slicer`). ``cpu_seconds`` covers the whole timed
    phase, for a serving process whose slices carry no CPU time;
    ``failed`` counts rejections and wrong answers among ``attempted``, and
    ``wrong`` describes every wrong answer that is not a known, expected
    failure. ``layers`` holds the per-layer figures and ``work`` the
    counts that must repeat exactly for a given seed.
    """

    latencies_ms: list
    slices: list
    completed: int
    peak_rss_mb: float
    attempted: int
    failed: int
    wrong: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    #: Seconds of self time per layer over the traced slices.
    self_times: dict = field(default_factory=dict)
    #: Whether the traced slices record their spans while they run, so
    #: that their cost against the untraced slices is the tracing overhead.
    trace_overhead: bool = False
    cpu_seconds: float | None = None


def slice_of(index: int, total: int) -> int:
    """Which of the :data:`SLICES` equal consecutive shares op ``index`` is in."""
    return index * SLICES // total


def traced_op(index: int, total: int) -> bool:
    """Whether op ``index`` runs traced in a traced run (odd slices)."""
    return slice_of(index, total) % 2 == 1


class Slicer:
    """Wall and CPU time of equal consecutive shares of a closed loop.

    A run reports the median over its slices, so a burst of host noise
    that slows one part of the run moves the figures less than it moves
    a whole-run total. In a traced run the slices alternate between
    tracing off and on (see :func:`traced_op`), so the two halves see the
    same drift of host speed and their difference is the tracing
    overhead. Call :meth:`tick` after each operation.
    """

    def __init__(self, total: int, tracer: "Tracer") -> None:
        self.total = total
        self.tracer = tracer
        self.marks = [(time.perf_counter(), time.process_time())]
        tracer.enabled = tracer.traced and traced_op(0, total)

    def tick(self, done: int) -> None:
        if done == self.total or slice_of(done, self.total) != slice_of(done - 1, self.total):
            self.marks.append((time.perf_counter(), time.process_time()))
        if done < self.total:
            self.tracer.enabled = self.tracer.traced and traced_op(done, self.total)

    @property
    def slices(self) -> list[tuple[float, float]]:
        """``(wall seconds, CPU seconds of this process)`` per slice."""
        return [(w1 - w0, c1 - c0) for (w0, c0), (w1, c1) in zip(self.marks, self.marks[1:])]


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_work_repeat(workload: str, seed: int, seconds: int, counts: dict) -> str | None:
    """Compare this run's work counts with an earlier run of the same inputs.

    The first run of a ``(workload, seed, seconds)`` records its counts
    under :data:`STATE_DIR`; every later run must reproduce them exactly,
    since a different count means the runs did different work. Returns a
    description of the mismatch, or ``None``.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"work-{workload}-{seed}-{seconds}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = {k: (before.get(k), counts.get(k)) for k in set(before) | set(counts)
                    if before.get(k) != counts.get(k)}
            return f"work counts differ from an earlier run with seed {seed}: {diff}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


class Tracer:
    """Spans recorded by the benchmark around its calls into each layer.

    A span is ``[name, layer, start, end, parent, request]``; ``parent``
    is the index of the enclosing span. Spans stay in memory and are
    written out by :meth:`dump` at the end of the run. A disabled tracer
    records nothing and costs one attribute test per call. Spans may be
    recorded from several threads.
    """

    def __init__(self, traced: bool) -> None:
        #: Whether this run is traced at all; ``enabled`` says whether
        #: spans are being recorded right now.
        self.traced = traced
        self.enabled = traced
        self.spans: list[list] = []
        self._lock = threading.Lock()

    def _record(self, span: list) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def begin(self, name: str, layer: str, parent: int | None = None, request=None):
        if not self.enabled:
            return None
        return self._record([name, layer, time.perf_counter(), None, parent, request])

    def end(self, span: int | None) -> None:
        if span is not None:
            self.spans[span][3] = time.perf_counter()

    def add(self, name, layer, start, end, parent=None, request=None):
        """Record a span whose bounds were measured elsewhere."""
        if not self.enabled:
            return None
        return self._record([name, layer, start, end, parent, request])

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's time minus what its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                continue
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(i, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[layer] = out.get(layer, 0.0) + max(0.0, end - start - covered)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, layer, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, layer, start, end, parent, request]) + "\n")
