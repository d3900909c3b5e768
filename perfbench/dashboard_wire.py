"""``dashboard_wire``: Zipf-hot dashboard traffic through the TCP gateway.

A child process serves ``DurableTopKGateway`` in front of a
``DurableTopKService`` over an ``EngineBackend`` with the answer cache
on, so the load generator does not share its interpreter lock. This
process drives one closed-loop connection: it sends its next request
when its previous answer arrives. Preferences are
Zipf-hot over a catalogue, and each preference has its own catalogue of
query shapes. A share of the requests carries a catalogue preference
scaled by a power of two, which cannot change any answer: those must
return exactly the ids of the unscaled preference. The warm-up caches
every catalogue answer, and one request in FRESH_EVERY carries a
preference never seen before, so the timed phase is a steady mix of
cache hits and full misses."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import numpy as np
from repro.core.query import Direction
from repro.gateway import FrameDecoder, encode_frame, request_to_wire
from repro.scoring import LinearPreference
from repro.service import QueryRequest

from perfbench import inputs, oracle
from perfbench.common import ROOT, SLICES, Measured, pct, slice_of, traced_op

N = 10_000
D = 3
PREFERENCES = 32
SHAPES_PER_PREFERENCE = 6
#: The look-ahead shape among each preference's six.
FUTURE_SHAPE = 5
ZIPF_EXPONENT = 1.1
#: Every RESCALE_EVERY-th request scales its preference by 2^e.
RESCALE_EVERY = 5
RESCALE_EXPONENTS = (-3, -2, -1, 1, 2, 3)
#: Request i with i % FRESH_EVERY == FRESH_AT carries a preference drawn
#: afresh, as from a new user: it misses the answer cache and the session
#: pool, so the service builds its index and runs the engine. Such misses
#: are 4% of the stream, so p99 lies among them.
FRESH_EVERY = 25
FRESH_AT = 12
#: Requests per second of --seconds.
REQUESTS_PER_SECOND = 1000
KEY = "perfbench-key"
#: Set-ups per run: each one starts a serving process and warms it.
SETUPS = 3


def dataset(seed: int) -> np.ndarray:
    """The served data; the child process rebuilds it from the same seed."""
    return inputs.network_like(np.random.default_rng([seed, 5]), N, D)


class State:
    def __init__(self, seed: int, seconds: int) -> None:
        self.values = dataset(seed)
        rng = np.random.default_rng([seed, 6])
        prefs = [inputs.preference(rng, D) for _ in range(PREFERENCES)]
        # Every preference gets the same shape set (only where its
        # intervals lie is drawn), so the cost of the mix does not hang on
        # which preferences the seed makes hot.
        shapes = []
        for _ in range(PREFERENCES):
            own = []
            for j in range(SHAPES_PER_PREFERENCE):
                length = (1_000, 4_000)[(j >> 1) & 1]
                lo = int(rng.integers(0, N - length + 1))
                own.append(inputs.Shape(
                    k=(5, 10)[j & 1],
                    tau=(500, 2_000)[(j >> 2) & 1],
                    lo=lo,
                    hi=lo + length - 1,
                    direction="future" if j == FUTURE_SHAPE else "past",
                    algorithm=("s-hop", "t-hop")[(j ^ (j >> 1)) & 1],
                ))
            shapes.append(own)
        self.requests, self.frames = self._draw(
            rng, prefs, shapes, REQUESTS_PER_SECOND * seconds
        )
        # The warm-up sends the first request of every distinct catalogue
        # (preference, scale, shape) of the timed stream, so that in the
        # timed phase only the fresh preferences miss the cache, evenly
        # from the first request to the last.
        first = {}
        for (p, s, scale, _, _), frame in zip(self.requests, self.frames):
            if p is not None:
                first.setdefault((p, s, scale), frame)
        self.warmup = list(first.values())
        # The load generator and the server each keep to one CPU of their
        # own, so the server's hand-offs between its event loop and its
        # workers stay on its CPU instead of waking the other virtual CPU,
        # which a shared host may have descheduled.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        self.server = _Server(seed, cpus[-1])

    @staticmethod
    def _draw(rng, prefs, shapes, total):
        """``total`` requests of the stream and their encoded frames."""
        picks = inputs.zipf_choice(rng, PREFERENCES, ZIPF_EXPONENT, total)
        # Shapes in turn, so every run holds each shape equally often.
        which = np.arange(total) % SHAPES_PER_PREFERENCE
        rescaled = np.arange(total) % RESCALE_EVERY == RESCALE_EVERY - 1
        # The rescaled requests take the exponents in turn.
        factors = 2.0 ** np.resize(RESCALE_EXPONENTS, total // RESCALE_EVERY + 1)
        requests, frames = [], []
        for i in range(total):
            p, s = int(picks[i]), int(which[i])
            # A fresh preference takes the shape its pick would have had.
            shape = shapes[p][s]
            scale = float(factors[i // RESCALE_EVERY]) if rescaled[i] else 1.0
            base = prefs[p]
            if i % FRESH_EVERY == FRESH_AT:
                p, base = None, inputs.preference(rng, D)
            weights = tuple(w * scale for w in base)
            request = QueryRequest(
                scorer=LinearPreference(list(weights)), k=shape.k, tau=shape.tau,
                interval=(shape.lo, shape.hi),
                direction=Direction.FUTURE if shape.direction == "future" else Direction.PAST,
                algorithm=shape.algorithm,
            )
            requests.append((p, s, scale, base, shape))
            frames.append(encode_frame(request_to_wire(request, id=i)))
        return requests, frames

    def close(self) -> None:
        self.server.stop()


class _Server:
    """The serving child process, driven by one command per line."""

    def __init__(self, seed: int, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "wire_server.py"), str(seed), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        self.port = int(self._reply()["port"])

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"wire server exited with code {self.proc.returncode}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.command("stop")
            finally:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
        self.proc.stdout.close()


def setup(seed: int, seconds: int) -> State:
    state = State(seed, seconds)
    try:
        # Warm-up, sent the same way as the timed stream: afterwards every
        # timed request is a cache hit, so the figures do not hang on where
        # in the run the first requests of each key fall.
        _drive(state.server.port, state.warmup)
    except BaseException:
        state.close()
        raise
    return state


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(encode_frame({"op": "auth", "key": KEY}))
    decoder, frames = FrameDecoder(), []
    while not frames:
        data = sock.recv(1 << 16)
        if not data:
            raise RuntimeError("gateway closed the connection during auth")
        frames = decoder.feed(data)
    if frames[0].get("op") != "hello":
        raise RuntimeError(f"gateway refused auth: {frames[0]}")
    return sock


def _drive(port: int, frames: list[bytes]):
    """Send ``frames`` over one closed-loop connection: each request goes
    out when the previous answer has arrived. Returns the send and answer
    times, the answers and the bytes ``[sent, received]``."""
    total = len(frames)
    sent, done, answers = [0.0] * total, [0.0] * total, [None] * total
    counts = [0, 0]
    decoder = FrameDecoder()
    with _connect(port) as sock:
        for i, frame in enumerate(frames):
            sent[i] = time.perf_counter()
            sock.sendall(frame)
            counts[0] += len(frame)
            got: list[dict] = []
            while not got:
                data = sock.recv(1 << 16)
                if not data:
                    raise RuntimeError("gateway closed the connection")
                counts[1] += len(data)
                got = decoder.feed(data)
            done[i] = time.perf_counter()
            answers[i] = got[0]
    return sent, done, answers, counts


def measure(state: State, tracer) -> Measured:
    total = len(state.frames)
    before = state.server.command("mark")
    sent, done, answers, counts = _drive(state.server.port, state.frames)
    after = state.server.command("mark")

    wrong, failed, memo = [], 0, {}
    for i, frame in enumerate(answers):
        p, s, scale, weights, shape = state.requests[i]
        if not frame.get("ok"):
            failed += 1
            continue
        if (weights, shape) not in memo:
            memo[(weights, shape)] = oracle.durable_ids(
                state.values, weights, shape.k, shape.tau, shape.lo, shape.hi, shape.direction
            )
        if [int(t) for t in frame["ids"]] != memo[(weights, shape)]:
            if p is None:
                kind = "fresh preference"
            else:
                kind = "rescaled preference" if scale != 1.0 else "catalogue preference"
            wrong.append(f"request {i} ({kind} {weights}, {shape}): ids differ from the oracle")
            failed += 1

    ok = [(i, f) for i, f in enumerate(answers) if f.get("ok")]
    misses = [(i, f) for i, f in ok if f.get("cache") is None]
    wire = [(done[i] - sent[i] - f["total_seconds"]) * 1e3 for i, f in ok]
    tracer.enabled = tracer.traced
    if tracer.traced:
        # Reconstructed from client stamps and the times each answer carries;
        # the wire time is split evenly between the two directions.
        for i, f in ok:
            if not traced_op(i, total):
                continue
            root = tracer.add("request", "unattributed", sent[i], done[i], None, i)
            gw = tracer.add("gateway", "gateway", sent[i], done[i], root, i)
            hop = max(0.0, (done[i] - sent[i] - f["total_seconds"]) / 2)
            svc0 = sent[i] + hop
            svc = tracer.add("service", "service", svc0, svc0 + f["total_seconds"], gw, i)
            if f.get("cache") is None:
                end = svc0 + f["total_seconds"]
                tracer.add("engine", "core", end - f["elapsed_seconds"], end, svc, i)
    server = after["metrics"]
    layers = {
        "index.builds": server["pool_misses"] - before["metrics"]["pool_misses"],
        "core.engine_ms": pct([f["elapsed_seconds"] * 1e3 for _, f in misses], 50),
        "service.overhead_p50_ms": pct(
            [(f["total_seconds"] - f["elapsed_seconds"]) * 1e3 for _, f in misses], 50),
        "service.overhead_p99_ms": pct(
            [(f["total_seconds"] - f["elapsed_seconds"]) * 1e3 for _, f in misses], 99),
        "service.queue_wait_ms": pct([f.get("wait_seconds", 0.0) * 1e3 for _, f in ok], 99),
        "service.batch_size": server["mean_batch_size"],
        "service.pool_hit_rate": server["pool_hit_rate"],
        "service.coalesced": server["coalesced"] - before["metrics"]["coalesced"],
        "cache.hit_rate": sum(f.get("cache") == "exact" for _, f in ok) / max(1, len(ok)),
        "cache.bytes": server["cache_bytes"],
        "gateway.wire_p50_ms": pct(wire, 50),
        "gateway.wire_p99_ms": pct(wire, 99),
        "gateway.bytes_per_query": sum(counts) / max(1, len(ok)),
    }
    # Slice s runs from the last answer of slice s-1 (the first send, for
    # slice 0) to its own last answer.
    ends = [0.0] * SLICES
    for i in range(total):
        ends[slice_of(i, total)] = done[i]
    return Measured(
        latencies_ms=[(b - a) * 1e3 for a, b in zip(sent, done)],
        completed=len(ok),
        peak_rss_mb=after["rss_mb"],
        attempted=total,
        failed=failed,
        wrong=wrong,
        layers=layers,
        self_times=tracer.self_times(),
        cpu_seconds=after["cpu"] - before["cpu"],
        slices=[(end - start, None) for start, end in zip([sent[0]] + ends, ends)],
        work={"requests": total, "index.builds": layers["index.builds"]},
    )
