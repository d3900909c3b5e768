"""The serving process of the ``dashboard_wire`` workload.

    python3 perfbench/wire_server.py <seed> <cpu>

Keeps to CPU ``cpu``, builds the dataset from the seed, serves it
through the gateway on an OS-assigned localhost port and prints
``{"port": ...}``. Then it answers
one command per line on stdin with one JSON line on stdout: ``mark``
reports this process's CPU seconds, peak RSS and service counters;
``stop`` does the same, drains the gateway and exits.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    # Before any thread starts, so that every thread inherits it.
    os.sched_setaffinity(0, {int(sys.argv[2])})
    from repro.cache import SemanticAnswerCache
    from repro.core.engine import DurableTopKEngine
    from repro.core.query import Direction, DurableTopKQuery
    from repro.core.record import Dataset
    from repro.gateway import DurableTopKGateway, Tenant
    from repro.obs import MetricsRegistry
    from repro.scoring import LinearPreference
    from repro.service import DurableTopKService, EngineBackend
    from repro.service.metrics import MetricsCollector

    from perfbench.dashboard_wire import D, KEY, dataset

    engine = DurableTopKEngine(Dataset(dataset(int(sys.argv[1]))))
    # Build the look-ahead (reversed) engine before serving.
    engine.query(DurableTopKQuery(k=1, tau=1, interval=(0, 1), direction=Direction.FUTURE),
                 LinearPreference([1.0] * D))
    cache = SemanticAnswerCache(registry=MetricsRegistry())
    service = DurableTopKService(
        EngineBackend(engine), workers=2, max_queue=1 << 20,
        metrics=MetricsCollector(), cache=cache,
    )
    tenant = Tenant("bench", rate=1e9, burst=1e9, max_inflight=1 << 20)
    gateway = DurableTopKGateway(service, {KEY: tenant}, registry=MetricsRegistry()).start()
    print(json.dumps({"port": gateway.port}), flush=True)

    def report() -> str:
        snap = service.metrics.snapshot()
        return json.dumps({
            "cpu": time.process_time(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "metrics": {
                "pool_misses": snap.pool_misses,
                "pool_hit_rate": snap.pool_hit_rate,
                "mean_batch_size": snap.mean_batch_size,
                "coalesced": snap.coalesced,
                "cache_bytes": cache.stats()["bytes"],
            },
        })

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                print(report(), flush=True)
            elif command == "stop":
                print(report(), flush=True)
                break
    finally:
        gateway.close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
