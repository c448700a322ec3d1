"""repro.serve — scheduling as a service.

The pipeliners wrapped in a long-running daemon: an asyncio NDJSON front
end (TCP and/or unix socket), admission that answers cache hits at once
and deduplicates concurrent misses (single-flight) over a two-tier
(in-process LRU + sharded disk) result cache, and a persistent
:class:`repro.exec.pool.WorkerPool` — the one process pool, shared
with the batch engine — whose per-process scheduler memos stay warm
across requests; each cell runs on a worker's main thread under its
``SIGALRM`` deadline, with a kill-and-respawn watchdog as the one hard
stop.  A latency-instrumented load generator
(:mod:`repro.serve.loadgen`) replays the committed corpora through the
wire protocol and emits ``BENCH_service.json``.

Module map:

* :mod:`repro.serve.protocol` — the NDJSON wire protocol (requests,
  responses, error codes, LoopSpec-token payloads);
* :mod:`repro.serve.cachetier` — size-bounded LRU, tiered over
  :class:`repro.exec.cache.ScheduleCache`;
* :mod:`repro.serve.service` — admission, single-flight, load
  shedding, budget clamping, graceful drain;
* :mod:`repro.serve.daemon` — the sockets + signal handling;
* :mod:`repro.serve.loadgen` — the load harness and selftest.
"""

from .cachetier import LRUCache, TieredCache
from .daemon import ServeDaemon, handle_payload, run_daemon
from .loadgen import LoadgenOptions, LoadReport, run_loadgen
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ScheduleRequest,
    parse_schedule_request,
)
from .service import SchedulerService, ServeConfig

__all__ = [
    "LRUCache",
    "TieredCache",
    "ServeDaemon",
    "handle_payload",
    "run_daemon",
    "LoadgenOptions",
    "LoadReport",
    "run_loadgen",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ScheduleRequest",
    "parse_schedule_request",
    "SchedulerService",
    "ServeConfig",
]
