"""Service-side metrics for the scheduling daemon (:mod:`repro.serve`).

The serving front end needs the classic latency/throughput/saturation
triple on top of the per-cell measurements the exec layer already makes:
request latency percentiles (p50/p99), queue depth, load-shedding and
cache-tier counters, and per-scheduler throughput.  Everything here is
plain counters and bounded sample reservoirs — cheap enough to update on
every request — and snapshots render straight into the ``service`` block
of ``BENCH_service.json``.

Nothing imports the asyncio daemon from here: the metrics objects are
synchronous and single-threaded by design (the daemon updates them only
from its event loop), which keeps them reusable from tests and from the
load generator's client side.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Keep at most this many latency samples per distribution; beyond it the
#: reservoir degrades to coarse decimation (every other sample dropped),
#: which is plenty for p50/p99 on a long-running daemon.
MAX_SAMPLES = 100_000


class LatencyStats:
    """A bounded reservoir of latency samples with percentile queries."""

    def __init__(self, max_samples: int = MAX_SAMPLES):
        self.max_samples = max_samples
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self._samples: List[float] = []
        self._keep_every = 1
        self._skip = 0

    def record(self, latency_ms: float) -> None:
        self.count += 1
        self.total_ms += latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms
        self._skip += 1
        if self._skip >= self._keep_every:
            self._skip = 0
            self._samples.append(latency_ms)
            if len(self._samples) >= self.max_samples:
                # Halve the resolution rather than the history: drop every
                # other retained sample and double the decimation stride.
                self._samples = self._samples[::2]
                self._keep_every *= 2

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (0..100) of the retained samples."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def mean_ms(self) -> Optional[float]:
        return self.total_ms / self.count if self.count else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile(50),
            "p90_ms": self.percentile(90),
            "p99_ms": self.percentile(99),
            "max_ms": self.max_ms if self.count else None,
        }


@dataclass
class SchedulerLane:
    """Per-scheduler accounting: request count, latency, schedule time."""

    requests: int = 0
    errors: int = 0
    schedule_seconds: float = 0.0
    latency: LatencyStats = field(default_factory=LatencyStats)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "schedule_seconds": self.schedule_seconds,
            "latency_ms": self.latency.to_dict(),
        }


class ServiceMetrics:
    """Everything the daemon counts; snapshot with :meth:`to_dict`.

    ``requests`` counts every accepted schedule request; ``shed`` the new
    misses refused while the service was at its outstanding-solve limit
    (the 429 path) and ``rejected`` the
    malformed/shutting-down ones.  Cache counters distinguish the memory
    tier, the disk tier and single-flight deduplication (a concurrent
    identical request that waited on an in-flight solve rather than
    solving again).  ``queue_depth``/``queue_depth_max`` count distinct
    solves outstanding, sampled at admission and by the gauge sampler.
    """

    def __init__(self) -> None:
        self.started_at = time.time()
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.shed = 0
        self.rejected = 0
        self.worker_respawns = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.inflight_dedup = 0
        self.queue_depth = 0
        self.queue_depth_max = 0
        self.latency = LatencyStats()
        self.by_scheduler: Dict[str, SchedulerLane] = {}

    # -- updates -------------------------------------------------------
    def lane(self, scheduler: str) -> SchedulerLane:
        if scheduler not in self.by_scheduler:
            self.by_scheduler[scheduler] = SchedulerLane()
        return self.by_scheduler[scheduler]

    def observe_queue(self, depth: int) -> None:
        self.queue_depth = depth
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def record_response(
        self,
        scheduler: str,
        latency_ms: float,
        schedule_seconds: float = 0.0,
        error: bool = False,
    ) -> None:
        self.responses += 1
        self.latency.record(latency_ms)
        lane = self.lane(scheduler)
        lane.requests += 1
        lane.latency.record(latency_ms)
        lane.schedule_seconds += schedule_seconds
        if error:
            self.errors += 1
            lane.errors += 1

    # -- derived -------------------------------------------------------
    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Hits over lookups since the daemon started (dedup excluded)."""
        lookups = self.memory_hits + self.disk_hits + self.misses
        if not lookups:
            return None
        return (self.memory_hits + self.disk_hits) / lookups

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    @property
    def throughput_rps(self) -> Optional[float]:
        elapsed = self.uptime_seconds
        return self.responses / elapsed if elapsed > 0 and self.responses else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": self.uptime_seconds,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "shed": self.shed,
            "rejected": self.rejected,
            "worker_respawns": self.worker_respawns,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency.to_dict(),
            "queue": {"depth": self.queue_depth, "depth_max": self.queue_depth_max},
            "cache": {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "inflight_dedup": self.inflight_dedup,
                "hit_rate": self.cache_hit_rate,
            },
            "by_scheduler": {
                name: lane.to_dict() for name, lane in sorted(self.by_scheduler.items())
            },
        }


# ----------------------------------------------------------------------
# Prometheus-style text exposition
# ----------------------------------------------------------------------
#: Metric-name prefix of every exposed sample.
PROMETHEUS_PREFIX = "repro"

#: (suffix, type, help, extractor) — the scalar samples of one snapshot.
_SCALAR_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("requests_total", "counter", "Accepted schedule requests.", "requests"),
    ("responses_total", "counter", "Responses sent.", "responses"),
    ("errors_total", "counter", "Responses carrying a cell error.", "errors"),
    ("shed_total", "counter", "Misses shed at the outstanding-solve limit.", "shed"),
    ("rejected_total", "counter", "Malformed or shutting-down rejections.", "rejected"),
    ("worker_respawns_total", "counter", "Pool worker respawns.", "worker_respawns"),
    ("cache_memory_hits_total", "counter", "Memory-tier cache hits.", "memory_hits"),
    ("cache_disk_hits_total", "counter", "Disk-tier cache hits.", "disk_hits"),
    ("cache_misses_total", "counter", "Cache misses (real solves).", "misses"),
    ("cache_inflight_dedup_total", "counter",
     "Requests coalesced onto an in-flight solve.", "inflight_dedup"),
    ("queue_depth", "gauge", "Distinct solves outstanding at last sample.", "queue_depth"),
    ("queue_depth_max", "gauge", "High-water count of outstanding solves.", "queue_depth_max"),
)

#: Latency quantiles exposed as ``request_latency_ms{quantile="..."}``.
_LATENCY_QUANTILES = ((50, "0.5"), (90, "0.9"), (99, "0.99"))


def _prom_value(value: Optional[float]) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if value != int(value) else str(int(value))


def render_prometheus(metrics: ServiceMetrics) -> str:
    """One ServiceMetrics snapshot in Prometheus text exposition format.

    Served by the daemon's ``--metrics-port`` HTTP listener and by the
    ``metrics`` wire op; :func:`parse_prometheus` reads it back, and the
    pair round-trips every counter of :meth:`ServiceMetrics.to_dict`.
    """
    p = PROMETHEUS_PREFIX
    lines: List[str] = []

    def emit(suffix: str, kind: str, help_text: str,
             samples: List[Tuple[str, Optional[float]]]) -> None:
        lines.append(f"# HELP {p}_{suffix} {help_text}")
        lines.append(f"# TYPE {p}_{suffix} {kind}")
        for labels, value in samples:
            lines.append(f"{p}_{suffix}{labels} {_prom_value(value)}")

    for suffix, kind, help_text, attr in _SCALAR_METRICS:
        emit(suffix, kind, help_text, [("", float(getattr(metrics, attr)))])
    emit("uptime_seconds", "gauge", "Seconds since daemon start.",
         [("", metrics.uptime_seconds)])
    emit("cache_hit_ratio", "gauge", "Cache hits over lookups since start.",
         [("", metrics.cache_hit_rate)])
    emit("throughput_rps", "gauge", "Responses per second since start.",
         [("", metrics.throughput_rps)])
    emit(
        "request_latency_ms", "summary",
        "Client-visible request latency quantiles (milliseconds).",
        [(f'{{quantile="{label}"}}', metrics.latency.percentile(pct))
         for pct, label in _LATENCY_QUANTILES]
        + [('{quantile="max"}', metrics.latency.max_ms if metrics.latency.count else None)],
    )
    emit("request_latency_samples", "counter", "Latency samples recorded.",
         [("", float(metrics.latency.count))])
    for suffix, kind, help_text, getter in (
        ("scheduler_requests_total", "counter",
         "Requests answered per scheduler.", lambda lane: float(lane.requests)),
        ("scheduler_errors_total", "counter",
         "Erroring requests per scheduler.", lambda lane: float(lane.errors)),
        ("scheduler_schedule_seconds_total", "counter",
         "Accumulated solver seconds per scheduler.",
         lambda lane: lane.schedule_seconds),
    ):
        emit(suffix, kind, help_text, [
            (f'{{scheduler="{name}"}}', getter(lane))
            for name, lane in sorted(metrics.by_scheduler.items())
        ])
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Optional[float]]:
    """Exposition text back to ``{sample_key: value}`` (NaN → None).

    The key keeps labels verbatim (``repro_scheduler_requests_total
    {scheduler="sgi"}`` style, without the space), so round-trip tests can
    compare directly against :func:`render_prometheus` inputs.
    """
    samples: Dict[str, Optional[float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            continue
        number = float(value)
        samples[key] = None if math.isnan(number) else number
    return samples


# ----------------------------------------------------------------------
# Structured slow-request log
# ----------------------------------------------------------------------
class SlowRequestLog:
    """NDJSON log of requests slower than a threshold.

    The daemon calls :meth:`observe` with the request's summary record on
    every response; entries at or above ``threshold_ms`` are appended as
    one JSON object per line (the service analogue of a database's slow
    query log).  Appends reopen the file each time — slow requests are by
    definition rare, and reopening keeps the log tail-safe and rotation-
    friendly.
    """

    def __init__(self, path, threshold_ms: float = 1000.0):
        self.path = pathlib.Path(path)
        self.threshold_ms = float(threshold_ms)
        self.emitted = 0

    def observe(self, record: Mapping[str, Any]) -> bool:
        """Log ``record`` when its ``latency_ms`` crosses the threshold."""
        latency = record.get("latency_ms")
        if latency is None or float(latency) < self.threshold_ms:
            return False
        entry = {"ts": time.time(), "threshold_ms": self.threshold_ms, **record}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self.emitted += 1
        return True

    def entries(self) -> List[Dict[str, Any]]:
        """Parse the log back (for tests and post-mortems)."""
        if not self.path.exists():
            return []
        out: List[Dict[str, Any]] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out
