"""Live service telemetry: Prometheus exposition, spans, slow-request log.

Drives :class:`repro.serve.service.SchedulerService` directly (one
worker process, ``jobs=1``) and :class:`repro.serve.daemon.ServeDaemon` on a
temporary unix socket + ephemeral HTTP metrics port, the same idioms as
``test_serve_service.py``/``test_serve_daemon.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import recording
from repro.obs.export import validate_chrome_trace_file, write_chrome_trace
from repro.obs.service import (
    LatencyStats,
    ServiceMetrics,
    SlowRequestLog,
    parse_prometheus,
    render_prometheus,
)
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import encode, parse_schedule_request
from repro.serve.service import SchedulerService, ServeConfig

LOOP = "livermore:lk01_hydro"


def _request(i="r1", **overrides):
    payload = {"id": i, "loop": LOOP, "scheduler": "sgi"}
    payload.update(overrides)
    return parse_schedule_request({"op": "schedule", **payload})


def _service(**overrides) -> SchedulerService:
    config = ServeConfig(jobs=1, cache_dir=None, **overrides)
    return SchedulerService(config)


async def _with_service(service, fn):
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop(drain=False)


# ----------------------------------------------------------------------
# LatencyStats reservoir edge cases
# ----------------------------------------------------------------------
def test_latency_stats_empty_and_single_sample():
    stats = LatencyStats()
    assert stats.percentile(50) is None
    assert stats.mean_ms is None
    assert stats.to_dict()["max_ms"] is None

    stats.record(7.5)
    assert stats.percentile(50) == 7.5
    assert stats.percentile(99) == 7.5
    assert stats.mean_ms == 7.5
    assert stats.to_dict()["max_ms"] == 7.5


def test_latency_stats_percentiles_small_n():
    stats = LatencyStats()
    for v in (1.0, 2.0, 3.0, 4.0, 5.0):
        stats.record(v)
    assert stats.percentile(0) == 1.0
    assert stats.percentile(50) == 3.0
    assert stats.percentile(100) == 5.0
    assert stats.percentile(50) <= stats.percentile(90) <= stats.percentile(99)


def test_latency_stats_decimation_keeps_order_and_extremes():
    stats = LatencyStats(max_samples=8)
    for v in range(1, 101):
        stats.record(float(v))
    # Decimation halves resolution, never the totals.
    assert stats.count == 100
    assert stats.max_ms == 100.0
    assert stats.mean_ms == pytest.approx(50.5)
    assert len(stats._samples) <= 8
    p50, p90, p99 = (stats.percentile(p) for p in (50, 90, 99))
    assert p50 <= p90 <= p99 <= stats.max_ms
    assert stats.percentile(99) >= 50.0  # the tail survives decimation


# ----------------------------------------------------------------------
# Prometheus exposition round-trip
# ----------------------------------------------------------------------
def test_prometheus_roundtrip_covers_every_counter():
    metrics = ServiceMetrics()
    metrics.requests = 7
    metrics.shed = 1
    metrics.rejected = 2
    metrics.worker_respawns = 1
    metrics.memory_hits = 3
    metrics.disk_hits = 1
    metrics.misses = 2
    metrics.inflight_dedup = 1
    metrics.observe_queue(5)
    metrics.observe_queue(2)
    metrics.record_response("sgi", 12.5, schedule_seconds=0.5)
    metrics.record_response("most", 200.0, schedule_seconds=1.5, error=True)

    text = render_prometheus(metrics)
    parsed = parse_prometheus(text)

    assert parsed["repro_requests_total"] == 7
    assert parsed["repro_responses_total"] == 2
    assert parsed["repro_errors_total"] == 1
    assert parsed["repro_shed_total"] == 1
    assert parsed["repro_rejected_total"] == 2
    assert parsed["repro_worker_respawns_total"] == 1
    assert parsed["repro_cache_memory_hits_total"] == 3
    assert parsed["repro_cache_disk_hits_total"] == 1
    assert parsed["repro_cache_misses_total"] == 2
    assert parsed["repro_cache_inflight_dedup_total"] == 1
    assert parsed["repro_queue_depth"] == 2
    assert parsed["repro_queue_depth_max"] == 5
    assert parsed["repro_cache_hit_ratio"] == pytest.approx(4 / 6)
    assert parsed["repro_request_latency_samples"] == 2
    assert parsed['repro_request_latency_ms{quantile="max"}'] == 200.0
    assert parsed['repro_scheduler_requests_total{scheduler="sgi"}'] == 1
    assert parsed['repro_scheduler_errors_total{scheduler="most"}'] == 1
    assert parsed['repro_scheduler_schedule_seconds_total{scheduler="most"}'] == 1.5
    assert parsed["repro_uptime_seconds"] >= 0

    # Every exposed family carries HELP and TYPE lines.
    families = {
        key.split("{")[0] for key in parsed
    }
    for family in families:
        assert f"# HELP {family} " in text, family
        assert f"# TYPE {family} " in text, family


def test_prometheus_none_values_parse_back_as_none():
    parsed = parse_prometheus(render_prometheus(ServiceMetrics()))
    assert parsed["repro_throughput_rps"] is None
    assert parsed["repro_cache_hit_ratio"] is None
    assert parsed['repro_request_latency_ms{quantile="0.99"}'] is None


# ----------------------------------------------------------------------
# Slow-request log
# ----------------------------------------------------------------------
def test_slow_request_log_threshold(tmp_path):
    log = SlowRequestLog(tmp_path / "slow.ndjson", threshold_ms=50.0)
    assert not log.observe({"request_id": "a", "latency_ms": 10.0})
    assert not log.path.exists()
    assert log.observe({"request_id": "b", "latency_ms": 80.0})
    assert log.observe({"request_id": "c", "latency_ms": 50.0})
    assert not log.observe({"request_id": "d"})  # no latency -> never slow
    assert log.emitted == 2

    entries = log.entries()
    assert [e["request_id"] for e in entries] == ["b", "c"]
    assert all(e["threshold_ms"] == 50.0 for e in entries)


# ----------------------------------------------------------------------
# Request spans + gauges through the live service
# ----------------------------------------------------------------------
def test_request_spans_and_slow_log_through_service(tmp_path):
    slow_path = tmp_path / "slow.ndjson"

    async def scenario(service):
        first = await service.submit(_request("r1"))
        assert first["ok"]
        second = await service.submit(_request("r2"))  # warm: cache hit
        assert second["ok"] and second["cached"]
        await asyncio.sleep(0.12)  # let the gauge loop tick
        return service

    with recording() as rec:
        asyncio.run(_with_service(
            _service(
                slow_log_path=str(slow_path),
                slow_ms=0.0,            # force: every request is "slow"
                gauge_interval=0.03,
            ),
            scenario,
        ))

    names = [e["name"] for e in rec.events]
    for phase in ("serve.admission", "serve.coalesce", "serve.solve",
                  "serve.respond"):
        assert names.count(phase) >= 2, phase  # B and E per request
    assert "serve.queue_depth" in names
    assert "serve.cache_hit_rate" in names

    # The merged Chrome trace must validate (schema, nesting, ordering).
    trace = write_chrome_trace(rec, tmp_path / "trace.json")
    assert validate_chrome_trace_file(trace) == []

    entries = SlowRequestLog(slow_path, 0.0).entries()
    assert len(entries) == 2
    for entry in entries:
        assert entry["scheduler"] == "sgi"
        assert set(entry["phases_ms"]) == {
            "admission", "coalesce", "solve", "respond",
        }
    assert entries[1]["cached"] == "memory"  # warm repeat hit the mem tier


def test_gauge_loop_disabled_at_zero_interval():
    async def scenario(service):
        assert service._gauge_task is None
        response = await service.submit(_request("r1"))
        assert response["ok"]

    asyncio.run(_with_service(_service(gauge_interval=0.0), scenario))


# ----------------------------------------------------------------------
# Daemon surfaces: the metrics wire op and the HTTP exposition port
# ----------------------------------------------------------------------
async def _rpc(reader, writer, payload):
    writer.write(encode(payload))
    await writer.drain()
    return json.loads(await reader.readline())


def test_metrics_wire_op_and_http_port(tmp_path):
    async def scenario():
        sock = str(tmp_path / "serve.sock")
        config = ServeConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
        daemon = ServeDaemon(
            config, unix_path=sock, metrics_port=0, log=lambda line: None
        )
        ready = asyncio.Event()
        run_task = asyncio.create_task(daemon.run(ready=lambda _d: ready.set()))
        await asyncio.wait_for(ready.wait(), 10)
        try:
            reader, writer = await asyncio.open_unix_connection(sock)
            response = await _rpc(reader, writer, {
                "id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "sgi",
            })
            assert response["ok"]

            # The wire op returns the text exposition over the socket.
            over_wire = await _rpc(reader, writer, {"id": "m", "op": "metrics"})
            assert over_wire["ok"]
            wire_samples = parse_prometheus(over_wire["metrics"])
            assert wire_samples["repro_responses_total"] >= 1
            assert wire_samples["repro_requests_total"] >= 1
            writer.close()
            await writer.wait_closed()

            # And the same exposition over plain HTTP.
            assert daemon.metrics_port  # ephemeral port resolved
            http_reader, http_writer = await asyncio.open_connection(
                "127.0.0.1", daemon.metrics_port
            )
            http_writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await http_writer.drain()
            raw = await http_reader.read()
            http_writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"200 OK" in head
            assert b"text/plain; version=0.0.4" in head
            http_samples = parse_prometheus(body.decode())
            assert http_samples["repro_responses_total"] >= 1
            assert (
                http_samples['repro_scheduler_requests_total{scheduler="sgi"}']
                == 1
            )

            # Unknown paths 404 without tearing the listener down.
            r2, w2 = await asyncio.open_connection(
                "127.0.0.1", daemon.metrics_port
            )
            w2.write(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
            await w2.drain()
            raw404 = await r2.read()
            w2.close()
            assert b"404" in raw404
        finally:
            daemon.request_stop()
            await asyncio.wait_for(run_task, 30)

    asyncio.run(scenario())
