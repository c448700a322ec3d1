"""The scheduling service core: protocol, deadlines, single-flight.

Everything here drives :class:`repro.serve.service.SchedulerService`
directly (no sockets) on one worker process (``jobs=1``), where each cell
runs on the worker's main thread under its ``SIGALRM`` deadline; the
pool tests reach the watchdog's kill-and-respawn backstop.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.exec import pool as pool_module
from repro.exec.cells import Cell
from repro.exec.pool import WorkerPool
from repro.exec.runner import execute_cell
from repro.obs.service import LatencyStats, ServiceMetrics
from repro.serve.protocol import (
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_line,
    parse_schedule_request,
)
from repro.serve.service import SchedulerService, ServeConfig

LOOP = "livermore:lk01_hydro"


def _request(i="r1", **overrides):
    payload = {"id": i, "op": "schedule", "loop": LOOP, "scheduler": "sgi"}
    payload.update(overrides)
    payload.pop("op", None)
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
# Wire protocol
# ----------------------------------------------------------------------
def test_parse_line_roundtrip():
    payload = {"id": "a", "op": "ping"}
    assert parse_line(encode(payload).decode()) == payload


def test_parse_line_rejects_garbage():
    with pytest.raises(ProtocolError):
        parse_line("{not json")
    with pytest.raises(ProtocolError):
        parse_line("[1, 2]")


@pytest.mark.parametrize(
    "mutation",
    [
        {"id": None},
        {"id": ""},
        {"scheduler": "gcc"},
        {"loop": None},                      # neither loop nor spec
        {"spec": "also-a-loop"},             # both loop and spec
        {"budget": -1.0},
        {"budget": True},
        {"options": "not-a-dict"},
        {"trips": [0]},
        {"trips": "many"},
        {"seed": 1.5},
        {"simulate": "yes"},
        {"verify": True},                    # unknown field: "oracle" verifies
        {"trace": True},                     # unknown field: nothing reads it
        {"frobnicate": True},                # unknown field
    ],
)
def test_parse_schedule_request_rejects(mutation):
    payload = {"id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "sgi"}
    payload.update(mutation)
    payload = {k: v for k, v in payload.items() if v is not None or k in mutation}
    with pytest.raises(ProtocolError):
        parse_schedule_request(payload)


@pytest.mark.parametrize("name", ["verify", "trace"])
def test_fields_no_request_reads_are_refused_by_name(name):
    payload = {"id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "sgi", name: True}
    with pytest.raises(ProtocolError, match=f"unknown request fields: {name}") as exc:
        parse_schedule_request(payload)
    assert exc.value.code == "bad-request"


def test_parse_schedule_request_rejects_options_the_scheduler_rejects():
    with pytest.raises(ProtocolError, match="bogus"):
        _request(scheduler="most", options={"bogus": 1})


def test_parse_schedule_request_accepts_harness_keys():
    request = _request(options={"_test_sleep": 0.3})
    assert request.options == {"_test_sleep": 0.3}


def test_parse_schedule_request_spec_token_becomes_fuzz_key():
    from repro.serve.loadgen import corpus_spec_tokens
    from repro.serve.service import DEFAULT_FUZZ_CORPUS_DIR

    tokens = corpus_spec_tokens(DEFAULT_FUZZ_CORPUS_DIR)
    assert tokens, "committed fuzz corpus should yield at least one spec"
    token = tokens[0][1]
    request = parse_schedule_request(
        {"id": "r1", "op": "schedule", "spec": token, "scheduler": "rau"}
    )
    assert request.loop == f"fuzz:{token}"
    cell = request.to_cell(10.0)
    assert cell.timeout == 10.0 and cell.scheduler == "rau"


def test_parse_schedule_request_rejects_bad_spec_token():
    with pytest.raises(ProtocolError):
        parse_schedule_request(
            {"id": "r1", "op": "schedule", "spec": "!!corrupt!!", "scheduler": "sgi"}
        )


def test_response_shapes():
    ok = ok_response("r1", {"ii": 4}, cached="memory", deduped=True)
    assert ok["ok"] and ok["result"] == {"ii": 4} and ok["cached"] == "memory"
    err = error_response("r1", "overloaded", "busy", retry_after=0.25)
    assert not err["ok"] and err["error"]["retry_after"] == 0.25


def test_error_response_rejects_an_unknown_code():
    with pytest.raises(ValueError, match="no-such-code"):
        error_response("r1", "no-such-code", "nope")


# ----------------------------------------------------------------------
# The per-cell deadline and the pool's hard stop
# ----------------------------------------------------------------------
def test_deadline_off_main_thread_is_an_error_cell():
    """SIGALRM cannot reach a non-main thread: a cell with a deadline is
    refused with an error naming the cause instead of running unguarded."""
    spec = Cell.make(
        LOOP, "sgi", {"_test_sleep": 30.0}, timeout=0.3,
        simulate=False,
    ).to_dict()
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(execute_cell(spec, in_worker=False))
    )
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()  # refused, not slept through
    assert box["success"] is False and box["timeout"] is False
    assert "SIGALRM" in box["error"] and "not the main thread" in box["error"]


def test_serve_config_needs_a_worker_process():
    with pytest.raises(ValueError, match="jobs"):
        ServeConfig(jobs=0)


def test_pool_watchdog_kills_and_respawns_a_wedged_worker(monkeypatch):
    monkeypatch.setattr(pool_module, "GRACE", 0.5)
    spec = Cell.make(
        LOOP, "sgi", {"_test_wedge": 30}, timeout=0.5,
        simulate=False,
    ).to_dict()
    healthy = Cell.make(LOOP, "sgi", simulate=False).to_dict()

    async def scenario():
        pool = WorkerPool(jobs=1)
        try:
            wedged = await pool.run(spec)
            respawns = pool.respawns
            after = await pool.run(healthy)
        finally:
            pool.shutdown()
        return wedged, respawns, after

    wedged, respawns, after = asyncio.run(scenario())
    assert wedged["timeout"] is True and not wedged["success"]
    assert "hard deadline" in wedged["error"]
    assert respawns == 1
    assert after["success"] and after["error"] is None


def test_pool_respawns_a_crashed_worker(tmp_path):
    marker = str(tmp_path / "crashed")
    spec = Cell.make(
        LOOP, "sgi", {"_test_crash_once": marker}, simulate=False,
    ).to_dict()

    async def scenario():
        pool = WorkerPool(jobs=1)
        try:
            crashed = await pool.run(spec)
            respawns = pool.respawns
            again = await pool.run(spec)  # marker written: runs normally
        finally:
            pool.shutdown()
        return crashed, respawns, again

    crashed, respawns, again = asyncio.run(scenario())
    assert not crashed["success"]
    assert "worker died" in crashed["error"] and "(respawned)" in crashed["error"]
    assert respawns == 1
    assert again["success"] and again["error"] is None


# ----------------------------------------------------------------------
# Service behaviour
# ----------------------------------------------------------------------
def test_submit_matches_direct_execution():
    direct = execute_cell(
        _request().to_cell(ServeConfig().default_budget).to_dict(), in_worker=False
    )

    async def scenario(service):
        return await service.submit(_request())

    response = asyncio.run(_with_service(_service(), scenario))
    assert response["ok"] and not response["cached"]
    result = response["result"]
    for field in ("ii", "min_ii", "success", "timeout", "fallback",
                  "registers_used", "sim_cycles"):
        assert result[field] == direct[field], field
    assert response["latency_ms"] > 0


def test_memory_cache_hit_on_second_submit():
    async def scenario(service):
        first = await service.submit(_request("r1"))
        second = await service.submit(_request("r2"))
        return first, second, service.metrics

    first, second, metrics = asyncio.run(_with_service(_service(), scenario))
    assert first["ok"] and first["cached"] is False
    assert second["cached"] == "memory"
    assert second["result"]["cache_hit"] is True
    assert second["result"]["ii"] == first["result"]["ii"]
    assert (metrics.misses, metrics.memory_hits) == (1, 1)


def test_only_a_new_miss_builds_its_loop(monkeypatch):
    """A hot loop is refused or admitted once: keying builds no loop, and a
    cache hit never rebuilds the loop its solve resolved."""
    from repro.serve import service as service_module

    built = []
    real = service_module.resolve_loop

    def counting(key, *args):
        built.append(key)
        return real(key, *args)

    monkeypatch.setattr(service_module, "resolve_loop", counting)

    async def scenario(service):
        return [await service.submit(_request(f"r{i}")) for i in range(3)]

    responses = asyncio.run(_with_service(_service(), scenario))
    assert [r["cached"] for r in responses] == [False, "memory", "memory"]
    assert built == [LOOP]


def test_single_flight_dedup_solves_once():
    n = 6

    async def scenario(service):
        requests = [
            _request(f"r{i}", options={"_test_sleep": 0.3}) for i in range(n)
        ]
        responses = await asyncio.gather(
            *(service.submit(r) for r in requests)
        )
        return responses, service.metrics, service.pool.stats()

    responses, metrics, pool = asyncio.run(_with_service(_service(), scenario))
    assert all(r["ok"] for r in responses)
    assert pool["cells"] == 1  # one solve for six identical requests
    assert metrics.inflight_dedup == n - 1
    assert sum(1 for r in responses if r["deduped"]) == n - 1
    iis = {r["result"]["ii"] for r in responses}
    assert len(iis) == 1


def test_disk_tier_hit_after_lru_eviction(tmp_path):
    async def scenario(service):
        first = await service.submit(_request("r1"))
        # Evict the entry from the memory tier by force.
        service.cache.lru._entries.clear()
        service.cache.lru.bytes = 0
        second = await service.submit(_request("r2"))
        return first, second, service.metrics

    service = SchedulerService(
        ServeConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
    )
    first, second, metrics = asyncio.run(_with_service(service, scenario))
    assert second["cached"] == "disk"
    assert metrics.disk_hits == 1
    assert second["result"]["ii"] == first["result"]["ii"]


def test_cache_hit_never_waits_on_a_timer():
    """A memory hit is answered in the pass that admits it: the submit
    task finishes within a few event-loop turns, with no wall-clock wait
    and no worker involved."""
    async def scenario(service):
        warm = await service.submit(_request("r1"))
        cells = service.pool.stats()["cells"]
        task = asyncio.create_task(service.submit(_request("r2")))
        for _ in range(3):
            await asyncio.sleep(0)
        assert task.done()
        return warm, task.result(), cells, service.pool.stats()["cells"]

    warm, hit, cells_before, cells_after = asyncio.run(
        _with_service(_service(), scenario)
    )
    assert warm["ok"] and warm["cached"] is False
    assert hit["ok"] and hit["cached"] == "memory"
    assert cells_after == cells_before == 1


def test_load_shedding_when_queue_full():
    """With ``queue_limit`` distinct solves outstanding a new miss is shed;
    a memory hit and a request for a key already being solved are not."""
    async def scenario(service):
        warm = await service.submit(_request("warm"))
        solving = [
            asyncio.create_task(service.submit(
                _request(f"r{i}", options={"_test_sleep": sleep})
            ))
            for i, sleep in enumerate((0.2, 0.25))
        ]
        await asyncio.sleep(0)  # both admitted, both solves outstanding
        depth = service.stats()["queue"]["depth"]
        shed = await service.submit(
            _request("r-overflow", options={"_test_sleep": 0.3})
        )
        hit = await service.submit(_request("r-hit"))
        attached = asyncio.create_task(service.submit(
            _request("r-attach", options={"_test_sleep": 0.2})
        ))
        solved = await asyncio.gather(*solving, attached)
        return warm, depth, shed, hit, solved, service.stats()

    warm, depth, shed, hit, solved, stats = asyncio.run(
        _with_service(_service(queue_limit=2), scenario)
    )
    assert warm["ok"] and depth == 2
    assert not shed["ok"]
    assert shed["error"]["code"] == "overloaded"
    assert shed["error"]["retry_after"] > 0
    assert hit["ok"] and hit["cached"] == "memory"
    assert all(r["ok"] for r in solved) and solved[-1]["deduped"]
    service = stats["service"]
    assert service["shed"] == 1
    assert service["cache"]["misses"] == 3 and service["cache"]["inflight_dedup"] == 1
    assert service["queue"]["depth_max"] == 2
    assert stats["queue"] == {"depth": 0, "limit": 2}


def test_draining_service_refuses_new_work():
    async def scenario(service):
        await service.drain(timeout=0.1)
        return await service.submit(_request())

    response = asyncio.run(_with_service(_service(), scenario))
    assert not response["ok"]
    assert response["error"]["code"] == "shutting-down"


def test_budget_clamped_to_server_maximum():
    service = _service(max_budget=5.0, default_budget=2.0)
    assert service._clamped_budget(_request(budget=100.0)) == 5.0
    assert service._clamped_budget(_request(budget=1.0)) == 1.0
    assert service._clamped_budget(_request()) == 2.0


def test_unresolvable_loop_key_is_bad_request():
    async def scenario(service):
        return await service.submit(_request(loop="nosuchcorpus:zzz"))

    response = asyncio.run(_with_service(_service(), scenario))
    assert not response["ok"]
    assert response["error"]["code"] == "bad-request"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_latency_stats_percentiles():
    stats = LatencyStats()
    for ms in range(1, 101):
        stats.record(float(ms))
    assert stats.count == 100
    assert stats.percentile(50) == pytest.approx(50.0, abs=1.0)
    assert stats.percentile(99) == pytest.approx(99.0, abs=1.0)
    assert stats.max_ms == 100.0
    payload = stats.to_dict()
    assert payload["count"] == 100 and payload["p50_ms"] == stats.percentile(50)


def test_latency_stats_reservoir_stays_bounded():
    from repro.obs.service import MAX_SAMPLES

    stats = LatencyStats()
    for i in range(MAX_SAMPLES * 2 + 10):
        stats.record(float(i % 1000))
    assert stats.count == MAX_SAMPLES * 2 + 10
    assert len(stats._samples) <= MAX_SAMPLES


def test_service_metrics_to_dict_shape():
    metrics = ServiceMetrics()
    metrics.record_response("sgi", 12.0, schedule_seconds=0.01, error=False)
    metrics.memory_hits += 1
    metrics.misses += 1
    payload = metrics.to_dict()
    assert payload["responses"] == 1
    assert payload["cache"]["hit_rate"] == 0.5
    assert "sgi" in payload["by_scheduler"]
    assert payload["latency_ms"]["count"] == 1
