"""Daemon integration: sockets, pipelining, SIGTERM drain, loadgen.

The in-process tests boot :class:`repro.serve.daemon.ServeDaemon` on a
temporary unix socket inside ``asyncio.run`` (no pytest-asyncio in the
container).  The graceful-drain test is a real subprocess: ``python -m
repro serve`` gets SIGTERM mid-solve and must still deliver the in-flight
response, log the drain, and exit 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.serve.daemon import ServeDaemon
from repro.serve.loadgen import LoadgenOptions, run_selftest
from repro.serve.protocol import encode
from repro.serve.service import ServeConfig

LOOP = "livermore:lk01_hydro"


async def _with_daemon(tmp_path, scenario, **config_overrides):
    """Boot a daemon on a unix socket, run ``scenario(path)``, drain."""
    sock = str(tmp_path / "serve.sock")
    config = ServeConfig(
        jobs=1, cache_dir=str(tmp_path / "cache"), **config_overrides
    )
    daemon = ServeDaemon(config, unix_path=sock, log=lambda line: None)
    ready = asyncio.Event()
    run_task = asyncio.create_task(daemon.run(ready=lambda _d: ready.set()))
    await asyncio.wait_for(ready.wait(), 10)
    try:
        return await scenario(sock)
    finally:
        daemon.request_stop()
        await asyncio.wait_for(run_task, 30)


async def _rpc(reader, writer, payload):
    writer.write(encode(payload))
    await writer.drain()
    return json.loads(await reader.readline())


# ----------------------------------------------------------------------
# Wire-level behaviour
# ----------------------------------------------------------------------
def test_ping_stats_and_schedule_over_unix_socket(tmp_path):
    async def scenario(sock):
        reader, writer = await asyncio.open_unix_connection(sock)
        pong = await _rpc(reader, writer, {"id": "p", "op": "ping"})
        assert pong["ok"] and pong["pong"] and not pong["draining"]

        response = await _rpc(reader, writer, {
            "id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "sgi",
        })
        assert response["ok"] and response["id"] == "r1"
        assert response["result"]["ii"] is not None
        assert response["latency_ms"] > 0

        stats = await _rpc(reader, writer, {"id": "s", "op": "stats"})
        assert stats["ok"]
        assert stats["stats"]["service"]["responses"] == 1
        assert stats["stats"]["pool"]["size"] == 1
        writer.close()
        await writer.wait_closed()

    asyncio.run(_with_daemon(tmp_path, scenario))


def test_pipelined_requests_matched_by_id(tmp_path):
    """Many requests down one connection; responses may arrive in any
    order and are matched by id."""
    async def scenario(sock):
        reader, writer = await asyncio.open_unix_connection(sock)
        ids = [f"r{i}" for i in range(6)]
        schedulers = ["sgi", "rau"] * 3
        for rid, scheduler in zip(ids, schedulers):
            writer.write(encode({
                "id": rid, "op": "schedule",
                "loop": LOOP, "scheduler": scheduler,
            }))
        await writer.drain()
        got = {}
        for _ in ids:
            response = json.loads(await reader.readline())
            got[response["id"]] = response
        assert sorted(got) == sorted(ids)
        assert all(r["ok"] for r in got.values())
        writer.close()
        await writer.wait_closed()

    asyncio.run(_with_daemon(tmp_path, scenario))


def test_malformed_and_unknown_requests_keep_connection_alive(tmp_path):
    async def scenario(sock):
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"this is not json\n")
        await writer.drain()
        bad = json.loads(await reader.readline())
        assert not bad["ok"] and bad["error"]["code"] == "bad-request"

        unknown = await _rpc(reader, writer, {"id": "u", "op": "frobnicate"})
        assert not unknown["ok"] and unknown["error"]["code"] == "bad-request"

        missing = await _rpc(
            reader, writer, {"id": "m", "op": "schedule", "scheduler": "sgi"}
        )
        assert not missing["ok"] and missing["error"]["code"] == "bad-request"

        # The connection survived all three rejections.
        pong = await _rpc(reader, writer, {"id": "p", "op": "ping"})
        assert pong["ok"]
        writer.close()
        await writer.wait_closed()

    asyncio.run(_with_daemon(tmp_path, scenario))


def test_tcp_listener_resolves_ephemeral_port(tmp_path):
    async def scenario():
        config = ServeConfig(jobs=1, cache_dir=None)
        daemon = ServeDaemon(
            config, host="127.0.0.1", port=0, log=lambda line: None
        )
        ready = asyncio.Event()
        task = asyncio.create_task(daemon.run(ready=lambda _d: ready.set()))
        await asyncio.wait_for(ready.wait(), 10)
        assert daemon.port not in (None, 0)
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
        pong = await _rpc(reader, writer, {"id": "p", "op": "ping"})
        assert pong["ok"]
        writer.close()
        await writer.wait_closed()
        daemon.request_stop()
        await asyncio.wait_for(task, 30)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Graceful drain on SIGTERM (subprocess integration)
# ----------------------------------------------------------------------
def test_sigterm_drains_inflight_work_and_exits_zero(tmp_path):
    sock_path = str(tmp_path / "drain.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix", sock_path, "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--drain-timeout", "60",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 20
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        while True:
            try:
                client.connect(sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                assert time.time() < deadline, "daemon never became ready"
                time.sleep(0.05)
        client.settimeout(30)
        # A solve slow enough that SIGTERM arrives mid-flight.
        client.sendall(encode({
            "id": "inflight", "op": "schedule", "loop": LOOP,
            "scheduler": "sgi", "options": {"_test_sleep": 1.5},
            "simulate": False,
        }))
        time.sleep(0.5)  # admitted and solving
        proc.send_signal(signal.SIGTERM)

        chunks = b""
        while b"\n" not in chunks:
            data = client.recv(65536)
            assert data, "connection closed before the in-flight response"
            chunks += data
        response = json.loads(chunks.split(b"\n")[0])
        assert response["id"] == "inflight"
        assert response["ok"], response
        client.close()
        assert proc.wait(timeout=60) == 0
        stderr = proc.stderr.read()
        assert "draining" in stderr and "drained=True" in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_stop_with_idle_client_closes_it_promptly(tmp_path):
    """An answered client that stays connected must not hold the stop
    open: once the drain finishes, its connection is closed at once."""
    async def scenario():
        sock = str(tmp_path / "idle.sock")
        daemon = ServeDaemon(
            ServeConfig(jobs=1, cache_dir=None), unix_path=sock,
            log=lambda line: None,
        )
        ready = asyncio.Event()
        task = asyncio.create_task(daemon.run(ready=lambda _d: ready.set()))
        await asyncio.wait_for(ready.wait(), 10)
        reader, writer = await asyncio.open_unix_connection(sock)
        response = await _rpc(reader, writer, {
            "id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "sgi",
        })
        assert response["ok"]
        started = time.monotonic()
        daemon.request_stop("SIGTERM")  # what the signal handler calls
        code = await asyncio.wait_for(task, 30)
        stopped = time.monotonic() - started
        tail = await asyncio.wait_for(reader.read(), 5)  # closed by the daemon
        writer.close()
        return code, stopped, tail

    code, stopped, tail = asyncio.run(scenario())
    assert code == 0
    assert stopped < 1.0
    assert tail == b""


def test_serve_cli_rejects_zero_jobs(capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setattr(
        "repro.serve.daemon.run_daemon",
        lambda *args, **kwargs: pytest.fail("the daemon started with --jobs 0"),
    )
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--unix", "unused.sock", "--jobs", "0"])
    assert excinfo.value.code == 2
    assert "--jobs: jobs must be >= 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The load harness: selftest, hit rate, engine equivalence
# ----------------------------------------------------------------------
def test_selftest_loadgen_matches_direct_engine(tmp_path):
    """The acceptance loop in miniature: boot a daemon, replay a small
    corpus twice over, require a clean pass, >=50% warm hits, and answers
    identical to the direct exec engine."""
    options = LoadgenOptions(
        requests=24,                      # 2x the 12 distinct cells
        concurrency=6,
        corpora=("recbound",),
        schedulers=("sgi", "rau"),
        fuzz_corpus_dir=None,
        budget=30.0,
        output_dir=str(tmp_path / "bench"),
        history_dir=str(tmp_path / "history"),
    )
    report, path, problems = run_selftest(options, jobs=1, equivalence=True)
    assert problems == []
    assert report.hit_rate is not None and report.hit_rate >= 0.5
    assert report.responses == 24

    payload = json.loads(path.read_text())
    assert path.name == "BENCH_service.json"
    assert payload["name"] == "service"
    # Provenance-stamped, and filed in the run-history store.
    assert payload["provenance"]["host_fingerprint"]
    from repro.obs.history import HistoryStore

    stored = HistoryStore(tmp_path / "history").runs("service")
    assert len(stored) == 1
    assert stored[0].payload["totals"]["service"]["requests"] == 24
    service = payload["totals"]["service"]
    assert service["requests"] == 24
    assert service["protocol_errors"] == 0
    assert service["hit_rate"] >= 0.5
    assert service["latency_ms"]["count"] == 24
    assert service["latency_ms"]["p99_ms"] >= service["latency_ms"]["p50_ms"]
    # Cells carry the standard BENCH schema (so `repro diff` aligns them)
    # plus the per-cell service accounting.
    from repro.exec.bench import BENCH_CELL_FIELDS

    assert len(payload["cells"]) == 12
    for cell in payload["cells"]:
        for field in BENCH_CELL_FIELDS:
            assert field in cell, field
        assert cell["service_requests"] >= 1
        assert "p50_ms" in cell["service_latency_ms"]


def test_selftest_problems_name_the_verdicts_violations(tmp_path, monkeypatch):
    """A seeded register clobber rides one request: the selftest fails,
    and its problem list is the written json's verdict, cell by cell."""
    import repro.serve.loadgen as loadgen

    real = loadgen.build_request_specs

    def one_clobbered_request(options):
        (spec,) = real(options)[:1]
        return [{**spec, "oracle": True,
                 "options": {**spec["options"], "_test_inject": "reg-clobber"}}]

    monkeypatch.setattr(loadgen, "build_request_specs", one_clobbered_request)
    options = LoadgenOptions(
        requests=2, concurrency=1, corpora=("livermore",), schedulers=("sgi",),
        fuzz_corpus_dir=None, budget=30.0, output_dir=str(tmp_path),
    )
    _, path, problems = run_selftest(options, jobs=1)
    violations = json.loads(path.read_text())["totals"]["violations"]
    assert {v["kind"] for v in violations} >= {"verify", "funcsim"}
    assert problems == [
        f"violation: livermore:lk01_hydro × sgi: {v['kind']}: {v['detail']}"
        for v in violations
    ]


def test_service_bench_diffs_cleanly_against_itself(tmp_path):
    """BENCH_service.json must ride the existing diff gate: a run diffed
    against itself is regression-free, and latency moves only warn."""
    from repro.obs.diffbench import diff_reports

    options = LoadgenOptions(
        requests=12, concurrency=4, corpora=("recbound",),
        schedulers=("sgi",), fuzz_corpus_dir=None, budget=30.0,
        output_dir=str(tmp_path / "bench"),
    )
    _, path, problems = run_selftest(options, jobs=1)
    assert problems == []
    payload = json.loads(path.read_text())

    diff = diff_reports(payload, payload)
    assert diff.ok and not diff.warnings

    import copy

    slower = copy.deepcopy(payload)
    slower["totals"]["service"]["latency_ms"]["p99_ms"] *= 10
    diff = diff_reports(payload, slower)
    assert diff.ok                      # latency is never a regression
    assert any("service latency p99" in w for w in diff.warnings)
