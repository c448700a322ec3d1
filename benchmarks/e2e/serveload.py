"""serve-open: the ``repro serve`` daemon under an open-loop request stream.

The daemon runs as a subprocess on a unix socket with one worker and a
fresh cache directory.  One client process warms it with every corpus key
(a closed loop: one request at a time), then sends a seeded open loop over
two pipelined connections: each request goes out when it is due, whether
or not earlier ones have been answered, and its latency is counted from
that due time, so a stall also counts against the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from . import checks, speed, workloads
from .run import ROOT, child_env
from .stats import as_metrics, geomean, latency_summary, percentile

BOOTS = 3
#: The open loop is invalid when the generator itself runs this late (p99).
#: It runs 4-5 ms late at p99 on an idle 2-vCPU VM and up to 13 ms when a
#: neighbour loads the host; a generator that cannot keep up runs later
#: by whole solve times.
MAX_LATENESS_MS = 50.0
REFUSALS = ("overloaded", "shutting-down")
#: Longest wait for a reply: a cell's deadline plus the pool watchdog's grace.
REPLY_TIMEOUT = workloads.CELL_TIMEOUT + 20.0
_READ_LIMIT = 1 << 24  # replies carry whole cell results


class Client:
    """One NDJSON connection; replies are matched to requests by ``id``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer
        self._waiting: Dict[str, "asyncio.Future[Tuple[float, Dict[str, Any]]]"] = {}
        self._task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, path: str) -> "Client":
        return cls(*await asyncio.open_unix_connection(path, limit=_READ_LIMIT))

    async def _read(self) -> None:
        while line := await self.reader.readline():
            reply = json.loads(line)
            future = self._waiting.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((time.monotonic(), reply))
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(checks.RunError("the daemon closed the connection"))

    def send(self, request: Dict[str, Any]) -> "asyncio.Future[Tuple[float, Dict[str, Any]]]":
        """Write one request now; the future resolves to (arrival time, reply)."""
        future = asyncio.get_running_loop().create_future()
        self._waiting[request["id"]] = future
        self.writer.write((json.dumps(request) + "\n").encode())
        return future

    async def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        future = self.send(request)
        await self.writer.drain()
        return (await _within(future, REPLY_TIMEOUT))[1]

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self._task


async def _within(awaitable: Any, timeout: float) -> Any:
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise checks.RunError(f"no reply from the daemon within {timeout:.0f} s") from None


async def open_loop(clients: List[Client], arrivals: List[workloads.Arrival]
                    ) -> List[Dict[str, Any]]:
    """Send every arrival when due, round-robin over ``clients``; one record
    per request with its due, send and reply times (monotonic seconds)."""
    start = time.monotonic() + 0.05
    sent: List[Tuple[workloads.Arrival, float, float, asyncio.Future]] = []
    for i, arrival in enumerate(arrivals):
        due = start + arrival.due
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[i % len(clients)]
        at = time.monotonic()
        future = client.send(arrival.request)
        await client.writer.drain()
        sent.append((arrival, due, at, future))
    replies = await _within(asyncio.gather(*(f for *_, f in sent)), REPLY_TIMEOUT)
    return [
        {"arrival": arrival, "due": due, "sent": at, "received": received, "reply": reply}
        for (arrival, due, at, _), (received, reply) in zip(sent, replies)
    ]


def latency_ms(record: Dict[str, Any]) -> float:
    """A request's latency, counted from when it was due, not when it was sent."""
    return (record["received"] - record["due"]) * 1e3


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------
class Daemon:
    """``python -m repro serve`` on a unix socket in a private directory."""

    def __init__(self, workdir: str, slow_log: bool = False):
        os.makedirs(workdir)
        # Relative socket paths (the daemon's from the checkout root, ours
        # from our working directory): an absolute path can be longer than
        # a unix socket address allows.
        path = os.path.join(workdir, "serve.sock")
        self.socket = os.path.relpath(path)
        self.slow_log = os.path.join(workdir, "slow.ndjson") if slow_log else None
        args = [sys.executable, "-m", "repro", "serve", "--unix", os.path.relpath(path, ROOT),
                "--jobs", "1", "--cache-dir", os.path.join(workdir, "cache")]
        if self.slow_log:
            args += ["--slow-log", self.slow_log, "--slow-ms", "0"]
        self._log = open(os.path.join(workdir, "daemon.log"), "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL, stderr=self._log)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the daemon answers a ping; seconds since it was spawned."""
        while True:
            if self.proc.poll() is not None:
                raise checks.RunError(f"serve daemon exited during boot:\n{self.log_tail()}")
            if time.monotonic() - self.started > timeout:
                raise checks.RunError("serve daemon did not answer a ping in time")
            with socket.socket(socket.AF_UNIX) as sock:
                try:
                    sock.connect(self.socket)
                except (FileNotFoundError, ConnectionRefusedError):
                    time.sleep(0.01)
                    continue
                sock.sendall(b'{"id": "ping", "op": "ping"}\n')
                with sock.makefile("rb") as reply:
                    if json.loads(reply.readline()).get("pong"):
                        return time.monotonic() - self.started

    def workers(self) -> List[int]:
        """Pids of the daemon's child processes (its pool workers)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # exited meanwhile
            if ppid == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon and its workers, summed."""
        total = 0.0
        for pid in [self.proc.pid] + self.workers():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024
        return total

    def log_tail(self) -> str:
        self._log.flush()
        with open(self._log.name) as handle:
            return handle.read()[-2000:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the daemon and its workers."""
        workers = self.workers() if self.proc.poll() is None else []
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:  # reparented when the daemon exits: poll, then kill
            deadline = time.monotonic() + 10
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)
        self._log.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
async def _warm_up(path: str, hot_keys: List[str], seed: int) -> Dict[str, Any]:
    """Compile every hot key once, one request at a time, each bracketed by
    speed probes; the first (untimed) request starts the pool worker."""
    client = await Client.open(path)
    try:
        await client.request(workloads.serve_request(hot_keys[0], seed + 1, id="start"))
        warm = []
        before = speed.probe()
        for i, key in enumerate(hot_keys):
            t0 = time.monotonic()
            reply = await client.request(workloads.serve_request(key, seed, id=f"w{i}"))
            raw = time.monotonic() - t0
            after = speed.probe()
            warm.append((key, raw, speed.scaled(raw, before, after), reply))
            before = after
    finally:
        await client.close()
    return {"warm": warm}


async def _open(path: str, arrivals: List[workloads.Arrival]) -> Dict[str, Any]:
    clients = [await Client.open(path) for _ in range(workloads.SERVE_CONNECTIONS)]
    # A collection pause in the generator would send requests late; the
    # replies of one run fit in memory without collecting.
    gc.disable()
    try:
        records = await open_loop(clients, arrivals)
        stats = (await clients[0].request({"id": "stats", "op": "stats"}))["stats"]
    finally:
        gc.enable()
        for client in clients:
            await client.close()
    return {"records": records, "stats": stats}


def _request_key(request: Dict[str, Any]) -> str:
    return request["loop"] if "loop" in request else "fuzz:" + request["spec"]


def run_serve(seed: int, seconds: float, trace: bool, out_dir: str,
              limit: Optional[int] = None) -> Dict[str, Any]:
    """One run of serve-open; returns its record (see ``cli``).

    The boots and the warm-up run with the daemon, its worker and this
    process on one CPU, so the probes taken here measure the CPU the work
    ran on; the open loop runs on every CPU.
    """
    hot_keys = workloads.corpus_keys()[:limit]
    arrivals = workloads.serve_schedule(seed, seconds, hot_keys)
    tmp = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
    daemons: List[Daemon] = []

    boot_seconds: List[Tuple[float, float]] = []  # (reference speed, wall)

    def boot(name: str, before: float, **kwargs: Any) -> float:
        """Spawn a daemon and time its boot; returns the probe taken after."""
        daemons.append(Daemon(os.path.join(tmp, name), **kwargs))
        raw = daemons[-1].wait_ready()
        after = speed.probe()
        boot_seconds.append((speed.scaled(raw, before, after), raw))
        return after

    def alive() -> List[int]:
        return [pid for d in daemons if d.proc.poll() is None
                for pid in (d.proc.pid, *d.workers())]

    try:
        with speed.one_cpu(also=alive):
            probed = speed.probe()
            for i in range(0 if trace else BOOTS - 1):
                probed = boot(f"boot{i}", probed)
                daemons[-1].stop()
            boot("run", probed, slow_log=trace)
            run = asyncio.run(_warm_up(daemons[-1].socket, hot_keys, seed))
        daemon = daemons[-1]
        run.update(asyncio.run(_open(daemon.socket, arrivals)))
        daemon_rss = daemon.peak_rss_mb()
        daemon.stop()
        slow = _read_ndjson(daemon.slow_log) if trace else []
    finally:
        for daemon in daemons:
            if daemon.proc.poll() is None:
                daemon.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return _record(seed, trace, run, boot_seconds, daemon_rss, slow)


def _read_ndjson(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _record(seed: int, trace: bool, run: Dict[str, Any], boots: List[Tuple[float, float]],
            daemon_rss: float, slow: List[Dict[str, Any]]) -> Dict[str, Any]:
    records = run["records"]
    lateness_ms = [(r["sent"] - r["due"]) * 1e3 for r in records]
    late_p99 = percentile(lateness_ms, 99)
    if late_p99 > MAX_LATENESS_MS:
        raise checks.RunError(f"open-loop generator ran late: p99 {late_p99:.1f} ms "
                              f"> {MAX_LATENESS_MS} ms")

    # Every reply is checked; the first reply per loop carries its quality.
    replies = [(key, reply) for key, _, _, reply in run["warm"]]
    replies += [(_request_key(r["arrival"].request), r["reply"]) for r in records]
    first: Dict[str, Dict[str, Any]] = {}
    verdicts: Dict[str, Tuple[List[str], bool]] = {}
    failures: List[str] = []
    failed = 0
    for key, reply in replies:
        name = checks.label(key)
        if not reply.get("ok"):
            code = reply["error"]["code"]
            if code in REFUSALS:
                raise checks.RunError(f"{name}: request refused ({code})")
            failures.append(f"{name}: {code}: {reply['error']['message']}")
            failed += 1
            continue
        result = reply["result"]
        if key not in first:
            first[key] = result
            verdicts[key] = checks.classify(workloads.cell(key, "sgi", {}, seed).to_dict(),
                                            result)
            failures += [f"{name}: {problem}" for problem in verdicts[key][0]]
        else:
            try:
                checks.check_repeat(key, first[key], result)
            except checks.RunError as exc:
                failures.append(f"cache served a different answer: {exc}")
                failed += 1
                continue
        failed += bool(verdicts[key][0])

    record: Dict[str, Any] = {
        "workload": "serve-open", "seed": seed, "trace": trace,
        "attempted": len(replies), "failed": failed, "failures": failures,
        "oracle_nan": [key for key, (_, nan_only) in verdicts.items() if nan_only],
    }
    if trace:
        record["layers"] = _layers(run, slow, late_p99)
        return record

    latency = latency_summary([latency_ms(r) for r in records])
    raw_ms = [raw * 1e3 for _, raw, _, _ in run["warm"]]
    warm_ms = [scaled * 1e3 for _, _, scaled, _ in run["warm"]]
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(s for s, _ in boots),
                    statistics.median(r for _, r in boots), len(boots)),
        "compile_s": (sum(warm_ms) / 1e3, sum(raw_ms) / 1e3, 1),
        "loop_geomean_ms": (geomean(warm_ms), geomean(raw_ms), len(warm_ms)),
        # Open-loop latency is measured under load and not rescaled.
        "req_p50_ms": (latency["p50"], latency["p50"], latency["n"]),
        **checks.quality_metrics(list(first.items())),
        "peak_rss_mb": (own_rss + daemon_rss, None, 1),
    }
    record.update(rounds=1, metrics=as_metrics(metrics), tail=latency, late_p99_ms=late_p99)
    return record


def _layers(run: Dict[str, Any], slow: List[Dict[str, Any]], late_p99: float) -> Dict[str, float]:
    """The serve layer's per-layer metrics, from the slow log and ``stats``."""
    open_loop_entries = [e for e in slow if e["request_id"].startswith("o")]
    hits = [e["latency_ms"] for e in open_loop_entries if e["cached"] == "memory"]
    misses = [e["latency_ms"] for e in open_loop_entries
              if e["cached"] is False and not e["deduped"]]
    stats = run["stats"]
    service, cache = stats["service"], stats["cache"]
    layers = {
        f"serve.{phase}_ms": sum(e["phases_ms"][phase] for e in open_loop_entries)
        for phase in ("admission", "coalesce", "solve", "respond")
    }
    layers.update({
        "serve.hit_p50_ms": percentile(hits, 50) if hits else 0.0,
        "serve.miss_p50_ms": percentile(misses, 50) if misses else 0.0,
        "serve.hit_rate": service["cache"]["hit_rate"] or 0.0,
        "serve.warmup_s": sum(raw for _, raw, _, _ in run["warm"]),
        "serve.queue_depth_max": service["queue"]["depth_max"],
        "serve.dedup": service["cache"]["inflight_dedup"],
        "serve.shed": service["shed"],
        "serve.lru_evictions": cache["memory"]["evictions"],
        "serve.disk_stores": (cache["disk"] or {}).get("stores", 0),
        "serve.late_p99_ms": late_p99,
    })
    return layers
