"""The asyncio front end: TCP + Unix-socket NDJSON servers, graceful drain.

``python -m repro serve`` (``serve_main``) boots this daemon around a
:class:`~repro.serve.service.SchedulerService`.  Each connection reads
one JSON request per line and writes one JSON response per line; requests
on one connection are handled concurrently (a connection can pipeline
many schedule requests and receive the results as they finish, matched
by ``id``).  ``SIGTERM``/``SIGINT`` trigger a graceful drain: listeners
close, queued and in-flight requests finish (bounded by the drain
timeout), new requests are refused with ``shutting-down``, and the
process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..obs.service import render_prometheus
from .protocol import (
    ProtocolError,
    encode,
    error_response,
    parse_line,
    parse_schedule_request,
)
from .service import LoadgenOptions, SchedulerService, ServeConfig


async def handle_payload(service: SchedulerService, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Route one parsed request payload to its operation."""
    op = payload.get("op", "schedule")
    request_id = payload.get("id") if isinstance(payload.get("id"), str) else None
    if op == "ping":
        return {"id": request_id, "ok": True, "pong": True,
                "draining": service.draining}
    if op == "stats":
        return {"id": request_id, "ok": True, "stats": service.stats()}
    if op == "metrics":
        # The wire-level twin of the HTTP metrics listener: the same
        # Prometheus text exposition, for clients already on the socket.
        return {"id": request_id, "ok": True,
                "metrics": render_prometheus(service.metrics)}
    if op == "schedule":
        try:
            request = parse_schedule_request(payload)
        except ProtocolError as exc:
            service.metrics.rejected += 1
            return error_response(request_id, exc.code, str(exc), exc.retry_after)
        return await service.submit(request)
    return error_response(request_id, "bad-request", f"unknown op {op!r}")


class ServeDaemon:
    """Listeners + connection handling around one :class:`SchedulerService`."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 log: Callable[[str], None] = lambda line: print(line, file=sys.stderr, flush=True)):
        if port is None and unix_path is None:
            raise ValueError("daemon needs a TCP port and/or a unix socket path")
        self.service = SchedulerService(config)
        self.host = host or "127.0.0.1"
        self.port = port
        self.unix_path = unix_path
        self.metrics_port = metrics_port
        self.log = log
        self._servers: List[asyncio.AbstractServer] = []
        self._stop = asyncio.Event()
        self._conn_tasks: "set[asyncio.Task]" = set()
        # Open connections, each with its admitted-but-unanswered requests.
        self._connections: "Dict[asyncio.StreamWriter, set[asyncio.Task]]" = {}

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        line_tasks: "set[asyncio.Task]" = set()
        self._connections[writer] = line_tasks

        async def respond(payload: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode(payload))
                await writer.drain()

        async def handle_line(raw: bytes) -> None:
            try:
                payload = parse_line(raw.decode("utf-8", errors="replace"))
            except ProtocolError as exc:
                self.service.metrics.rejected += 1
                await respond(error_response(None, exc.code, str(exc)))
                return
            try:
                response = await handle_payload(self.service, payload)
            except Exception as exc:  # never tear the connection down
                response = error_response(
                    payload.get("id") if isinstance(payload.get("id"), str) else None,
                    "internal", f"unhandled server error: {exc!r}",
                )
            await respond(response)

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                if not raw.strip():
                    continue
                task = asyncio.create_task(handle_line(raw))
                line_tasks.add(task)
                task.add_done_callback(line_tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            # Let already-admitted requests of this connection finish and
            # flush before closing (graceful even on client half-close).
            if line_tasks:
                await asyncio.gather(*line_tasks, return_exceptions=True)
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _close_when_answered(self, writer: asyncio.StreamWriter,
                                   line_tasks: "set[asyncio.Task]") -> None:
        """Close a connection once its admitted requests are answered.

        Closing the transport ends the handler's pending ``readline`` with
        EOF, so an idle client cannot hold the shutdown open.
        """
        while line_tasks:
            await asyncio.wait(list(line_tasks))
        writer.close()

    async def _handle_metrics(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.1 responder for ``GET /metrics`` scrapes.

        Deliberately minimal (stdlib asyncio, close-after-response): a
        Prometheus scrape is one GET, and keeping this off the NDJSON
        port means a scraper never competes with schedule traffic.
        """
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.split()
            path = parts[1] if len(parts) >= 2 else b"/"
            if path in (b"/metrics", b"/"):
                status = b"200 OK"
                body = render_prometheus(self.service.metrics).encode("utf-8")
                ctype = b"text/plain; version=0.0.4; charset=utf-8"
            else:
                status = b"404 Not Found"
                body = b"try /metrics\n"
                ctype = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + ctype + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _track_connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> Awaitable[None]:
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return task

    # -- lifecycle -----------------------------------------------------
    def request_stop(self, signame: str = "request") -> None:
        if not self._stop.is_set():
            self.log(f"serve: {signame} received, draining ...")
            self._stop.set()

    async def run(self, ready: Optional[Callable[["ServeDaemon"], None]] = None) -> int:
        await self.service.start()
        if self.port is not None:
            server = await asyncio.start_server(
                self._track_connection, host=self.host, port=self.port
            )
            self._servers.append(server)
            self.port = server.sockets[0].getsockname()[1]  # resolve port 0
            self.log(f"serve: listening on tcp {self.host}:{self.port}")
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._track_connection, path=self.unix_path
            )
            self._servers.append(server)
            self.log(f"serve: listening on unix {self.unix_path}")
        if self.metrics_port is not None:
            server = await asyncio.start_server(
                self._handle_metrics, host=self.host, port=self.metrics_port
            )
            self._servers.append(server)
            self.metrics_port = server.sockets[0].getsockname()[1]
            self.log(
                f"serve: metrics on http://{self.host}:{self.metrics_port}/metrics"
            )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):  # non-unix / nested loops
                pass
        if ready is not None:
            ready(self)
        self.log("serve: ready")
        await self._stop.wait()

        # Graceful drain: stop accepting, finish what was admitted.
        for server in self._servers:
            server.close()
        drained = await self.service.drain()
        closers = [
            asyncio.create_task(self._close_when_answered(writer, line_tasks))
            for writer, line_tasks in list(self._connections.items())
        ]
        if self._conn_tasks:
            # Bounded: a client that stops reading, or a request still
            # solving after a failed drain, cannot hold the stop open.
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        for closer in closers:
            closer.cancel()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        await self.service.stop(drain=False)
        stats = self.service.metrics
        self.log(
            f"serve: drained={drained} responses={stats.responses} "
            f"errors={stats.errors} shed={stats.shed} "
            f"hit_rate={stats.cache_hit_rate}"
        )
        return 0 if drained else 1


def run_daemon(config: Optional[ServeConfig] = None,
               host: Optional[str] = None, port: Optional[int] = None,
               unix_path: Optional[str] = None,
               metrics_port: Optional[int] = None) -> int:
    """Blocking entry point for the CLI."""
    daemon = ServeDaemon(config, host=host, port=port, unix_path=unix_path,
                         metrics_port=metrics_port)
    try:
        return asyncio.run(daemon.run())
    except KeyboardInterrupt:
        return 0


def serve_main(config: ServeConfig, load: LoadgenOptions, *, host: str,
               port: Optional[int], unix: Optional[str], metrics_port: Optional[int],
               selftest: bool, check_equivalence: bool) -> int:
    """``python -m repro serve``: the daemon on ``port`` and/or ``unix``,
    or with ``selftest`` the load harness ``load`` against an in-process
    one (``check_equivalence`` also re-runs every cell on the direct
    engine); the selftest exits 1 on any problem it finds."""
    if selftest:
        from .loadgen import format_summary, run_selftest

        report, path, problems = run_selftest(
            load, jobs=config.jobs, equivalence=check_equivalence, config=config,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(format_summary(report))
        print(f"wrote {path}")
        if problems:
            print("selftest FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("selftest ok" + (" (daemon matches the direct engine)" if check_equivalence else ""))
        return 0
    if port is None and unix is None:
        raise argparse.ArgumentError(
            None, "daemon mode needs --port and/or --unix (or use --selftest)")
    return run_daemon(config, host=host, port=port, unix_path=unix, metrics_port=metrics_port)
