"""The latency-instrumented load harness for the scheduling daemon.

Replays the committed workloads through the NDJSON wire protocol at a
configurable concurrency and records what a serving system is judged by:
request latency percentiles (client-measured, p50/p99), throughput,
cache hit rate, shed/error counts — written as
``benchmarks/output/BENCH_service.json`` next to its batch cousins.

The request mix is the *quick bench grid* (livermore + recbound × three
schedulers, with the exact scheduler options the batch bench uses, so a
daemon round-trip is directly comparable to a ``repro bench --quick``
cell) plus the committed fuzz corpus specs riding through the LoopSpec
token codec with the oracle layers on.  Two phases:

* **warm** — every distinct request once, at full concurrency (all
  misses: this is the solve wave);
* **replay** — the remaining request budget cycles over the same mix in
  a seeded shuffle (all warm hits — memory or disk tier), which is what
  pushes the steady-state hit rate past 50% and measures the cache tier
  rather than the solver.

``python -m repro serve --selftest`` boots an in-process daemon on a
temporary unix socket, runs this harness against it, and (optionally)
re-runs every distinct cell through the direct exec engine to assert the
daemon is result-identical to batch execution.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exec.bench import summarise, write_bench_json
from ..exec.cells import CellResult, corpus_loop_keys
from ..exec.hashing import code_version
from ..exec.verdict import format_violation
from ..obs.history import append_history
from ..obs.provenance import provenance
from ..obs.service import LatencyStats
from .protocol import encode, parse_line
from .service import LoadgenOptions, ServeConfig


def corpus_spec_tokens(fuzz_corpus_dir) -> List[Tuple[str, str]]:
    """Distinct ``(name, token)`` pairs from the committed fuzz corpus."""
    from ..workloads.mutate import LoopSpec, spec_to_token

    directory = pathlib.Path(fuzz_corpus_dir)
    if not directory.is_dir():
        return []
    seen: Dict[str, str] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
            token = spec_to_token(LoopSpec.from_dict(entry["spec"]))
        except (ValueError, KeyError, OSError):
            continue
        fingerprint = entry.get("fingerprint", token)
        seen.setdefault(fingerprint, token)
    return [(fp[:12], token) for fp, token in sorted(seen.items())]


def build_request_specs(options: LoadgenOptions) -> List[Dict[str, Any]]:
    """The distinct request payloads of the mix (ids filled in later)."""
    bench = options.bench_options()
    # The fuzz-derived lanes run the exec oracle, so a verify or funcsim
    # regression shows up in BENCH_service.json's totals.violations.
    loops = [
        ({"loop": key}, {"simulate": options.simulate})
        for corpus in options.corpora
        for key in corpus_loop_keys(corpus)
    ]
    if options.fuzz_corpus_dir:
        loops += [
            ({"spec": token}, {"simulate": options.simulate, "oracle": True})
            for _, token in corpus_spec_tokens(options.fuzz_corpus_dir)
        ]
    return [
        {
            "op": "schedule",
            **loop,
            "scheduler": scheduler,
            "options": bench.scheduler_options(scheduler),
            "budget": options.budget,
            "seed": bench.seed,
            **flags,
            "analyze": True,
        }
        for loop, flags in loops
        for scheduler in options.schedulers
    ]


@dataclass
class RequestRecord:
    """One request/response pair, client-side view."""

    spec_index: int
    phase: str                      # "warm" | "replay"
    ok: bool = False
    cached: Any = False
    deduped: bool = False
    latency_ms: float = 0.0
    error_code: Optional[str] = None
    result: Optional[Dict[str, Any]] = None


@dataclass
class LoadReport:
    """Everything one session measured."""

    options: LoadgenOptions
    connect: str
    specs: List[Dict[str, Any]] = field(default_factory=list)
    records: List[RequestRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    server_stats: Optional[Dict[str, Any]] = None
    protocol_errors: int = 0

    # -- derived -------------------------------------------------------
    @property
    def responses(self) -> int:
        return len(self.records)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def hit_rate(self) -> Optional[float]:
        return self.hits / self.responses if self.responses else None

    def latency(self, phase: Optional[str] = None) -> LatencyStats:
        stats = LatencyStats()
        for record in self.records:
            if phase is None or record.phase == phase:
                stats.record(record.latency_ms)
        return stats


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
async def _open(connect: str):
    """``unix:<path>`` or ``tcp:<host>:<port>`` to (reader, writer)."""
    kind, _, rest = connect.partition(":")
    if kind == "unix":
        return await asyncio.open_unix_connection(rest)
    if kind == "tcp":
        host, _, port = rest.rpartition(":")
        return await asyncio.open_connection(host, int(port))
    raise ValueError(f"connect must be unix:<path> or tcp:<host>:<port>, got {connect!r}")


async def _client_worker(
    connect: str,
    jobs: "asyncio.Queue[Optional[Tuple[int, str, Dict[str, Any]]]]",
    report: LoadReport,
    retry_limit: int = 50,
) -> None:
    """One connection pulling requests off the shared queue.

    An ``overloaded`` response is honoured: back off ``retry_after`` and
    retry the same request (counted once, at final latency) — the load
    generator models a well-behaved client.
    """
    reader, writer = await _open(connect)
    try:
        while True:
            job = await jobs.get()
            if job is None:
                return
            spec_index, phase, payload = job
            started = time.perf_counter()
            record = RequestRecord(spec_index=spec_index, phase=phase)
            for _ in range(retry_limit):
                writer.write(encode(payload))
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    report.protocol_errors += 1
                    report.records.append(record)
                    return
                try:
                    response = parse_line(raw.decode())
                except Exception:
                    report.protocol_errors += 1
                    break
                if response.get("id") != payload["id"]:
                    report.protocol_errors += 1
                    break
                error = response.get("error") or {}
                if not response.get("ok") and error.get("code") == "overloaded":
                    await asyncio.sleep(float(error.get("retry_after") or 0.05))
                    continue
                record.ok = bool(response.get("ok"))
                record.cached = response.get("cached", False)
                record.deduped = bool(response.get("deduped"))
                record.result = response.get("result")
                if not record.ok:
                    record.error_code = error.get("code")
                    report.protocol_errors += 1
                break
            record.latency_ms = (time.perf_counter() - started) * 1e3
            report.records.append(record)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def fetch_server_stats(connect: str) -> Optional[Dict[str, Any]]:
    try:
        reader, writer = await _open(connect)
    except OSError:
        return None
    try:
        writer.write(encode({"id": "loadgen-stats", "op": "stats"}))
        await writer.drain()
        raw = await reader.readline()
        response = parse_line(raw.decode())
        return response.get("stats")
    except Exception:
        return None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def run_loadgen(connect: str, options: Optional[LoadgenOptions] = None,
                      log=lambda line: None) -> LoadReport:
    """Drive one warm + replay session against a running daemon."""
    options = options or LoadgenOptions()
    specs = build_request_specs(options)
    report = LoadReport(options=options, connect=connect, specs=specs)
    rng = random.Random(options.seed)

    warm = list(range(len(specs)))
    rng.shuffle(warm)
    replay_budget = max(0, options.requests - len(warm))
    replay: List[int] = []
    while len(replay) < replay_budget:
        wave = list(range(len(specs)))
        rng.shuffle(wave)
        replay.extend(wave)
    replay = replay[:replay_budget]

    started = time.perf_counter()
    for phase, indices in (("warm", warm), ("replay", replay)):
        jobs: "asyncio.Queue[Optional[Tuple[int, str, Dict[str, Any]]]]" = asyncio.Queue()
        for serial, index in enumerate(indices):
            payload = dict(specs[index])
            payload["id"] = f"{phase}-{serial}-{index}"
            jobs.put_nowait((index, phase, payload))
        n_workers = min(options.concurrency, max(1, jobs.qsize()))
        for _ in range(n_workers):
            jobs.put_nowait(None)
        log(f"loadgen: {phase} phase, {len(indices)} requests, "
            f"concurrency {n_workers}")
        workers = [
            asyncio.create_task(_client_worker(connect, jobs, report))
            for _ in range(n_workers)
        ]
        await asyncio.gather(*workers)
    report.wall_seconds = time.perf_counter() - started
    report.server_stats = await fetch_server_stats(connect)
    return report


# ----------------------------------------------------------------------
# BENCH_service.json emission
# ----------------------------------------------------------------------
def build_service_report(report: LoadReport) -> Dict[str, Any]:
    """The BENCH payload: distinct cells + the service block."""
    options = report.options
    by_spec: Dict[int, List[RequestRecord]] = {}
    for record in report.records:
        by_spec.setdefault(record.spec_index, []).append(record)

    cells: List[Dict[str, Any]] = []
    results: List[CellResult] = []
    for index, spec in enumerate(report.specs):
        records = by_spec.get(index, [])
        solved = next((r.result for r in records if r.result), None)
        if solved is None:
            continue
        cell = dict(solved)
        # Per-cell service accounting rides along; the diff layer ignores
        # these (latency is warn-only at the totals level).
        stats = LatencyStats()
        for record in records:
            stats.record(record.latency_ms)
        cell["service_requests"] = len(records)
        cell["service_hits"] = sum(1 for r in records if r.cached)
        cell["service_latency_ms"] = stats.to_dict()
        cells.append(cell)
        results.append(CellResult.from_dict(solved))

    totals = summarise(results)
    overall = report.latency()
    totals["service"] = {
        "requests": report.responses,
        "concurrency": options.concurrency,
        "distinct_cells": len(cells),
        "protocol_errors": report.protocol_errors,
        "hit_rate": report.hit_rate,
        "hits": report.hits,
        "throughput_rps": (
            report.responses / report.wall_seconds if report.wall_seconds else None
        ),
        "latency_ms": overall.to_dict(),
        "latency_ms_warm": report.latency("warm").to_dict(),
        "latency_ms_replay": report.latency("replay").to_dict(),
        "server": report.server_stats,
    }
    return {
        "name": "service",
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "code_version": code_version(),
        "provenance": provenance(),
        "machine": "r8000",
        "connect": report.connect,
        "concurrency": options.concurrency,
        "requests": report.responses,
        "seed": options.seed,
        "wall_seconds": report.wall_seconds,
        "totals": totals,
        "cells": cells,
    }


def write_service_report(report: LoadReport) -> Tuple[Dict[str, Any], pathlib.Path]:
    """Write ``BENCH_service.json`` (and file it in the history store);
    returns the payload and its path."""
    payload = build_service_report(report)
    append_history(payload, history_dir=report.options.history_dir)
    return payload, write_bench_json(payload, report.options.output_dir)


def format_summary(report: LoadReport) -> str:
    overall = report.latency()
    replay = report.latency("replay")
    lines = [
        f"{report.responses} responses over {report.wall_seconds:.1f}s "
        f"at concurrency {report.options.concurrency} "
        f"({report.responses / report.wall_seconds:.1f} req/s)"
        if report.wall_seconds else f"{report.responses} responses",
        f"latency p50 {overall.percentile(50):.1f}ms  "
        f"p99 {overall.percentile(99):.1f}ms  max {overall.max_ms:.1f}ms"
        if overall.count else "no latency samples",
    ]
    if replay.count:
        lines.append(
            f"replay-phase latency p50 {replay.percentile(50):.1f}ms  "
            f"p99 {replay.percentile(99):.1f}ms"
        )
    hit_rate = report.hit_rate
    lines.append(
        f"cache hit rate {hit_rate:.1%} ({report.hits}/{report.responses}); "
        f"protocol errors {report.protocol_errors}"
        if hit_rate is not None else "no responses"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Selftest: boot an in-process daemon, load it, check the answers
# ----------------------------------------------------------------------
async def _selftest_async(options: LoadgenOptions, config, log) -> LoadReport:
    import os
    import tempfile
    from dataclasses import replace

    from .daemon import ServeDaemon

    with tempfile.TemporaryDirectory(prefix="repro-serve-selftest-") as tmp:
        sock = os.path.join(tmp, "serve.sock")
        # A fresh cache dir: the warm phase really solves (no carry-over
        # hits) and the equivalence check is against real daemon output.
        config = replace(config, cache_dir=os.path.join(tmp, "cache"))
        daemon = ServeDaemon(config, unix_path=sock, log=log)
        ready = asyncio.Event()
        task = asyncio.create_task(daemon.run(ready=lambda _d: ready.set()))
        await ready.wait()
        try:
            report = await run_loadgen(f"unix:{sock}", options, log=log)
        finally:
            daemon.request_stop("selftest complete")
            await task
        return report


def run_selftest(options: Optional[LoadgenOptions] = None, jobs: int = 2,
                 equivalence: bool = False, config=None,
                 log=lambda line: None):
    """Boot a daemon on a temporary unix socket, run the load harness
    against it, write ``BENCH_service.json`` and (optionally) assert the
    daemon answers match the direct exec engine.

    Returns ``(report, bench_path, problems)`` — ``problems`` is the
    combined gate: protocol errors, non-ok responses, the violations of
    the written json's verdict (``totals.violations``) and any
    equivalence mismatches, empty on a clean pass.
    """
    options = options or LoadgenOptions()
    if config is None:
        config = ServeConfig(jobs=jobs)
    report = asyncio.run(_selftest_async(options, config, log))
    payload, bench_path = write_service_report(report)
    problems: List[str] = []
    if report.protocol_errors:
        problems.append(f"{report.protocol_errors} protocol errors")
    bad = [r for r in report.records if not r.ok]
    if bad:
        problems.append(f"{len(bad)} non-ok responses "
                        f"(codes: {sorted({r.error_code for r in bad})})")
    problems += [f"violation: {format_violation(v)}" for v in payload["totals"]["violations"]]
    if equivalence:
        log("loadgen: checking daemon results against the direct engine ...")
        problems.extend(check_equivalence(report, jobs=jobs))
    return report, bench_path, problems


# ----------------------------------------------------------------------
# Equivalence against the direct exec engine
# ----------------------------------------------------------------------
#: Result fields that must be identical between a daemon round-trip and a
#: direct engine run of the same cell (the quality contract; timings and
#: cache bookkeeping excluded by construction).
EQUIVALENCE_FIELDS = (
    "success", "ii", "min_ii", "n_stages", "registers_used",
    "overhead_cycles", "sim_cycles", "spill_rounds", "timeout", "fallback",
    "optimal", "producer", "order_name", "verify_errors", "funcsim_ok",
    "refined_bound",
)


def check_equivalence(report: LoadReport, jobs: int = 2) -> List[str]:
    """Re-run every distinct cell through the direct engine; return
    human-readable mismatches (empty = daemon is result-identical)."""
    from ..exec.engine import ExecEngine
    from .protocol import parse_schedule_request

    config = ServeConfig()
    problems: List[str] = []
    cells = []
    daemon_results: List[Dict[str, Any]] = []
    by_spec: Dict[int, Optional[Dict[str, Any]]] = {}
    for record in report.records:
        if record.result is not None:
            by_spec.setdefault(record.spec_index, record.result)
    for index, spec in enumerate(report.specs):
        solved = by_spec.get(index)
        if solved is None:
            continue
        payload = dict(spec)
        payload["id"] = f"eq-{index}"
        request = parse_schedule_request(payload)
        budget = request.budget if request.budget is not None else config.default_budget
        cells.append(request.to_cell(min(budget, config.max_budget)))
        daemon_results.append(solved)

    engine = ExecEngine(jobs=jobs, cache=None)
    direct = engine.run(cells)
    for cell, daemon_payload in zip(cells, daemon_results):
        direct_payload = direct[cell].to_dict()
        for name in EQUIVALENCE_FIELDS:
            if direct_payload.get(name) != daemon_payload.get(name):
                problems.append(
                    f"{cell.loop} × {cell.scheduler}: {name} differs "
                    f"(direct {direct_payload.get(name)!r} vs "
                    f"daemon {daemon_payload.get(name)!r})"
                )
    return problems
