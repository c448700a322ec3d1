"""Trace export: JSONL event streams and Chrome trace-event JSON.

Two on-disk forms, one schema:

* **JSONL** — one event object per line, the worker-side spool format.
  Workers append-close their own file; nothing coordinates across
  processes.
* **Chrome trace** — a JSON *array* of the same event objects, sorted by
  timestamp, loadable directly in ``chrome://tracing`` or Perfetto.

Every event carries ``name``/``ph``/``ts``/``pid``/``tid`` (plus ``cat``
and ``args``); :func:`validate_trace_events` enforces that contract and
the span-nesting discipline, and is what ``python -m repro bench --trace``
and the CI smoke lane run.

:func:`atomic_write_text` is the one crash-safe file writer: the result
cache and the run-history store both publish through it.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Iterable, List, Sequence, Union

from .recorder import PHASES, TraceRecorder

PathLike = Union[str, pathlib.Path]

REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` all at once or not at all.

    The text goes to a ``*.tmp`` file in the same directory, renamed over
    ``path`` once complete: a writer killed at any point leaves either
    the old file or the new one, plus at worst a stale ``*.tmp`` that no
    reader globs (the cache's ``prune`` collects them).
    """
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        # mkstemp's 0600 would hide published artifacts from other readers.
        os.fchmod(fd, 0o644)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_jsonl(
    events_or_recorder: Union[TraceRecorder, Iterable[Dict[str, Any]]],
    path: PathLike,
) -> pathlib.Path:
    """Write events (or a recorder's buffer) as JSONL; returns the path."""
    if isinstance(events_or_recorder, TraceRecorder):
        events: Iterable[Dict[str, Any]] = events_or_recorder.snapshot()
    else:
        events = events_or_recorder
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Load one JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with pathlib.Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def merge_jsonl(paths: Sequence[PathLike]) -> List[Dict[str, Any]]:
    """Concatenate per-process JSONL spools into one ts-sorted event list.

    Workers share the wall clock (see :mod:`repro.obs.recorder`), so a
    stable sort by ``ts`` interleaves processes correctly while keeping
    each (pid, tid) lane's span nesting intact.
    """
    events: List[Dict[str, Any]] = []
    for path in paths:
        events.extend(read_jsonl(path))
    events.sort(key=lambda e: e.get("ts", 0))
    return events


def write_chrome_trace(
    events_or_recorder: Union[TraceRecorder, Iterable[Dict[str, Any]]],
    path: PathLike,
) -> pathlib.Path:
    """Write a Chrome trace-event file (the JSON-array form); returns the path."""
    if isinstance(events_or_recorder, TraceRecorder):
        events = events_or_recorder.snapshot()
    else:
        events = list(events_or_recorder)
    events.sort(key=lambda e: e.get("ts", 0))
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(events, sort_keys=True) + "\n")
    return path


def validate_trace_events(events: Any) -> List[str]:
    """Schema and nesting problems of a trace-event payload (empty = valid).

    Checks the acceptance contract of the Chrome export:

    * the payload is a JSON array of objects;
    * every event carries ``name``/``ph``/``ts``/``pid``/``tid`` and a
      known phase;
    * per (pid, tid) lane, timestamps are monotonically non-decreasing and
      ``B``/``E`` span events nest: every ``E`` closes the innermost open
      ``B`` of the same name, and no lane ends with open spans.
    """
    problems: List[str] = []
    if not isinstance(events, list):
        return [f"trace payload is {type(events).__name__}, not a JSON array"]
    lanes: Dict[tuple, List[str]] = {}
    last_ts: Dict[tuple, int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is {type(event).__name__}, not an object")
            continue
        missing = [key for key in REQUIRED_KEYS if key not in event]
        if missing:
            problems.append(f"event {i} misses required keys {missing}")
            continue
        if event["ph"] not in PHASES:
            problems.append(f"event {i} has unknown phase {event['ph']!r}")
            continue
        lane = (event["pid"], event["tid"])
        ts = event["ts"]
        if lane in last_ts and ts < last_ts[lane]:
            problems.append(
                f"event {i} ({event['name']!r}) goes back in time on lane {lane}: "
                f"{ts} < {last_ts[lane]}"
            )
        last_ts[lane] = ts
        stack = lanes.setdefault(lane, [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            if not stack:
                problems.append(
                    f"event {i} ends span {event['name']!r} with none open on lane {lane}"
                )
            elif stack[-1] != event["name"]:
                problems.append(
                    f"event {i} ends span {event['name']!r} but {stack[-1]!r} is innermost"
                )
            else:
                stack.pop()
    for lane, stack in lanes.items():
        if stack:
            problems.append(f"lane {lane} ends with open spans {stack}")
    return problems


def validate_chrome_trace_file(path: PathLike) -> List[str]:
    """Parse and validate a Chrome trace file on disk (empty list = valid)."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse {path}: {exc}"]
    return validate_trace_events(payload)
