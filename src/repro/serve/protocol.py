"""The wire format of the scheduling service: newline-delimited JSON.

One request per line, one response per line, matched by a client-chosen
``id`` (responses may arrive out of order — the service streams each
result back as its cell finishes).  The payload deliberately reuses the
two loop codecs the repo already ships: registry keys from
:mod:`repro.exec.cells` (``livermore:lk01_hydro``) and the serializable
:class:`~repro.workloads.mutate.LoopSpec` token codec (``spec``), which
keeps the format backend-neutral — a future SMT/CP portfolio serves the
same requests.

Request operations::

    {"id": "r1", "op": "schedule", "loop": "livermore:lk01_hydro",
     "scheduler": "sgi", "options": {}, "budget": 20.0}
    {"id": "r2", "op": "schedule", "spec": "<LoopSpec token>",
     "scheduler": "most", "options": {"time_limit": 5.0}}
    {"id": "p",  "op": "ping"}
    {"id": "s",  "op": "stats"}

Responses::

    {"id": "r1", "ok": true, "result": {<CellResult>}, "cached": "memory",
     "deduped": false, "latency_ms": 12.3}
    {"id": "r1", "ok": false,
     "error": {"code": "overloaded", "message": "...", "retry_after": 0.05}}

Error codes: ``bad-request`` (malformed line, unknown fields, or options
the scheduler rejects; the fields are exactly the ones a request is read
for, and ``"oracle": true`` is how a client asks for a verified answer),
``overloaded`` (a new cache miss while the server's limit of outstanding
solves is reached; honour ``retry_after``),
``shutting-down`` (graceful drain in progress), ``internal``.  The
``budget`` is the per-request wall-clock deadline in seconds; the server
clamps it to its configured maximum and enforces it with ``SIGALRM`` on
the main thread of the worker process that runs the cell (see
:mod:`repro.exec.runner`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exec.cells import SCHEDULERS, Cell
from ..schedulers import REGISTRY, without_harness_keys

PROTOCOL_VERSION = 1

#: Machine-readable error codes a response can carry.
ERROR_CODES = ("bad-request", "overloaded", "shutting-down", "internal")

_REQUEST_FIELDS = frozenset(
    {
        "id", "op", "loop", "spec", "scheduler", "options", "budget",
        "seed", "trips", "simulate", "explain", "oracle", "analyze",
    }
)


class ProtocolError(Exception):
    """A request the server refuses; carries the wire error code."""

    def __init__(self, message: str, code: str = "bad-request",
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


@dataclass
class ScheduleRequest:
    """One parsed ``op: schedule`` request."""

    id: str
    scheduler: str
    loop: str
    options: Dict[str, Any] = field(default_factory=dict)
    budget: Optional[float] = None
    seed: int = 0
    trips: Tuple[int, ...] = ()
    simulate: bool = True
    explain: bool = False
    oracle: bool = False
    analyze: bool = True

    def to_cell(self, budget: Optional[float]) -> Cell:
        """The exec cell this request schedules (budget already clamped)."""
        return Cell.make(
            self.loop,
            self.scheduler,
            self.options,
            trips=self.trips,
            seed=self.seed,
            timeout=budget,
            simulate=self.simulate,
            explain=self.explain,
            oracle=self.oracle,
            analyze=self.analyze,
        )


def parse_line(line: str) -> Dict[str, Any]:
    """One NDJSON line into a payload dict, or ``ProtocolError``."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    return payload


def parse_schedule_request(payload: Mapping[str, Any]) -> ScheduleRequest:
    """Validate an ``op: schedule`` payload into a :class:`ScheduleRequest`."""
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ProtocolError(f"unknown request fields: {', '.join(sorted(unknown))}")
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request needs a non-empty string 'id'")
    scheduler = payload.get("scheduler")
    if scheduler not in SCHEDULERS:
        raise ProtocolError(
            f"unknown scheduler {scheduler!r} (expected one of {', '.join(SCHEDULERS)})"
        )
    loop_key = payload.get("loop")
    spec_token = payload.get("spec")
    if (loop_key is None) == (spec_token is None):
        raise ProtocolError("request needs exactly one of 'loop' or 'spec'")
    if spec_token is not None:
        if not isinstance(spec_token, str):
            raise ProtocolError("'spec' must be a LoopSpec token string")
        from ..workloads.mutate import spec_from_token

        try:
            spec_from_token(spec_token)
        except Exception as exc:
            raise ProtocolError(f"'spec' is not a valid LoopSpec token: {exc}") from None
        loop_key = f"fuzz:{spec_token}"
    if not isinstance(loop_key, str) or ":" not in loop_key:
        raise ProtocolError(
            f"'loop' must be a registry key like 'livermore:lk01_hydro', got {loop_key!r}"
        )
    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("'options' must be an object")
    if scheduler in REGISTRY:  # baseline takes no options
        try:
            REGISTRY[scheduler].options_from_dict(without_harness_keys(options))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {scheduler} options: {exc}") from None
    budget = payload.get("budget")
    if budget is not None:
        if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget <= 0:
            raise ProtocolError("'budget' must be a positive number of seconds")
        budget = float(budget)
    trips = payload.get("trips", ())
    if not isinstance(trips, (list, tuple)) or not all(
        isinstance(t, int) and not isinstance(t, bool) and t > 0 for t in trips
    ):
        raise ProtocolError("'trips' must be a list of positive integers")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("'seed' must be an integer")
    flags = {}
    for name, default in (
        ("simulate", True), ("explain", False), ("oracle", False), ("analyze", True),
    ):
        value = payload.get(name, default)
        if not isinstance(value, bool):
            raise ProtocolError(f"'{name}' must be a boolean")
        flags[name] = value
    return ScheduleRequest(
        id=request_id,
        scheduler=scheduler,
        loop=loop_key,
        options=dict(options),
        budget=budget,
        seed=seed,
        trips=tuple(trips),
        **flags,
    )


# ----------------------------------------------------------------------
# Response construction / encoding
# ----------------------------------------------------------------------
def ok_response(
    request_id: str,
    result: Mapping[str, Any],
    cached: Any = False,
    deduped: bool = False,
    latency_ms: float = 0.0,
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": True,
        "result": dict(result),
        "cached": cached,
        "deduped": deduped,
        "latency_ms": latency_ms,
    }


def error_response(
    request_id: Optional[str],
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r} (expected one of {ERROR_CODES})")
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"id": request_id, "ok": False, "error": error}


def encode(payload: Mapping[str, Any]) -> bytes:
    """One response (or request) as a single NDJSON line."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
