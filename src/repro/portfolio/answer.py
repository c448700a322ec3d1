"""The common answer type every portfolio backend returns.

A backend is a function ``(formulation, budget knobs) -> BackendAnswer``.
Three answers are possible, with deliberately asymmetric meanings:

* ``sat``     — a witness was found; ``times`` maps op -> issue cycle and
                must pass :func:`repro.portfolio.formulation.check_witness`;
* ``unsat``   — *proven* infeasible at this II and horizon (exhaustive
                search / solver infeasibility certificate), never a budget
                artifact;
* ``unknown`` — the budget (time or nodes) ran out first.  Unknown agrees
                with everything; only definitive answers can disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class BackendAnswer:
    """One backend's verdict on one formulation."""

    backend: str
    answer: str  # SAT | UNSAT | UNKNOWN
    times: Optional[Dict[int, int]] = None
    seconds: float = 0.0
    nodes: int = 0
    detail: str = ""
    objective: Optional[float] = None  # the model's objective value, for sat

    @property
    def definitive(self) -> bool:
        return self.answer in (SAT, UNSAT)


@dataclass
class ProbeRecord:
    """One recorded (II, backend) probe — the agreement oracle's raw data.

    Serialised into ``CellResult.backend_probes`` so the fuzz oracle and
    the differential test suite can audit, after the fact, exactly which
    backend said what at which II.  ``witness_ok`` is the independent
    :func:`~repro.portfolio.formulation.check_witness` verdict for sat
    answers (None otherwise).  The walk stamps the winning sat probe of
    each II it reached with ``allocated`` (did the schedule
    register-allocate?) and ``uncolored`` (live ranges that failed to
    colour); both stay unset, and out of :meth:`to_dict`, elsewhere.
    """

    ii: int
    backend: str
    answer: str
    seconds: float = 0.0
    nodes: int = 0
    witness_ok: Optional[bool] = None
    detail: str = ""
    allocated: Optional[bool] = None
    uncolored: int = 0

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "ii": self.ii,
            "backend": self.backend,
            "answer": self.answer,
            "seconds": self.seconds,
            "nodes": self.nodes,
            "witness_ok": self.witness_ok,
            "detail": self.detail,
        }
        if self.allocated is not None:
            data.update(allocated=self.allocated, uncolored=self.uncolored)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProbeRecord":
        return cls(
            ii=data["ii"],
            backend=data["backend"],
            answer=data["answer"],
            seconds=data.get("seconds", 0.0),
            nodes=data.get("nodes", 0),
            witness_ok=data.get("witness_ok"),
            detail=data.get("detail", ""),
            allocated=data.get("allocated"),
            uncolored=data.get("uncolored", 0),
        )


def probe_disagreements(probes) -> list:
    """Cross-backend contradictions in a probe list (the oracle's core).

    Groups probes by II; any II where one backend answered ``sat`` and
    another ``unsat`` — or where a sat witness failed the independent
    check — yields one human-readable finding string.  ``unknown`` never
    contradicts anything.
    """
    findings = []
    by_ii: Dict[int, list] = {}
    for probe in probes:
        record = probe if isinstance(probe, ProbeRecord) else ProbeRecord.from_dict(probe)
        by_ii.setdefault(record.ii, []).append(record)
    for ii in sorted(by_ii):
        records = by_ii[ii]
        sats = [r for r in records if r.answer == SAT]
        unsats = [r for r in records if r.answer == UNSAT]
        if sats and unsats:
            findings.append(
                f"II={ii}: {'/'.join(sorted(r.backend for r in sats))} answered sat "
                f"but {'/'.join(sorted(r.backend for r in unsats))} answered unsat"
            )
        for record in sats:
            if record.witness_ok is False:
                findings.append(
                    f"II={ii}: {record.backend} sat witness failed the "
                    f"independent check ({record.detail or 'no detail'})"
                )
    return findings
