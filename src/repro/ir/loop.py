"""Loop container: operations + dependence graph + metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .ddg import DDG, DepKind
from .operations import OpClass, Operation


@dataclass
class Loop:
    """An innermost loop ready for software pipelining.

    ``ops`` are the loop-body operations; ``ddg`` the dependence graph over
    them.  ``live_in`` names virtual registers defined before the loop
    (loop invariants and initial values of recurrences); ``live_out`` names
    registers whose final value is used after the loop.  ``trip_count`` is
    the *nominal* trip count used by performance experiments; individual
    experiments may override it.
    """

    name: str
    ops: List[Operation]
    ddg: DDG
    live_in: Set[str] = field(default_factory=set)
    live_out: Set[str] = field(default_factory=set)
    trip_count: int = 100
    # Weight of this loop when aggregating per-benchmark numbers; mirrors
    # the fraction of benchmark runtime spent in the loop.
    weight: float = 1.0
    # Base symbols with compile-time-known double-word parity (0 = even).
    known_parity: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.ops) != self.ddg.n_ops:
            raise ValueError(
                f"loop {self.name!r}: {len(self.ops)} ops but DDG over {self.ddg.n_ops}"
            )
        for i, op in enumerate(self.ops):
            if op.index != i:
                raise ValueError(f"loop {self.name!r}: op at position {i} has index {op.index}")

    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def memory_ops(self) -> List[Operation]:
        return [op for op in self.ops if op.is_memory]

    def defs_of(self) -> Dict[str, int]:
        """Map virtual register -> defining operation index.

        Loop bodies are in single-assignment form: each register has at
        most one definition inside the loop.
        """
        defs: Dict[str, int] = {}
        for op in self.ops:
            for d in op.dests:
                if d in defs:
                    raise ValueError(f"loop {self.name!r}: {d} defined twice")
                defs[d] = op.index
        return defs

    def check_well_formed(self) -> None:
        """Raise ValueError if the loop violates IR invariants.

        Checks single assignment, that every use is covered either by a
        flow arc or by ``live_in``, and that flow arcs name real def/use
        pairs.
        """
        defs = self.defs_of()
        flow_covered: Set[Tuple[int, str]] = set()
        for arc in self.ddg.arcs:
            if arc.kind is not DepKind.FLOW:
                continue
            if arc.value:
                src_op = self.ops[arc.src]
                dst_op = self.ops[arc.dst]
                if arc.value not in src_op.dests:
                    raise ValueError(
                        f"loop {self.name!r}: flow arc {arc.src}->{arc.dst} names "
                        f"{arc.value!r} which op {arc.src} does not define"
                    )
                if arc.value not in dst_op.srcs:
                    raise ValueError(
                        f"loop {self.name!r}: flow arc {arc.src}->{arc.dst} names "
                        f"{arc.value!r} which op {arc.dst} does not read"
                    )
                flow_covered.add((arc.dst, arc.value))
        for op in self.ops:
            for s in op.srcs:
                if s in self.live_in:
                    continue
                if (op.index, s) in flow_covered:
                    continue
                if s in defs:
                    raise ValueError(
                        f"loop {self.name!r}: use of {s!r} by op {op.index} has no flow arc"
                    )
                raise ValueError(
                    f"loop {self.name!r}: op {op.index} reads undefined register {s!r}"
                )

    def op_mix(self) -> Dict[OpClass, int]:
        """Histogram of operation classes, for reporting."""
        mix: Dict[OpClass, int] = {}
        for op in self.ops:
            mix[op.opclass] = mix.get(op.opclass, 0) + 1
        return mix

    def __str__(self) -> str:
        lines = [f"loop {self.name} (trip={self.trip_count}, {self.n_ops} ops)"]
        lines.extend(f"  {op}" for op in self.ops)
        lines.append(f"  arcs: {len(self.ddg.arcs)}")
        return "\n".join(lines)
