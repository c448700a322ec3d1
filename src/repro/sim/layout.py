"""Concrete data layout for simulating a loop's memory behaviour.

The compiler reasons about symbolic references; the simulators need real
addresses.  ``DataLayout`` assigns each base symbol a region big enough for
every reference over the simulated trip count, honouring any double-word
parity the loop declares known (``Loop.known_parity``) and giving the rest
deterministic pseudo-random parities — at run time every address *has* a
bank, whether or not the compiler could predict it.

Indirect references (``offset is None``) draw a deterministic per-operation
pseudo-random address stream inside their base's region, mirroring the
pointer chases of mdljdp2 (Section 4.3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.loop import Loop

_INDIRECT_REGION = 4096  # bytes reserved for each indirectly addressed base


def _stable_hash(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class DataLayout:
    """Concrete base addresses for one loop at one trip count."""

    loop: Loop
    trip_count: int
    seed: int = 0
    bases: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # [lo, hi) addresses of each spilled invariant's region, by name.
        self._spill_regions: List[Tuple[int, int, str]] = []
        # Addresses and initial contents are pure functions of the layout;
        # every run on it (a check's sequential and pipelined runs, the
        # simulator's indirect streams) hashes each one once.
        self._addresses: Dict[Tuple[int, int], int] = {}
        self._streams: Dict[Tuple[int, int], List[int]] = {}
        self._initial: Dict[int, float] = {}
        cursor = 0x1000_0000
        extents: Dict[str, Tuple[int, int]] = {}
        for op in self.loop.memory_ops():
            m = op.mem
            if not m.is_direct:
                lo, hi = extents.get(m.base, (0, _INDIRECT_REGION))
                extents[m.base] = (min(lo, 0), max(hi, _INDIRECT_REGION))
                continue
            first = m.offset
            last = m.offset + (self.trip_count - 1) * m.stride
            lo, hi = min(first, last), max(first, last) + m.width
            old = extents.get(m.base)
            if old is not None:
                lo, hi = min(lo, old[0]), max(hi, old[1])
            extents[m.base] = (lo, hi)
        for base in sorted(extents):
            lo, hi = extents[base]
            start = cursor - lo  # base address such that lowest ref >= cursor
            # Align the base itself to 16 bytes, then fix its parity.
            start = (start + 15) & ~15
            parity = self.loop.known_parity.get(base)
            if parity is None:
                parity = _stable_hash("parity", self.seed, base) % 2
            if ((start >> 3) & 1) != parity:
                start += 8
            self.bases[base] = start
            if base.startswith("__spill_"):
                self._spill_regions.append((start + lo, start + hi, base[len("__spill_") :]))
            cursor = start + hi + 64  # pad between regions

    # ------------------------------------------------------------------
    def address(self, op_index: int, iteration: int) -> int:
        """Concrete address of memory operation ``op_index`` at ``iteration``."""
        addr = self._addresses.get((op_index, iteration))
        if addr is None:
            addr = self._addresses[op_index, iteration] = self._address(op_index, iteration)
        return addr

    def addresses(self, op_index: int, trips: int) -> List[int]:
        """``address(op_index, n)`` for every iteration ``n < trips``."""
        stream = self._streams.get((op_index, trips))
        if stream is None:
            m = self.loop.ops[op_index].mem
            if m is not None and m.is_direct:
                base_addr = self.bases[m.base]
                stream = [m.address(base_addr, n) for n in range(trips)]
            else:
                stream = [self.address(op_index, n) for n in range(trips)]
            self._streams[op_index, trips] = stream
        return stream

    def _address(self, op_index: int, iteration: int) -> int:
        m = self.loop.ops[op_index].mem
        if m is None:
            raise ValueError(f"op {op_index} is not a memory operation")
        base_addr = self.bases[m.base]
        if m.is_direct:
            return m.address(base_addr, iteration)
        # Deterministic pseudo-random stream inside the base's region,
        # aligned to the access width.
        span = _INDIRECT_REGION - m.width
        raw = _stable_hash("indirect", self.seed, m.base, op_index, iteration) % span
        return base_addr + (raw // m.width) * m.width

    def bank(self, op_index: int, iteration: int) -> int:
        """Memory bank (0/1) hit by this reference at run time."""
        return (self.address(op_index, iteration) >> 3) & 1

    def live_in_value(self, name: str) -> float:
        """Deterministic initial value of a live-in virtual register.

        Unroll copies (``name~k``) share the base name's value, so an
        unrolled loop is a drop-in semantic replacement for its original.
        """
        base = name.split("~", 1)[0]
        return ((_stable_hash("livein", self.seed, base) % 2_000_001) - 1_000_000) / 1e4

    def initial_value(self, addr: int) -> float:
        """Deterministic initial memory contents.

        Addresses inside a spilled-invariant region (``__spill_<name>``,
        created when register pressure forces a loop invariant to be
        reloaded from memory) hold that invariant's live-in value.
        """
        value = self._initial.get(addr)
        if value is None:
            value = self._initial[addr] = self._initial_value(addr)
        return value

    def _initial_value(self, addr: int) -> float:
        for lo, hi, name in self._spill_regions:
            if lo <= addr < hi:
                return self.live_in_value(name)
        return ((_stable_hash("mem", self.seed, addr) % 2_000_001) - 1_000_000) / 1e4
