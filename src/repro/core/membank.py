"""Memory-bank pairing heuristic (Section 2.9).

The R8000 issues two memory references per cycle into a two-banked
streaming cache with a one-element overflow queue (the "bellows").  Two
same-cycle references to the same bank queue one of them; a full queue
stalls the processor.  The MIPSpro heuristic schedules *known even-odd
pairs* of references in the same cycle so that dual-issued references
provably hit opposite banks.

``BankPairer`` precomputes, for each memory operation ``m``, the priority-
ordered list ``L(m)`` of references known to hit the opposite bank, and
tracks how many pairs a schedule at a given II still needs: with ``R``
references and ``II`` cycles on a 2-port machine, at least ``R - II``
cycles must dual-issue, so ideally that many scheduled pairs are known
even-odd pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.loop import Loop
from ..ir.operations import MemRef, relative_bank


class BankPairer:
    """Pairing state for one scheduling attempt at a fixed II."""

    def __init__(self, loop: Loop, ii: int, priority: Sequence[int]):
        self.loop = loop
        self.ii = ii
        rank = {op: i for i, op in enumerate(priority)}
        mem_ops = [op.index for op in loop.ops if op.is_memory]
        self._partners: Dict[int, List[int]] = {}
        for m in mem_ops:
            partners = [
                other
                for other in mem_ops
                if other != m and self.relative_bank_of(m, other) == 1
            ]
            partners.sort(key=lambda op: rank.get(op, len(rank)))
            if partners:
                self._partners[m] = partners
        n_refs = len(mem_ops)
        self.pairs_needed = max(0, n_refs - ii)
        self.pairs_scheduled = 0
        self._paired: Dict[int, int] = {}  # op -> its pair mate (symmetric)
        # Memo for runtime_relative_bank: the answer is a pure function of
        # the op pair and the pipestage gap (independent of II, priority
        # order and pairing state), so the cache lives on the *loop* and is
        # shared by every pairer built for it — each scheduling attempt
        # constructs a fresh BankPairer but asks the same few questions.
        memo = getattr(loop, "_runtime_bank_memo", None)
        if memo is None:
            memo = loop._runtime_bank_memo = {}
        self._runtime_bank: Dict[tuple, Optional[int]] = memo

    def relative_bank_of(self, a: int, b: int) -> "Optional[int]":
        """Compile-time relative bank of two memory operations, using any
        base parities the loop declares known (incl. spill slots)."""
        ma, mb = self.loop.ops[a].mem, self.loop.ops[b].mem
        if ma is None or mb is None:
            return None
        return relative_bank(ma, mb, self.loop.known_parity)

    def runtime_relative_bank(self, a: int, ta: int, b: int, tb: int) -> "Optional[int]":
        """Relative bank of the two *instances* that share a steady-state
        cycle when ``a`` issues at ``ta`` and ``b`` at ``tb``.

        Operations in the same modulo slot but different pipestages execute
        together with iteration indices differing by the stage gap, which
        shifts the second reference's effective offset by ``delta*stride``;
        a pair that is opposite-bank within one iteration can be same-bank
        across stages and vice versa.
        """
        diff = ta - tb
        if diff % self.ii != 0:
            return None  # different slots never share a steady-state cycle
        delta = diff // self.ii
        key = (a, b, delta)
        memo = self._runtime_bank
        if key in memo:
            return memo[key]
        ma, mb = self.loop.ops[a].mem, self.loop.ops[b].mem
        if ma is None or mb is None:
            memo[key] = None
            return None
        if mb.is_direct and delta:
            mb = MemRef(
                base=mb.base,
                offset=mb.offset + delta * mb.stride,
                stride=mb.stride,
                width=mb.width,
                is_store=mb.is_store,
            )
        result = relative_bank(ma, mb, self.loop.known_parity)
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    def is_pairable(self, op: int) -> bool:
        return op in self._partners

    def partners_of(self, op: int) -> List[int]:
        """The prioritized list L(op) of known opposite-bank references."""
        return self._partners.get(op, [])

    def want_more_pairs(self) -> bool:
        return self.pairs_scheduled < self.pairs_needed

    def mate_of(self, op: int) -> Optional[int]:
        return self._paired.get(op)

    def note_pair(self, a: int, b: int) -> None:
        if a in self._paired or b in self._paired:
            raise ValueError(f"op {a} or {b} already paired")
        self._paired[a] = b
        self._paired[b] = a
        self.pairs_scheduled += 1

    def unnote(self, op: int) -> Optional[int]:
        """Dissolve the pair containing ``op`` (when either side unschedules).

        Returns the former mate, if any.
        """
        mate = self._paired.pop(op, None)
        if mate is not None:
            del self._paired[mate]
            self.pairs_scheduled -= 1
        return mate
