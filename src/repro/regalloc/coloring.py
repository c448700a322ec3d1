"""Chaitin-Briggs graph colouring over cyclic live ranges (Section 2.6).

The modulo-renamed live ranges feed "a standard global register allocator
that uses the Chaitin-Briggs algorithm with minor modifications"
[BrCoKeTo89, Briggs92]: build the interference graph, *simplify* by
repeatedly removing nodes of insignificant degree, push potential spills
optimistically, then *select* colours in reverse order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..ir.operations import RegClass
from ..obs import get_recorder
from .rename import LiveRange, RenamedKernel


@dataclass
class InterferenceGraph:
    """Interference graph over one register class's live ranges.

    ``nodes`` are in name order and indexed by position; ``masks[i]`` has
    bit ``j`` set when ``nodes[i]`` and ``nodes[j]`` interfere (exactly
    :meth:`LiveRange.overlaps`).
    """

    nodes: List[LiveRange]
    masks: List[int]

    @classmethod
    def build(cls, ranges: Sequence[LiveRange], period: int) -> "InterferenceGraph":
        """Build from the arcs' start points, without a pairwise test.

        A full-period range interferes with every other one.  Two arcs
        interfere when either starts inside the other, so arc ``a``'s
        neighbours are the ranges starting in ``a`` (a start-sorted prefix
        mask and ``bisect``) plus the ranges live at ``a.start`` (one sweep
        over the arcs' start and end points).
        """
        nodes = sorted(ranges, key=lambda r: r.name)
        repeated = sorted({a.name for a, b in zip(nodes, nodes[1:]) if a.name == b.name})
        if repeated:
            raise ValueError(f"duplicate live-range names: {', '.join(repeated)}")
        everyone = (1 << len(nodes)) - 1
        full = 0
        arcs: List[Tuple[int, int, int]] = []  # (start, length, node index)
        for i, r in enumerate(nodes):
            if r.length >= period:
                full |= 1 << i
            else:
                arcs.append((r.start % period, r.length, i))
        arcs.sort()
        starts = [start for start, _, _ in arcs]
        prefix = [0]  # prefix[j]: the first j arcs by start
        begins: Dict[int, int] = {}
        ends: Dict[int, int] = {}
        live = 0  # arcs that wrap past the period: live at cycle 0
        for start, length, i in arcs:
            bit = 1 << i
            prefix.append(prefix[-1] | bit)
            begins[start] = begins.get(start, 0)  # every start is a sweep point
            if length <= 0:
                continue  # an empty arc is never live
            begins[start] |= bit
            end = start + length
            if end > period:
                live |= bit
                end -= period
            end %= period
            ends[end] = ends.get(end, 0) | bit
        live_at: Dict[int, int] = {}
        for cycle in sorted(begins.keys() | ends.keys()):
            live = (live & ~ends.get(cycle, 0)) | begins.get(cycle, 0)
            live_at[cycle] = live
        masks = [everyone & ~(1 << i) if (full >> i) & 1 else 0 for i in range(len(nodes))]
        for start, length, i in arcs:
            lo = bisect_left(starts, start)
            end = start + length
            if end <= period:
                inside = prefix[bisect_left(starts, end, lo)] & ~prefix[lo]
            else:
                inside = (prefix[-1] & ~prefix[lo]) | prefix[bisect_left(starts, end - period)]
            masks[i] = (inside | live_at[start] | full) & ~(1 << i)
        return cls(nodes=nodes, masks=masks)

    @property
    def adjacency(self) -> Dict[str, Set[str]]:
        """Neighbour names by node name (derived from :attr:`masks`)."""
        return {
            r.name: {self.nodes[j].name for j in _bits(mask)}
            for r, mask in zip(self.nodes, self.masks)
        }

    def degree(self, name: str) -> int:
        for r, mask in zip(self.nodes, self.masks):
            if r.name == name:
                return mask.bit_count()
        raise KeyError(name)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class ColoringResult:
    assignment: Dict[str, int]  # live-range name -> colour
    uncolored: List[LiveRange]

    @property
    def success(self) -> bool:
        return not self.uncolored

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values())) if self.assignment else 0


def color_graph(graph: InterferenceGraph, k: int) -> ColoringResult:
    """Colour with at most ``k`` colours; optimistic (Briggs) spilling."""
    nodes, masks = graph.nodes, graph.masks
    remaining = (1 << len(nodes)) - 1
    # Degrees as bit-sliced counters: bit i of planes[b] is bit b of node
    # i's degree among the remaining nodes.  Nodes are in name order, so
    # the lowest set bit of a candidate mask is its first name.
    by_degree: Dict[int, int] = {}
    for i, mask in enumerate(masks):
        d = mask.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    planes = [0] * max(by_degree, default=0).bit_length()
    for d, members in by_degree.items():
        for b in range(d.bit_length()):
            if d >> b & 1:
                planes[b] |= members
    top = range(len(planes) - 1, -1, -1)
    ratio_groups: List[int] = []  # nodes by spill ratio, highest first; built on demand
    group = 0
    stack: List[int] = []
    simplify_steps = 0
    optimistic_pushes = 0

    while remaining:
        # Simplify: the lowest (degree, name) node, if its degree is below k.
        candidates, least = remaining, 0
        for b in top:
            zeros = candidates & ~planes[b]
            if zeros:
                candidates = zeros
            else:
                least |= 1 << b
        if least < k:
            node = (candidates & -candidates).bit_length() - 1
            simplify_steps += 1
        else:
            # Potential spill: the worst (spill ratio, degree, name) node,
            # pushed optimistically.
            if not ratio_groups:
                by_ratio: Dict[float, int] = {}
                for i, r in enumerate(nodes):
                    by_ratio[r.spill_ratio] = by_ratio.get(r.spill_ratio, 0) | 1 << i
                ratio_groups = [by_ratio[ratio] for ratio in sorted(by_ratio, reverse=True)]
            while not ratio_groups[group] & remaining:
                group += 1
            candidates = ratio_groups[group] & remaining
            for b in top:
                ones = candidates & planes[b]
                if ones:
                    candidates = ones
            node = candidates.bit_length() - 1
            optimistic_pushes += 1
        remaining ^= 1 << node
        stack.append(node)
        borrow = masks[node] & remaining  # every neighbour's degree drops by one
        for b, plane in enumerate(planes):
            if not borrow:
                break
            planes[b] = plane ^ borrow
            borrow &= ~plane

    assignment: Dict[str, int] = {}
    uncolored: List[LiveRange] = []
    by_color: List[int] = []  # by_color[c]: nodes holding colour c
    for node in reversed(stack):
        mask = masks[node]
        color = len(by_color)  # a new colour unless an old one is free
        for c, members in enumerate(by_color):
            if not members & mask:
                color = c
                break
        if color >= k:
            uncolored.append(nodes[node])
            continue
        if color == len(by_color):
            by_color.append(0)
        by_color[color] |= 1 << node
        assignment[nodes[node].name] = color
    rec = get_recorder()
    if rec.enabled:
        rec.counter("regalloc.colorings")
        rec.counter("regalloc.simplify_steps", simplify_steps)
        rec.counter("regalloc.optimistic_pushes", optimistic_pushes)
        rec.counter("regalloc.uncolored", len(uncolored))
    return ColoringResult(assignment=assignment, uncolored=uncolored)


@dataclass
class AllocationResult:
    """Outcome of register allocation for a modulo schedule."""

    success: bool
    kmin: int
    fp_assignment: Dict[str, int]
    int_assignment: Dict[str, int]
    fp_used: int
    int_used: int
    uncolored: List[LiveRange] = field(default_factory=list)
    renamed: Optional[RenamedKernel] = None

    @property
    def registers_used(self) -> int:
        """Total registers, the static measure of Figure 7."""
        return self.fp_used + self.int_used


def allocate(renamed: RenamedKernel, fp_regs: int, int_regs: int) -> AllocationResult:
    """Allocate registers for a renamed kernel; both classes must fit."""
    period = renamed.period
    results: Dict[RegClass, ColoringResult] = {}
    for reg_class, k in ((RegClass.FP, fp_regs), (RegClass.INT, int_regs)):
        ranges = [r for r in renamed.ranges if r.reg_class is reg_class]
        graph = InterferenceGraph.build(ranges, period)
        results[reg_class] = color_graph(graph, k)
    fp_result = results[RegClass.FP]
    int_result = results[RegClass.INT]
    uncolored = fp_result.uncolored + int_result.uncolored
    return AllocationResult(
        success=not uncolored,
        kmin=renamed.kmin,
        fp_assignment=fp_result.assignment,
        int_assignment=int_result.assignment,
        fp_used=fp_result.colors_used,
        int_used=int_result.colors_used,
        uncolored=uncolored,
        renamed=renamed,
    )


def allocate_schedule(schedule, machine) -> AllocationResult:
    """Convenience wrapper: rename then allocate against a machine's files."""
    from .rename import rename_kernel

    with get_recorder().span(
        "regalloc.allocate", loop=schedule.loop.name, ii=schedule.ii
    ):
        renamed = rename_kernel(schedule)
        return allocate(renamed, machine.fp_regs, machine.int_regs)
