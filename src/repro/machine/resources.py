"""Machine resource modelling: reservation tables and resource pools.

Scheduling constraint (2) of the paper — resource availability — is modelled
with classic reservation tables.  Each operation class maps to a list of
``(cycle_offset, resource, count)`` triples; a fully pipelined operation
uses resources only at offset 0, an unpipelined one (e.g. FP divide) holds a
resource for several consecutive cycles and therefore conflicts with its
own class across iterations, which is what makes such operations hard to
modulo-schedule and why the priority heuristics move them to the head of
the list (Section 2.7).

The modulo reservation table, :class:`PackedModuloReservationTable`,
interns resource names to dense integers once per availability map,
pre-lowers each :class:`ReservationTable` into ``(slot_offset,
resource_id, count)`` arrays per II, and tracks occupancy in flat integer
arrays plus one "slot full" bitmask per resource.  The bitmasks let the
schedulers test a whole II's worth of candidate slots with a handful of
big-int operations (:meth:`~PackedModuloReservationTable.blocked_mask`).
The original per-slot dict probing implementation lives on in
``tests/test_hotpath_equivalence.py`` as the reference the differential
tests compare against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ResourceUse:
    """Use of ``count`` units of ``resource`` at ``offset`` cycles after issue."""

    offset: int
    resource: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative resource offset {self.offset}")
        if self.count <= 0:
            raise ValueError(f"non-positive resource count {self.count}")


class ResourceIndex:
    """Dense integer interning of the resource names of one availability map.

    Indexes are interned per availability map (:func:`resource_index`), so
    every modulo reservation table built for the same machine shares one
    index — and with it the per-``(table, II)`` lowering cache.
    """

    __slots__ = ("names", "ids", "avail", "n")

    def __init__(self, availability: Dict[str, int]):
        self.names: Tuple[str, ...] = tuple(sorted(availability))
        self.ids: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.avail: Tuple[int, ...] = tuple(availability[name] for name in self.names)
        self.n = len(self.names)


_INDEX_CACHE: Dict[Tuple[Tuple[str, int], ...], ResourceIndex] = {}


def resource_index(availability: Dict[str, int]) -> ResourceIndex:
    """The interned :class:`ResourceIndex` for ``availability``."""
    key = tuple(sorted(availability.items()))
    index = _INDEX_CACHE.get(key)
    if index is None:
        index = _INDEX_CACHE[key] = ResourceIndex(dict(key))
    return index


class LoweredTable:
    """One reservation table lowered against a resource index at a fixed II.

    ``entries`` are ``(slot_offset, resource_id, count)`` triples with all
    uses that alias the same modulo slot pre-combined (the self-conflict
    accumulation the dict implementation performs on every probe), sorted
    for determinism.  ``all_unit`` marks tables whose every combined entry
    needs exactly one unit — the precondition for the bitmask fast path.
    ``impossible`` marks tables that can fit at *no* cycle of this II
    (some combined entry exceeds the resource's total availability).

    For resources with exactly one available unit (FP divide, integer
    multiply: the long-held ones, so the entry-heavy tables), the per-slot
    counts are 0/1 — the "slot full" bitmask *is* the occupancy.
    ``unit_groups`` collapses each such resource's entries into one
    ``(resource_id, offset_mask)`` pair, so a 20-entry divide reservation
    probes/places/removes with one mask rotation; ``multi_entries`` keeps
    the remaining triples for the counting path.

    ``mask_runs`` are ``(slot_offset, resource_id, length)`` runs of
    consecutive slots of one resource whose rotated, dilated "slot full"
    masks OR into the blocked mask when that is exact (every entry needs
    one unit), ``None`` when the table needs the per-slot count probe; a
    divide's 20 held ``fpdiv`` cycles are one run, dilated by doubling
    (:func:`dilate`).  ``rids`` is the set of resources the table uses.
    """

    __slots__ = (
        "entries", "all_unit", "impossible", "unit_groups", "multi_entries",
        "mask_runs", "rids",
    )

    def __init__(self, entries: Tuple[Tuple[int, int, int], ...], avail: Sequence[int]):
        self.entries = entries
        self.all_unit = all(cnt == 1 for _, _, cnt in entries)
        self.impossible = any(cnt > avail[rid] for _, rid, cnt in entries)
        unit: Dict[int, int] = {}
        rest: List[Tuple[int, int, int]] = []
        if self.impossible:
            rest = list(entries)
        else:
            for off, rid, cnt in entries:
                if avail[rid] == 1:  # cnt == 1, or the table were impossible
                    unit[rid] = unit.get(rid, 0) | (1 << off)
                else:
                    rest.append((off, rid, cnt))
        self.unit_groups: Tuple[Tuple[int, int], ...] = tuple(sorted(unit.items()))
        self.multi_entries: Tuple[Tuple[int, int, int], ...] = tuple(rest)
        self.mask_runs: Optional[Tuple[Tuple[int, int, int], ...]] = (
            _runs(entries) if self.all_unit and not self.impossible else None
        )
        self.rids: FrozenSet[int] = frozenset(rid for _, rid, _ in entries)


def _runs(entries: Sequence[Tuple[int, int, int]]) -> Tuple[Tuple[int, int, int], ...]:
    """``(slot_offset, resource_id, length)`` runs of consecutive slots,
    one resource each, covering ``entries``' slots exactly."""
    runs: List[List[int]] = []
    for rid, off in sorted((rid, off) for off, rid, _ in entries):
        run = runs[-1] if runs else None
        if run is not None and run[1] == rid and run[0] + run[2] == off:
            run[2] += 1
        else:
            runs.append([off, rid, 1])
    return tuple((off, rid, length) for off, rid, length in runs)


def dilate(mask: int, length: int, ii: int) -> int:
    """OR of ``mask`` rotated right by ``0 .. length-1`` slots (of ``II``).

    Doubling covers ``length`` rotations with about ``log2(length) + 1``:
    after the loop ``mask`` spans ``k`` rotations, and one more shifted by
    ``length - k`` (``<= k``) overlaps it to span all of them.  Bit ``c`` of
    the result is set when any of bits ``c .. c+length-1`` (mod ``II``) of
    ``mask`` is.
    """
    wrap = (1 << ii) - 1
    k = 1
    while 2 * k <= length:
        mask |= ((mask >> k) | (mask << (ii - k))) & wrap
        k *= 2
    if k < length:
        d = length - k
        mask |= ((mask >> d) | (mask << (ii - d))) & wrap
    return mask


@functools.lru_cache(maxsize=4096)
def lower_uses(
    uses: Tuple[Tuple[int, str, int], ...], index: ResourceIndex, ii: int
) -> LoweredTable:
    """``(offset, resource, count)`` uses lowered against ``index`` at ``ii``.

    Uses that alias one modulo slot of one resource are combined; a
    resource the index does not know is a ``KeyError``.  Cached per
    ``(uses, index, II)``, so searches over the same machine share it.
    """
    combined: Dict[Tuple[int, int], int] = {}
    for offset, resource, count in uses:
        rid = index.ids.get(resource)
        if rid is None:
            raise KeyError(f"machine has no resource {resource!r}")
        slot_key = (offset % ii, rid)
        combined[slot_key] = combined.get(slot_key, 0) + count
    entries = tuple((off, rid, cnt) for (off, rid), cnt in sorted(combined.items()))
    return LoweredTable(entries, index.avail)


class ReservationTable:
    """The resource footprint of one operation class."""

    def __init__(self, uses: Iterable[ResourceUse]):
        self.uses: Tuple[ResourceUse, ...] = tuple(uses)
        # Lowered forms, keyed by (ResourceIndex, II).  Indexes are interned
        # per availability map, so this cache is shared by every scheduling
        # attempt against the same machine.
        self._lowered: Dict[Tuple[ResourceIndex, int], LoweredTable] = {}

    @property
    def span(self) -> int:
        """Number of cycles from issue over which resources are held."""
        return 1 + max((u.offset for u in self.uses), default=0)

    @property
    def is_fully_pipelined(self) -> bool:
        return all(u.offset == 0 for u in self.uses)

    def totals(self) -> Dict[str, int]:
        """Total units consumed per resource, across all offsets."""
        out: Dict[str, int] = {}
        for u in self.uses:
            out[u.resource] = out.get(u.resource, 0) + u.count
        return out

    def lowered(self, index: ResourceIndex, ii: int) -> LoweredTable:
        """This table as combined ``(slot_offset, resource_id, count)`` triples."""
        key = (index, ii)
        lt = self._lowered.get(key)
        if lt is None:
            lt = self._lowered[key] = lower_uses(
                tuple((u.offset, u.resource, u.count) for u in self.uses), index, ii
            )
        return lt

    @staticmethod
    def simple(*resources: str) -> "ReservationTable":
        """A fully pipelined table using one unit of each resource at issue."""
        return ReservationTable(ResourceUse(0, r) for r in resources)

    @staticmethod
    def blocking(setup: Sequence[str], held: str, hold_cycles: int) -> "ReservationTable":
        """An unpipelined table: issue resources at offset 0, then a resource
        held for ``hold_cycles`` consecutive cycles starting at issue."""
        uses = [ResourceUse(0, r) for r in setup]
        uses.extend(ResourceUse(off, held) for off in range(hold_cycles))
        return ReservationTable(uses)


class PackedModuloReservationTable:
    """Word-packed per-modulo-slot resource accounting for a candidate II.

    The table tracks, for every slot ``0 .. II-1`` and resource, how many
    units are in use.  Placing an operation at cycle ``t`` consumes each of
    its reservation uses at slot ``(t + offset) mod II``.

    Occupancy lives in one flat integer array (resource-major) plus one
    II-bit "slot is full" mask per resource, kept in sync on every
    place/remove.  The masks make :meth:`blocked_mask` — "at which modulo
    slots can this op *not* issue?" — a handful of rotate-and-OR big-int
    operations for the common all-unit-count tables.
    """

    def __init__(self, ii: int, availability: Dict[str, int]):
        if ii <= 0:
            raise ValueError(f"II must be positive, got {ii}")
        self.ii = ii
        self.availability = dict(availability)
        self.index = resource_index(self.availability)
        full = (1 << ii) - 1
        # Occupancy, also read directly by the B&B kernel's fused loop
        # (change it only through place/remove): per-(resource, slot) unit
        # counts, resource-major (maintained for multi-unit resources only),
        # and bit s of full[rid] set when slot s cannot take one more unit.
        self.counts: List[int] = [0] * (self.index.n * ii)
        self.full: List[int] = [0 if a > 0 else full for a in self.index.avail]

    # ------------------------------------------------------------------
    # Lowered fast-path API (used by the schedulers)
    # ------------------------------------------------------------------
    def lower(self, table: ReservationTable) -> LoweredTable:
        return table.lowered(self.index, self.ii)

    def fits_lowered(self, lt: LoweredTable, cycle: int) -> bool:
        ii = self.ii
        r = cycle % ii
        full = self.full
        wrap = (1 << ii) - 1
        for rid, m in lt.unit_groups:
            # Bit (off + r) mod II of the rotation is bit off of m.
            if full[rid] & (((m << r) | (m >> (ii - r))) & wrap):
                return False
        counts = self.counts
        avail = self.index.avail
        for off, rid, cnt in lt.multi_entries:
            s = r + off
            if s >= ii:
                s -= ii
            if counts[rid * ii + s] + cnt > avail[rid]:
                return False
        return True

    def place_lowered(self, lt: LoweredTable, cycle: int) -> None:
        """Consume the lowered uses at ``cycle`` without a fit check."""
        ii = self.ii
        r = cycle % ii
        counts = self.counts
        full = self.full
        avail = self.index.avail
        wrap = (1 << ii) - 1
        for rid, m in lt.unit_groups:
            full[rid] |= ((m << r) | (m >> (ii - r))) & wrap
        for off, rid, cnt in lt.multi_entries:
            s = r + off
            if s >= ii:
                s -= ii
            i = rid * ii + s
            c = counts[i] + cnt
            counts[i] = c
            if c >= avail[rid]:
                full[rid] |= 1 << s

    def remove_lowered(self, lt: LoweredTable, cycle: int) -> None:
        ii = self.ii
        r = cycle % ii
        counts = self.counts
        full = self.full
        avail = self.index.avail
        wrap = (1 << ii) - 1
        for rid, m in lt.unit_groups:
            rot = ((m << r) | (m >> (ii - r))) & wrap
            if full[rid] & rot != rot:
                raise ValueError(f"removing op at cycle {cycle} that was never placed")
            full[rid] &= ~rot
        for off, rid, cnt in lt.multi_entries:
            s = r + off
            if s >= ii:
                s -= ii
            i = rid * ii + s
            c = counts[i] - cnt
            if c < 0:
                raise ValueError(f"removing op at cycle {cycle} that was never placed")
            counts[i] = c
            if c < avail[rid]:
                full[rid] &= ~(1 << s)

    def blocked_mask(self, lt: LoweredTable) -> int:
        """Bitmask of modulo slots at which this op cannot issue *now*.

        Bit ``s`` is set when a cycle with ``cycle % II == s`` conflicts.
        The mask is only valid until the next place/remove.
        """
        return blocked_slots(lt, self.ii, self.full, self.counts, self.index.avail)

    # ------------------------------------------------------------------
    # Public (checked) API
    # ------------------------------------------------------------------
    def fits(self, table: ReservationTable, cycle: int) -> bool:
        """Can an operation with this reservation table issue at ``cycle``?

        An operation longer than II can collide with *itself* across
        iterations (several of its uses land in the same modulo slot);
        lowering pre-combines such uses, which is the same accounting the
        dict implementation performs probe by probe.
        """
        return self.fits_lowered(self.lower(table), cycle)

    def place(self, table: ReservationTable, cycle: int) -> None:
        lt = self.lower(table)
        if not self.fits_lowered(lt, cycle):
            raise ValueError(f"resource conflict placing op at cycle {cycle}")
        self.place_lowered(lt, cycle)

    def remove(self, table: ReservationTable, cycle: int) -> None:
        self.remove_lowered(self.lower(table), cycle)

    def used_at(self, slot: int, resource: str) -> int:
        rid = self.index.ids.get(resource)
        if rid is None:
            return 0
        if self.index.avail[rid] == 1:
            # Single-unit resources are tracked by the full mask alone
            # (counts are not maintained for them on the lowered paths).
            return (self.full[rid] >> (slot % self.ii)) & 1
        return self.counts[rid * self.ii + slot % self.ii]

    def copy(self) -> "PackedModuloReservationTable":
        clone = PackedModuloReservationTable.__new__(PackedModuloReservationTable)
        clone.ii = self.ii
        clone.availability = dict(self.availability)
        clone.index = self.index
        clone.counts = self.counts[:]
        clone.full = self.full[:]
        return clone


def blocked_slots(
    lt: LoweredTable, ii: int, full: Sequence[int], counts: Sequence[int],
    avail: Sequence[int],
) -> int:
    """Bitmask of the modulo slots at which ``lt`` cannot issue, given
    occupancy arrays laid out as a packed table's ``full`` and ``counts``.

    For all-unit tables this is an OR of per-resource full masks rotated by
    the use offsets; tables with multi-unit entries probe each slot.  The
    branch-and-bound backtracker calls it on a private copy of the arrays
    (occupancy with some operations removed, without removing them).
    """
    wrap = (1 << ii) - 1
    if lt.impossible:
        return wrap
    blocked = 0
    if lt.mask_runs is not None:
        for off, rid, length in lt.mask_runs:
            m = full[rid]
            if m:
                if length > 1:
                    m = dilate(m, length, ii)
                # Bit c of the rotation is bit (c + off) mod II of m.
                blocked |= ((m >> off) | (m << (ii - off))) & wrap
        return blocked
    for r in range(ii):
        for rid, m in lt.unit_groups:
            if full[rid] & (((m << r) | (m >> (ii - r))) & wrap):
                blocked |= 1 << r
                break
        else:
            for off, rid, cnt in lt.multi_entries:
                s = r + off
                if s >= ii:
                    s -= ii
                if counts[rid * ii + s] + cnt > avail[rid]:
                    blocked |= 1 << r
                    break
    return blocked


#: The table every scheduler builds.
ModuloReservationTable = PackedModuloReservationTable
