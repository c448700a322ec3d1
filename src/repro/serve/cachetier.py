"""The service cache: an in-process LRU tier over the sharded disk store.

The exec layer's :class:`~repro.exec.cache.ScheduleCache` is already
content-addressed (``ab/cd/key.json``), so promoting it into a serving
cache needs exactly two additions, both here:

* a **size-bounded in-process LRU** in front of it, so a hot working set
  is served without touching the filesystem, with eviction and
  hit/miss counters;
* a **tiered read path** (memory, then disk with promotion) and a
  write-through ``put``.

Single-flight deduplication itself lives in the service
(:mod:`repro.serve.service`) because it is an asyncio concern; this
module stays synchronous and event-loop-free so it can be unit- and
property-tested directly.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exec.cache import ScheduleCache


def payload_nbytes(payload: Mapping[str, Any]) -> int:
    """Deterministic size accounting: bytes of the canonical JSON."""
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str))


class LRUCache:
    """A size-bounded LRU of cell-result payloads.

    Bounded both by entry count and by (canonical-JSON) bytes; inserting
    over budget evicts from the cold end.  An in-flight key needs no
    protection here: its waiters get the payload from the solve itself,
    and the service looks up in-flight keys before the cache.
    """

    def __init__(self, max_entries: int = 1024, max_bytes: int = 64 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Tuple[Dict[str, Any], int]]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        payload = dict(payload)
        nbytes = payload_nbytes(payload)
        if key in self._entries:
            self.bytes -= self._entries[key][1]
        self._entries[key] = (payload, nbytes)
        self._entries.move_to_end(key)
        self.bytes += nbytes
        self._evict()

    def _evict(self) -> None:
        """Drop the coldest entries until both budgets hold."""
        while len(self._entries) > self.max_entries or self.bytes > self.max_bytes:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self.bytes -= nbytes
            self.evictions += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TieredCache:
    """Memory LRU in front of the content-addressed disk store.

    ``get`` returns ``(tier, payload)`` with ``tier`` one of ``"memory"``
    or ``"disk"`` (disk hits are promoted into the LRU), or ``None`` on a
    full miss.  ``put`` writes through to both tiers.  ``disk=None`` runs
    the service memory-only (``--no-cache``).
    """

    def __init__(self, lru: Optional[LRUCache] = None,
                 disk: Optional[ScheduleCache] = None):
        self.lru = lru if lru is not None else LRUCache()
        self.disk = disk

    def get(self, key: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        payload = self.lru.get(key)
        if payload is not None:
            return ("memory", payload)
        if self.disk is None:
            return None
        payload = self.disk.get(key)
        if payload is None:
            return None
        self.lru.put(key, payload)
        return ("disk", payload)

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self.lru.put(key, payload)
        if self.disk is not None:
            self.disk.put(key, dict(payload))

    def stats(self) -> Dict[str, Any]:
        return {
            "memory": self.lru.stats(),
            "disk": None if self.disk is None else {
                **self.disk.stats.as_dict(), **self.disk.disk_stats(),
            },
        }
