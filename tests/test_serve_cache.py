"""The serving cache tier: LRU bounds, tier promotion, disk pruning.

A hypothesis property drives random put/get interleavings against the
two budgets (entries and bytes); the deterministic tests cover eviction
order, the tier promotion, and the ``repro cache`` maintenance surface
(stats + prune).
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import ScheduleCache
from repro.serve.cachetier import LRUCache, TieredCache, payload_nbytes


def _payload(tag: str, pad: int = 0) -> dict:
    return {"tag": tag, "pad": "x" * pad}


# ----------------------------------------------------------------------
# LRU basics
# ----------------------------------------------------------------------
def test_lru_hit_miss_counters():
    lru = LRUCache(max_entries=4)
    assert lru.get("a") is None
    lru.put("a", _payload("a"))
    assert lru.get("a") == _payload("a")
    assert (lru.hits, lru.misses) == (1, 1)


def test_lru_entry_budget_evicts_coldest():
    lru = LRUCache(max_entries=2)
    lru.put("a", _payload("a"))
    lru.put("b", _payload("b"))
    lru.put("c", _payload("c"))
    assert "a" not in lru and "b" in lru and "c" in lru
    assert lru.evictions == 1


def test_lru_get_refreshes_recency():
    lru = LRUCache(max_entries=2)
    lru.put("a", _payload("a"))
    lru.put("b", _payload("b"))
    lru.get("a")  # a is now the hot one
    lru.put("c", _payload("c"))
    assert "a" in lru and "b" not in lru


def test_lru_byte_budget():
    one = payload_nbytes(_payload("k0", pad=100))
    lru = LRUCache(max_entries=100, max_bytes=int(one * 2.5))
    for i in range(4):
        lru.put(f"k{i}", _payload(f"k{i}", pad=100))
    assert len(lru) == 2 and lru.bytes <= lru.max_bytes
    assert "k3" in lru and "k2" in lru


def test_lru_overwrite_updates_bytes():
    lru = LRUCache(max_entries=4)
    lru.put("a", _payload("a", pad=500))
    big = lru.bytes
    lru.put("a", _payload("a"))
    assert len(lru) == 1 and lru.bytes < big
    assert lru.bytes == payload_nbytes(_payload("a"))


def test_lru_rejects_degenerate_budgets():
    with pytest.raises(ValueError):
        LRUCache(max_entries=0)
    with pytest.raises(ValueError):
        LRUCache(max_bytes=0)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get"]),
            st.sampled_from([f"k{i}" for i in range(6)]),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=60,
    ),
    max_entries=st.integers(min_value=1, max_value=4),
    max_bytes=st.integers(min_value=1, max_value=1000),
)
def test_property_budgets_hold_after_every_put(ops, max_entries, max_bytes):
    """Whatever the op interleaving, both budgets hold after every put and
    the byte count matches the entries actually held."""
    lru = LRUCache(max_entries=max_entries, max_bytes=max_bytes)
    for op, key, pad in ops:
        if op == "put":
            lru.put(key, _payload(key, pad))
            assert len(lru) <= max_entries, ops
            assert lru.bytes <= max_bytes, ops
        else:
            lru.get(key)
        assert lru.bytes == sum(
            payload_nbytes(lru._entries[k][0]) for k in lru._entries
        )


# ----------------------------------------------------------------------
# The two tiers together
# ----------------------------------------------------------------------
def test_tiered_get_promotes_disk_hits(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    tier = TieredCache(lru=LRUCache(max_entries=8), disk=disk)
    disk.put("deadbeef00", _payload("cold"))
    assert tier.get("deadbeef00") == ("disk", _payload("cold"))
    # Promoted: the second read is a memory hit, no disk access.
    assert tier.get("deadbeef00") == ("memory", _payload("cold"))
    assert tier.lru.hits == 1


def test_tiered_put_writes_through(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    tier = TieredCache(lru=LRUCache(max_entries=1), disk=disk)
    tier.put("aa00", _payload("a"))
    tier.put("bb00", _payload("b"))  # evicts aa00 from memory
    assert "aa00" not in tier.lru
    assert tier.get("aa00") == ("disk", _payload("a"))


def test_tiered_memory_only_mode():
    tier = TieredCache(lru=LRUCache(max_entries=2), disk=None)
    assert tier.get("missing") is None
    tier.put("k", _payload("k"))
    assert tier.get("k") == ("memory", _payload("k"))
    assert tier.stats()["disk"] is None


# ----------------------------------------------------------------------
# Disk-tier maintenance: stats and pruning (``python -m repro cache``)
# ----------------------------------------------------------------------
def _fill(disk: ScheduleCache, n: int) -> list:
    keys = [f"{i:02x}{i:02x}feed{i:04x}" for i in range(n)]
    now = time.time()
    for age, key in enumerate(keys):
        disk.put(key, _payload(key, pad=50))
        # Oldest first: k0 is the stalest entry.
        path = disk._path(key)
        os.utime(path, (now - (n - age) * 100, now - (n - age) * 100))
    return keys


def test_disk_stats_counts_entries_bytes_shards(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    stats = disk.disk_stats()
    assert stats["entries"] == 0 and stats["bytes"] == 0
    keys = _fill(disk, 5)
    stats = disk.disk_stats()
    assert stats["entries"] == 5
    assert stats["bytes"] > 0
    assert stats["shards_used"] == len({k[:4] for k in keys})
    assert 0 < stats["shard_fill"] < 1


def test_prune_removes_oldest_first(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    keys = _fill(disk, 6)
    total = disk.disk_stats()["bytes"]
    per_entry = total // 6
    pruned = disk.prune(max_bytes=per_entry * 3)
    assert pruned["removed"] >= 3
    # The newest entries survive, the oldest go.
    assert disk.get(keys[-1]) is not None
    assert disk.get(keys[0]) is None
    assert disk.disk_stats()["bytes"] <= per_entry * 3
    assert pruned["kept"] == disk.disk_stats()["entries"]


def test_prune_sweeps_stale_tmp_files(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    _fill(disk, 2)
    shard = next(iter(disk.directory.glob("*/*")))
    stale = shard / "leftover.tmp"
    stale.write_text("partial write")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    fresh = shard / "inflight.tmp"
    fresh.write_text("being written right now")
    pruned = disk.prune(max_bytes=1 << 30)
    assert pruned["tmp_removed"] == 1
    assert not stale.exists() and fresh.exists()


def test_prune_to_zero_clears_empty_shard_dirs(tmp_path):
    disk = ScheduleCache(tmp_path / "cache")
    _fill(disk, 4)
    pruned = disk.prune(max_bytes=0)
    assert pruned["kept"] == 0
    assert disk.entry_count() == 0
    assert list(disk.directory.glob("*/*")) == []
