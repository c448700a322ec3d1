"""Content-addressed on-disk cache of cell results.

Entries are keyed by the SHA-256 of everything that determined the result
(:mod:`repro.exec.hashing`), sharded two levels deep so directories stay
small, and written atomically (temp file + rename) so a killed run never
leaves a truncated entry behind.  Corrupt or unreadable entries read as
misses and are overwritten on the next store — the cache is always safe to
delete wholesale.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..obs.export import atomic_write_text

#: Default location, relative to the working directory; CI points
#: ``actions/cache`` at the same path.
DEFAULT_CACHE_DIR = ".exec-cache"

_FORMAT_VERSION = 1


def cache_result(cache, key: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp a fresh result payload with its key and store it.

    The one caching rule, shared by the batch engine and the serve
    daemon: an error result is never stored, and the stored copy says
    ``cache_hit: False``.  ``cache`` is anything with ``put(key,
    payload)`` (or None).  Returns ``payload``.
    """
    payload["cache_key"] = key
    if cache is not None and not payload.get("error"):
        cache.put(key, {**payload, "cache_hit": False})
    return payload


def cached_hit(payload: Dict[str, Any], key: str) -> Dict[str, Any]:
    """A stored payload as served from the cache: a copy stamped
    ``cache_hit: True`` plus its key."""
    return {**payload, "cache_hit": True, "cache_key": key}


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # unreadable/corrupt entries encountered

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
        }


@dataclass
class ScheduleCache:
    """A directory of ``<k[:2]>/<k[2:4]>/<k>.json`` cell-result payloads."""

    directory: pathlib.Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(self, directory=DEFAULT_CACHE_DIR):
        self.directory = pathlib.Path(directory)
        self.stats = CacheStats()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / key[2:4] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("format") != _FORMAT_VERSION or "payload" not in entry:
                raise ValueError("unrecognised cache entry format")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, OSError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["payload"]

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"format": _FORMAT_VERSION, "key": key, "payload": payload}
        atomic_write_text(path, json.dumps(entry, sort_keys=True))
        self.stats.stores += 1

    def entry_count(self) -> int:
        """Number of entries on disk (walks the directory)."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*/*.json"))

    # -- disk-tier maintenance (``python -m repro cache``) -------------
    def iter_entries(self):
        """Yield ``(path, size_bytes, mtime)`` for every entry on disk.

        Entries that vanish mid-walk (a concurrent pruner or a cache wipe)
        are silently skipped — every writer is atomic-rename based, so a
        path either stats completely or not at all.
        """
        if not self.directory.is_dir():
            return
        for path in self.directory.glob("*/*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield path, stat.st_size, stat.st_mtime

    def disk_stats(self) -> Dict[str, Any]:
        """Size accounting of the on-disk tier: entries, bytes, shard fill."""
        entries = 0
        total_bytes = 0
        shards = set()
        for path, size, _ in self.iter_entries():
            entries += 1
            total_bytes += size
            shards.add((path.parent.parent.name, path.parent.name))
        return {
            "dir": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
            "shards_used": len(shards),
            # Two hex characters per level: 65536 possible leaf shards.
            "shard_fill": len(shards) / 65536.0,
        }

    def prune(self, max_bytes: int, max_tmp_age: float = 3600.0) -> Dict[str, Any]:
        """Size-bounded GC: delete oldest entries until ``<= max_bytes``.

        Safe under concurrent writers: entries are only ever created by
        atomic rename, so unlinking can never observe a half-written file,
        and a concurrent ``put`` of a pruned key simply recreates it.
        Stale ``*.tmp`` files (an interrupted writer) older than
        ``max_tmp_age`` seconds are collected too.  Empty shard
        directories are removed best-effort.  Returns the GC accounting.
        """
        import time as _time

        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        removed = freed = 0
        tmp_removed = 0
        now = _time.time()
        if self.directory.is_dir():
            for tmp in self.directory.glob("*/*/*.tmp"):
                try:
                    if now - tmp.stat().st_mtime > max_tmp_age:
                        tmp.unlink()
                        tmp_removed += 1
                except OSError:
                    continue
        entries = sorted(self.iter_entries(), key=lambda e: (e[2], str(e[0])))
        total = sum(size for _, size, _ in entries)
        for path, size, _ in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent pruner got there first
            total -= size
            removed += 1
            freed += size
        # Sweep now-empty shard directories (two levels), best-effort: a
        # concurrent writer re-creating the shard just wins the race.
        if removed and self.directory.is_dir():
            for level2 in self.directory.glob("*/*"):
                try:
                    level2.rmdir()
                except OSError:
                    pass
            for level1 in self.directory.glob("*"):
                try:
                    level1.rmdir()
                except OSError:
                    pass
        return {
            "removed": removed,
            "freed_bytes": freed,
            "tmp_removed": tmp_removed,
            "kept": len(entries) - removed,
            "kept_bytes": total,
        }


def cache_main(*, cache_dir: str, prune: bool, max_bytes: Optional[int], json_out: bool) -> int:
    """``python -m repro cache``: disk-tier statistics, or with ``prune``
    a garbage collection down to ``max_bytes``."""
    cache = ScheduleCache(cache_dir)
    if prune:
        if max_bytes is None:
            raise argparse.ArgumentError(None, "--prune needs --max-bytes N")
        before = cache.disk_stats()
        pruned = cache.prune(max_bytes)
        print(
            f"pruned {pruned['removed']} of {before['entries']} entries "
            f"({pruned['freed_bytes']} bytes freed, "
            f"{pruned['tmp_removed']} stale tmp files); "
            f"{pruned['kept']} entries / {pruned['kept_bytes']} bytes kept"
        )
        return 0
    stats = cache.disk_stats()
    if json_out:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"cache dir     {stats['dir']}")
    print(f"entries       {stats['entries']}")
    print(f"bytes         {stats['bytes']}")
    print(f"shards used   {stats['shards_used']} ({stats['shard_fill']:.2%} of 65536)")
    return 0
