"""Caching layer: a Redis substitute and a transient LRU front cache.

§6: "INTANG employs Redis as an in-memory key-value store … data
persistency, event-driven programming, key expiration … We also maintain
in the main thread a transient Least Recently Used (LRU) cache
implemented using linked lists and hash tables (to reduce Redis store
access latency)."

:class:`KeyValueStore` reproduces the feature set INTANG uses (get/set,
per-key TTL, snapshot persistence) against the simulation clock;
:class:`LRUCache` is the O(1) front cache, an ordered dict (Python's
hash table threaded on a linked list).  One front sits on one store:
the strategy selector owns both (:mod:`repro.core.selection`).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional


class KeyValueStore:
    """A TTL'd in-memory key-value store (the Redis stand-in).

    Time is supplied by a callable so the store runs on simulation time;
    pass ``clock.now``'s getter (``lambda: clock.now``).
    """

    def __init__(self, time_source: Callable[[], float]) -> None:
        self._time = time_source
        self._data: Dict[str, Any] = {}
        self._expiry: Dict[str, float] = {}
        #: Earliest deadline among TTL'd keys; gets hit before any key can
        #: be stale, so reads skip per-key expiry checks until then.
        self._next_expiry = float("inf")

    # -- basic operations ---------------------------------------------------
    def set(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        self._data[key] = value
        if ttl is not None:
            deadline = self._time() + ttl
            self._expiry[key] = deadline
            if deadline < self._next_expiry:
                self._next_expiry = deadline
        else:
            self._expiry.pop(key, None)

    def _maybe_sweep(self) -> None:
        """Lazy expiry: sweep only once the earliest deadline has passed.

        Until then no key can be expired, so the hot read path is a plain
        dict access with one float comparison — no per-key TTL lookup.
        """
        if self._expiry and self._time() >= self._next_expiry:
            self.sweep()

    def get(self, key: str, default: Any = None) -> Any:
        self._maybe_sweep()
        return self._data.get(key, default)

    def exists(self, key: str) -> bool:
        self._maybe_sweep()
        return key in self._data

    def __len__(self) -> int:
        self.sweep()
        return len(self._data)

    # -- expiry -------------------------------------------------------------
    def sweep(self) -> int:
        """Evict all expired keys; returns the eviction count."""
        now = self._time()
        expired = [key for key, expiry in self._expiry.items() if now >= expiry]
        for key in expired:
            # A snapshot keeps the deadlines of values it could not
            # serialize, so an expiring key may have no value here.
            self._data.pop(key, None)
            del self._expiry[key]
        self._next_expiry = min(self._expiry.values(), default=float("inf"))
        return len(expired)

    # -- persistence ------------------------------------------------------------
    def dump(self) -> str:
        """Serialize non-expired JSON-representable entries."""
        self.sweep()
        payload = {
            "data": {
                key: value
                for key, value in self._data.items()
                if _json_safe(value)
            },
            "expiry": dict(self._expiry),
        }
        return json.dumps(payload)

    def load(self, blob: str) -> None:
        payload = json.loads(blob)
        self._data.update(payload.get("data", {}))
        self._expiry.update(payload.get("expiry", {}))
        self.sweep()  # also refreshes the next-expiry watermark


def _json_safe(value: Any) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


class LRUCache:
    """O(1) least-recently-used cache on an :class:`OrderedDict`, most
    recent entry last."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, default: Any = None) -> Any:
        if key not in self._entries:
            self.misses += 1
            return default
        self.hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
