"""Caching layer: a Redis substitute and a transient LRU front cache.

§6: "INTANG employs Redis as an in-memory key-value store … data
persistency, event-driven programming, key expiration … We also maintain
in the main thread a transient Least Recently Used (LRU) cache
implemented using linked lists and hash tables (to reduce Redis store
access latency)."

:class:`KeyValueStore` reproduces the used feature set (get/set/delete,
per-key TTL, expiry callbacks, snapshot persistence) against the
simulation clock; :class:`LRUCache` is the O(1) linked-list+dict front
cache.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class KeyValueStore:
    """A TTL'd in-memory key-value store (the Redis stand-in).

    Time is supplied by a callable so the store runs on simulation time;
    pass ``clock.now``'s getter (``lambda: clock.now``).
    """

    def __init__(self, time_source: Callable[[], float]) -> None:
        self._time = time_source
        self._data: Dict[str, Any] = {}
        self._expiry: Dict[str, float] = {}
        self._expire_callbacks: List[Callable[[str], None]] = []
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

    def delete(self, key: str) -> bool:
        existed = key in self._data
        self._data.pop(key, None)
        self._expiry.pop(key, None)
        return existed

    def exists(self, key: str) -> bool:
        self._maybe_sweep()
        return key in self._data

    def ttl(self, key: str) -> Optional[float]:
        """Remaining lifetime, None when persistent or missing."""
        if not self.exists(key):
            return None
        expiry = self._expiry.get(key)
        if expiry is None:
            return None
        return max(0.0, expiry - self._time())

    def expire(self, key: str, ttl: float) -> bool:
        if not self.exists(key):
            return False
        deadline = self._time() + ttl
        self._expiry[key] = deadline
        if deadline < self._next_expiry:
            self._next_expiry = deadline
        return True

    def keys(self) -> List[str]:
        self.sweep()
        return list(self._data.keys())

    def items(self) -> Iterator[Tuple[str, Any]]:
        self.sweep()
        return iter(list(self._data.items()))

    def __len__(self) -> int:
        self.sweep()
        return len(self._data)

    # -- expiry -------------------------------------------------------------
    def on_expire(self, callback: Callable[[str], None]) -> None:
        """Register an expiry observer (Redis keyspace-notification style)."""
        self._expire_callbacks.append(callback)

    def sweep(self) -> int:
        """Evict all expired keys; returns the eviction count."""
        expired = [key for key in self._expiry if self._is_expired(key)]
        for key in expired:
            self._evict(key)
        # Recompute after callbacks ran — they may have set new TTLs.
        self._next_expiry = min(self._expiry.values(), default=float("inf"))
        return len(expired)

    def _is_expired(self, key: str) -> bool:
        expiry = self._expiry.get(key)
        return expiry is not None and self._time() >= expiry

    def _evict(self, key: str) -> None:
        self._data.pop(key, None)
        self._expiry.pop(key, None)
        for callback in self._expire_callbacks:
            callback(key)

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


class _Node:
    __slots__ = ("key", "value", "prev", "next")

    def __init__(self, key: str, value: Any) -> None:
        self.key = key
        self.value = value
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class LRUCache:
    """O(1) least-recently-used cache (doubly linked list + dict)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._map: Dict[str, _Node] = {}
        self._head: Optional[_Node] = None  # most recent
        self._tail: Optional[_Node] = None  # least recent
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, default: Any = None) -> Any:
        node = self._map.get(key)
        if node is None:
            self.misses += 1
            return default
        self.hits += 1
        self._move_to_front(node)
        return node.value

    def put(self, key: str, value: Any) -> None:
        node = self._map.get(key)
        if node is not None:
            node.value = value
            self._move_to_front(node)
            return
        node = _Node(key, value)
        self._map[key] = node
        self._link_front(node)
        if len(self._map) > self.capacity:
            assert self._tail is not None
            evicted = self._tail
            self._unlink(evicted)
            del self._map[evicted.key]
            self.evictions += 1

    def delete(self, key: str) -> bool:
        """Drop one entry (used for invalidation by the fronted store)."""
        node = self._map.pop(key, None)
        if node is None:
            return False
        self._unlink(node)
        return True

    def clear(self) -> None:
        self._map.clear()
        self._head = None
        self._tail = None

    def __contains__(self, key: str) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    # -- linked-list plumbing ---------------------------------------------
    def _move_to_front(self, node: _Node) -> None:
        if self._head is node:
            return
        self._unlink(node)
        self._link_front(node)

    def _link_front(self, node: _Node) -> None:
        node.prev = None
        node.next = self._head
        if self._head is not None:
            self._head.prev = node
        self._head = node
        if self._tail is None:
            self._tail = node

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        if self._head is node:
            self._head = node.next
        if self._tail is node:
            self._tail = node.prev
        node.prev = None
        node.next = None


_MISS = object()


class FrontedStore:
    """A :class:`KeyValueStore` fronted by a transient :class:`LRUCache`.

    This is §6's composition made explicit: "We also maintain in the
    main thread a transient Least Recently Used (LRU) cache … to reduce
    Redis store access latency."  Reads hit the front cache first;
    writes go through to the store and refresh the front; deletions,
    TTL expiry, and snapshot loads invalidate the front so it can never
    serve a value the store has dropped.

    The class mirrors the :class:`KeyValueStore` surface, so anything
    holding a store (the strategy selector's per-server history) works
    against either unchanged.
    """

    def __init__(self, store: KeyValueStore, front_capacity: int = 256) -> None:
        self.store = store
        self.front = LRUCache(front_capacity)
        # The front's own method, not one of ours: a hook bound to this
        # object would tie store and front end into a reference cycle.
        store.on_expire(self.front.delete)

    # -- the KeyValueStore surface ----------------------------------------
    def set(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        self.store.set(key, value, ttl=ttl)
        self.front.put(key, value)

    def get(self, key: str, default: Any = None) -> Any:
        # Let the store retire due keys (firing our invalidation hook)
        # before trusting the front cache.
        self.store._maybe_sweep()
        value = self.front.get(key, _MISS)
        if value is not _MISS:
            return value
        value = self.store.get(key, _MISS)
        if value is _MISS:
            return default
        self.front.put(key, value)
        return value

    def delete(self, key: str) -> bool:
        self.front.delete(key)
        return self.store.delete(key)

    def exists(self, key: str) -> bool:
        return self.store.exists(key)

    def ttl(self, key: str) -> Optional[float]:
        return self.store.ttl(key)

    def expire(self, key: str, ttl: float) -> bool:
        return self.store.expire(key, ttl)

    def keys(self) -> List[str]:
        return self.store.keys()

    def items(self) -> Iterator[Tuple[str, Any]]:
        return self.store.items()

    def __len__(self) -> int:
        return len(self.store)

    def on_expire(self, callback: Callable[[str], None]) -> None:
        self.store.on_expire(callback)

    def sweep(self) -> int:
        return self.store.sweep()

    def clear_front(self) -> None:
        """Drop the transient layer (the durable store is untouched)."""
        self.front.clear()

    # -- persistence -------------------------------------------------------
    def dump(self) -> str:
        return self.store.dump()

    def load(self, blob: str) -> None:
        self.store.load(blob)
        # Loaded entries may shadow anything cached; start the transient
        # layer over (it is transient by definition, §6).
        self.front.clear()
