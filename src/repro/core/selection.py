"""Measurement-driven strategy selection (§6).

"When a new connection is initiated, INTANG chooses the most promising
strategy based on historical measurement results (with the help of
caching), to a particular server IP address.  Upon the completion of a
successful trial, it caches the strategy ID …"

Records live in the Redis-substitute :class:`~repro.core.cache.KeyValueStore`
with a TTL ("to counter changes in the network or the server, the cached
record is retained only for a certain period of time") behind one
transient LRU front cache of decoded records.  The selector owns both
layers, so its :meth:`~StrategySelector.load` is the one place a restore
invalidates the front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.cache import KeyValueStore, LRUCache

#: How long a per-server record stays valid (seconds of sim time).
DEFAULT_RECORD_TTL = 3600.0


@dataclass
class StrategyRecord:
    """Success history of the strategies tried against one server."""

    #: strategy id -> [successes, failures]
    outcomes: Dict[str, List[int]] = field(default_factory=dict)
    #: The strategy that most recently succeeded, if any.
    pinned: Optional[str] = None
    #: Consecutive failures of the pinned strategy.  One failure can be
    #: transient loss; only repeated failure evicts the pin.
    pinned_failstreak: int = 0

    def note(self, strategy_id: str, success: bool) -> None:
        counts = self.outcomes.setdefault(strategy_id, [0, 0])
        counts[0 if success else 1] += 1
        if success:
            self.pinned = strategy_id
            self.pinned_failstreak = 0
        elif self.pinned == strategy_id:
            self.pinned_failstreak += 1
            if self.pinned_failstreak >= 2:
                self.pinned = None
                self.pinned_failstreak = 0

    def success_rate(self, strategy_id: str) -> float:
        counts = self.outcomes.get(strategy_id)
        if not counts or sum(counts) == 0:
            return 0.0
        return counts[0] / (counts[0] + counts[1])

    def attempts(self, strategy_id: str) -> int:
        counts = self.outcomes.get(strategy_id)
        return sum(counts) if counts else 0

    def to_json(self) -> dict:
        return {
            "outcomes": self.outcomes,
            "pinned": self.pinned,
            "pinned_failstreak": self.pinned_failstreak,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StrategyRecord":
        record = cls()
        record.outcomes = {
            key: list(value) for key, value in payload.get("outcomes", {}).items()
        }
        record.pinned = payload.get("pinned")
        record.pinned_failstreak = int(payload.get("pinned_failstreak", 0))
        return record


class StrategySelector:
    """Chooses the most promising strategy for each server IP.

    A strategy that has failed once for a server is skipped in favour
    of the next one that has not; records are fronted by a 128-entry LRU.
    """

    def __init__(
        self,
        store: KeyValueStore,
        priority: Sequence[str],
        record_ttl: float = DEFAULT_RECORD_TTL,
    ) -> None:
        if not priority:
            raise ValueError("the priority list cannot be empty")
        self.store = store
        self.priority = list(priority)
        self.front_cache = LRUCache(capacity=128)
        self.record_ttl = record_ttl

    # ------------------------------------------------------------------
    def choose(self, server_ip: str) -> str:
        """Pick a strategy for a new connection to ``server_ip``."""
        record = self._record_for(server_ip)
        if record.pinned is not None:
            return record.pinned
        # Prefer strategies in priority order that have not failed here;
        # fall back to the least-bad performer.
        for strategy_id in self.priority:
            if record.outcomes.get(strategy_id, [0, 0])[1] == 0:
                return strategy_id
        return max(self.priority, key=record.success_rate)

    def report(self, server_ip: str, strategy_id: str, success: bool) -> None:
        """Feed back a trial outcome; refreshes the record's TTL."""
        record = self._record_for(server_ip)
        record.note(strategy_id, success)
        self._save(server_ip, record)

    def record_for(self, server_ip: str) -> StrategyRecord:
        """Read-only view of the record (for tests and reporting)."""
        return self._record_for(server_ip)

    # -- persistence (the Redis store's data-persistency feature, §6) -----
    def dump(self) -> str:
        """Serialize the per-server records."""
        return self.store.dump()

    def load(self, blob: str) -> None:
        """Restore records saved by :meth:`dump`.

        Loaded records may shadow ones the front cache holds, so the
        transient front starts over.
        """
        self.store.load(blob)
        self.front_cache.clear()

    # ------------------------------------------------------------------
    def _key(self, server_ip: str) -> str:
        return f"strategy-record:{server_ip}"

    def _record_for(self, server_ip: str) -> StrategyRecord:
        cached = self.front_cache.get(server_ip)
        if cached is not None:
            # The LRU is transient: re-validate against the store, which
            # owns expiry (the LRU may outlive the record's TTL).
            if self.store.exists(self._key(server_ip)):
                return cached
        payload = self.store.get(self._key(server_ip))
        record = (
            StrategyRecord.from_json(payload) if payload else StrategyRecord()
        )
        self.front_cache.put(server_ip, record)
        return record

    def _save(self, server_ip: str, record: StrategyRecord) -> None:
        self.store.set(self._key(server_ip), record.to_json(), ttl=self.record_ttl)
        self.front_cache.put(server_ip, record)
