"""The 90-second host-pair blacklist (§2.1).

After a detection, the GFW "sustains the disruption for a certain period
(90 seconds as per our measurements)": during that window any SYN between
the two hosts triggers a forged SYN/ACK with a wrong sequence number
(type-2 devices only) and any other packet triggers forged resets.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.telemetry.metrics import get_registry

HostPair = Tuple[str, str]

#: Entries that aged out of the window (read-side lazy expiry).  Beside
#: ``total_blacklistings`` this gives the Ensafi-style blacklist-churn
#: view: a re-match after expiry simply blacklists the pair again.
_METRIC_TTL_EXPIRED = get_registry().counter("blacklist.ttl_expired")

DEFAULT_BLACKLIST_DURATION = 90.0


class Blacklist:
    """Expiring set of (host, host) pairs."""

    def __init__(self, duration: float = DEFAULT_BLACKLIST_DURATION) -> None:
        self.duration = duration
        #: Host pair -> expiry time.  Read-only outside this class: the
        #: GFW device tests it for emptiness before calling ``contains``.
        self.expiry: Dict[HostPair, float] = {}
        self.total_blacklistings = 0
        self.total_expirations = 0

    @staticmethod
    def _key(host_a: str, host_b: str) -> HostPair:
        return (host_a, host_b) if host_a <= host_b else (host_b, host_a)

    def add(self, host_a: str, host_b: str, now: float) -> None:
        self.expiry[self._key(host_a, host_b)] = now + self.duration
        self.total_blacklistings += 1

    def contains(self, host_a: str, host_b: str, now: float) -> bool:
        key = self._key(host_a, host_b)
        expiry = self.expiry.get(key)
        if expiry is None:
            return False
        if now >= expiry:
            del self.expiry[key]
            self.total_expirations += 1
            _METRIC_TTL_EXPIRED.inc()
            return False
        return True

    def remaining(self, host_a: str, host_b: str, now: float) -> float:
        """Seconds of blacklist left for the pair (0 when not listed)."""
        key = self._key(host_a, host_b)
        expiry = self.expiry.get(key)
        if expiry is None:
            return 0.0
        return max(0.0, expiry - now)

    def sweep(self, now: float) -> int:
        """Expire every stale entry now; returns how many aged out.

        ``contains`` expires lazily on read, so a pair whose connection
        died never materializes its expiry.  Measurement code (the
        inconsistency sweep's blacklist-churn timeline) calls this at a
        known sim time to account for those.
        """
        stale = [key for key, expiry in self.expiry.items() if now >= expiry]
        for key in stale:
            del self.expiry[key]
        self.total_expirations += len(stale)
        if stale:
            _METRIC_TTL_EXPIRED.inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        self.expiry.clear()

    def __len__(self) -> int:
        return len(self.expiry)
