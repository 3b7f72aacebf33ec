"""Hop-count measurement for TTL-limited insertion packets (§7.1).

"We do that by first measuring the hop count from the client to the
server using a way similar as tcptraceroute.  Then, we subtract a small
δ from the measured hop count … In our evaluation, we heuristically
choose δ = 2, but INTANG can iteratively change this to converge to a
good value."

The estimator snapshots the path's hop count at measurement time, so a
later route drift leaves the cached value stale — reproducing the
"network dynamics" failure cause of §3.4.  :meth:`adjust` implements the
iterative convergence the paper sketches.
"""

from __future__ import annotations

from typing import Dict

from repro.netsim.network import Network

#: The paper's heuristic safety margin.
DEFAULT_DELTA = 2

#: Never emit an insertion TTL below this; a TTL of 1 dies at the first
#: router and cannot reach any GFW device.
MIN_INSERTION_TTL = 2


class HopEstimator:
    """Caches per-destination hop counts measured tcptraceroute-style."""

    def __init__(self, network: Network, client_ip: str, delta: int = DEFAULT_DELTA) -> None:
        self.network = network
        self.client_ip = client_ip
        self.delta = delta
        self._measured: Dict[str, int] = {}
        self._adjustments: Dict[str, int] = {}

    def measure(self, server_ip: str, refresh: bool = False) -> int:
        """Measure (or return cached) hop count to ``server_ip``, the far
        end of the network's one path.

        The simulator substitute for a TTL-sweeping tcptraceroute: the
        returned value is the smallest TTL at which the server answers,
        which on a path with ``hop_count`` routers is ``hop_count + 1``.
        The value is read once and cached; route drift after this call
        makes the cache stale on purpose.
        """
        if refresh or server_ip not in self._measured:
            self._measured[server_ip] = self.network.path.hop_count + 1
        return self._measured[server_ip]

    def insertion_ttl(self, server_ip: str) -> int:
        """TTL for an insertion packet: measured hops − δ (± convergence)."""
        hops = self.measure(server_ip)
        adjustment = self._adjustments.get(server_ip, 0)
        return max(MIN_INSERTION_TTL, hops - self.delta + adjustment)

    def adjust(self, server_ip: str, step: int) -> int:
        """Iteratively nudge the TTL for a server (±1 after failures)."""
        self._adjustments[server_ip] = self._adjustments.get(server_ip, 0) + step
        return self.insertion_ttl(server_ip)

    def forget(self, server_ip: str) -> None:
        self._measured.pop(server_ip, None)
        self._adjustments.pop(server_ip, None)
