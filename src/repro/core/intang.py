"""INTANG assembled (§6, Fig. 2).

Wires together the interception framework (main thread), the
Redis-substitute store + LRU front cache (caching thread), the strategy
selector, the hop estimator, and optionally the DNS forwarder (DNS
thread).  The real tool's three threads collapse to one event loop in
simulation, but every component boundary of Fig. 2 is preserved.

Typical use::

    intang = INTANG(host=client_host, tcp_host=client_tcp, clock=clock,
                    network=net)
    connection, exchange = HTTPClient(client_tcp).get(server_ip, ...)
    clock.run_for(5)
    intang.report_result(server_ip, exchange.got_response)
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.tcp.stack import TCPHost
from repro.core.cache import KeyValueStore
from repro.core.framework import InterceptionFramework
from repro.core.hops import HopEstimator
from repro.core.selection import StrategySelector
from repro.core.strategy_base import ConnectionContext, EvasionStrategy
from repro.strategies.registry import DEFAULT_PRIORITY, make_strategy_factory
from repro.telemetry.recorder import get_recorder
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:
    from repro.core.dns_forwarder import DNSForwarder


class INTANG:
    """The measurement-driven evasion tool."""

    def __init__(
        self,
        host: Host,
        tcp_host: TCPHost,
        clock: SimClock,
        network: Optional[Network] = None,
        rng: Optional[random.Random] = None,
        fixed_strategy: Optional[str] = None,
        priority: Optional[Sequence[str]] = None,
        dns_resolver_ip: Optional[str] = None,
        hop_delta: int = 2,
        selector: Optional[StrategySelector] = None,
    ) -> None:
        self.host = host
        self.tcp_host = tcp_host
        self.clock = clock
        self.rng = rng or random.Random(0x1A7A46)
        # A selector may be shared across INTANG instances (the paper's
        # Redis store persists across restarts); otherwise build our own:
        # Fig. 2's caching layer, the Redis substitute behind the
        # selector's transient main-thread LRU front.
        if selector is None:
            selector = StrategySelector(
                KeyValueStore(time_source=lambda: clock.now),
                priority=list(priority or DEFAULT_PRIORITY),
            )
        self.selector = selector
        self.store = selector.store
        self.fixed_strategy = fixed_strategy
        self.hop_estimator: Optional[HopEstimator] = None
        if network is not None:
            self.hop_estimator = HopEstimator(network, host.ip, delta=hop_delta)
        #: connection key -> (server_ip, strategy_id) for result feedback.
        self.active: Dict[Tuple[int, str, int], Tuple[str, str]] = {}

        # The framework's callbacks close over the pieces they use (so
        # ``fixed_strategy`` is read here, once), never over this object:
        # bound methods would tie INTANG and its framework into a
        # reference cycle that outlives every trial until the cyclic
        # collector finds it.
        selector = self.selector
        active = self.active

        def build_strategy(ctx: ConnectionContext) -> EvasionStrategy:
            strategy_id = fixed_strategy or selector.choose(ctx.dst_ip)
            active[ctx.key()] = (ctx.dst_ip, strategy_id)
            get_registry().counter("intang.strategies_built").inc()
            get_recorder().publish(
                "intang", "strategy_selected", time=clock.now,
                server=ctx.dst_ip, strategy=strategy_id,
                fixed=fixed_strategy is not None,
            )
            return make_strategy_factory(strategy_id)(ctx)

        self.framework = InterceptionFramework(
            host=host,
            clock=clock,
            rng=self.rng,
            strategy_factory=build_strategy,
            # Without an estimator the framework's default TTL (10) is
            # INTANG's too.
            insertion_ttl_for=(
                self.hop_estimator.insertion_ttl
                if self.hop_estimator is not None
                else None
            ),
        )
        self.dns_forwarder: Optional[DNSForwarder] = None
        if dns_resolver_ip is not None:
            from repro.core.dns_forwarder import DNSForwarder

            self.dns_forwarder = DNSForwarder(
                self.framework, tcp_host, dns_resolver_ip, clock
            )

    # ------------------------------------------------------------------
    def report_result(self, server_ip: str, success: bool) -> None:
        """Feed back the outcome of the most recent trial to a server."""
        strategy_id = self.last_strategy_for(server_ip)
        if strategy_id is None:
            return
        registry = get_registry()
        registry.counter(
            "intang.results_success" if success else "intang.results_failure"
        ).inc()
        get_recorder().publish(
            "intang", "result_reported", time=self.clock.now,
            server=server_ip, strategy=strategy_id, success=success,
        )
        self.selector.report(server_ip, strategy_id, success)
        if not success and self.hop_estimator is not None:
            # §7.1: INTANG "can iteratively change [δ] to converge to a
            # good value" — refresh the hop measurement after a failure.
            self.hop_estimator.forget(server_ip)

    def last_strategy_for(self, server_ip: str) -> Optional[str]:
        for key in reversed(list(self.active)):
            ip, strategy_id = self.active[key]
            if ip == server_ip:
                return strategy_id
        return None

    def forget_finished_connections(self) -> int:
        """Prune bookkeeping for connections the framework dropped."""
        stale = [key for key in self.active if key not in self.framework.contexts]
        for key in stale:
            del self.active[key]
        return len(stale)

    def insertions_sent(self) -> int:
        return sum(
            len(ctx.insertions_sent) for ctx in self.framework.contexts.values()
        )

    def detach(self) -> None:
        """Stop intercepting (the tool can be toggled off live)."""
        self.framework.detach()

    def attach(self) -> None:
        self.framework.attach()

    # -- persistence (the Redis store's data-persistency feature, §6) -----
    def save_state(self) -> str:
        """Serialize the measurement history (per-server records)."""
        return self.selector.dump()

    def load_state(self, blob: str) -> None:
        """Restore measurement history saved by :meth:`save_state`.

        A restarted INTANG instance resumes with the strategies it had
        already converged on per server — the point of §6's persistent
        key-value store.
        """
        self.selector.load(blob)


__all__ = ["INTANG"]

