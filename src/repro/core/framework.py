"""The packet-interception framework (netfilter-queue analogue, §6).

"The main thread runs a packet processing loop which intercepts certain
packets using the netfilter queue and injects insertion packets using
raw sockets.  While the packets are being processed, they are held in
the queue i.e., are not sent out until the processing is complete."

On the simulator the same two hooks exist on the client
:class:`~repro.netsim.node.Host`:

- an **egress filter** — every locally generated packet passes through
  the active strategy's ``on_outgoing`` before reaching the wire; the
  strategy's return value (original, replacements, plus any insertions)
  is released in order;
- an **ingress monitor** — a prepended, non-claiming handler that lets
  strategies observe SYN/ACKs and resets without stealing them from the
  TCP stack.

Raw-socket injection is :meth:`Host.send_raw`, which bypasses the egress
filter so insertion packets are not themselves re-processed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.netstack.packet import IPPacket, TCPSegment
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.core.strategy_base import ConnectionContext, EvasionStrategy, NoStrategy
from repro.telemetry.recorder import get_recorder
from repro.telemetry.metrics import get_registry

#: factory(ctx) -> strategy instance for a freshly opened connection.
StrategyFactory = Callable[[ConnectionContext], EvasionStrategy]

ConnKey = Tuple[int, str, int]  # (src_port, dst_ip, dst_port)

# Process-lifetime registry instruments, resolved once at import rather
# than per framework (one per INTANG, so one per trial).
_REGISTRY = get_registry()
_METRIC_INTERCEPTED = _REGISTRY.counter("strategy.packets_intercepted")
_METRIC_DROPPED = _REGISTRY.counter("strategy.packets_dropped")


class InterceptionFramework:
    """Wires strategies into a client host's packet paths."""

    def __init__(
        self,
        host: Host,
        clock: SimClock,
        rng: Optional[random.Random] = None,
        strategy_factory: Optional[StrategyFactory] = None,
        insertion_ttl_for: Optional[Callable[[str], int]] = None,
    ) -> None:
        self.host = host
        self.clock = clock
        self.rng = rng or random.Random(0xC0FFEE)
        self.strategy_factory = strategy_factory or (lambda ctx: NoStrategy(ctx))
        #: Maps destination IP -> TTL that reaches the GFW but not the
        #: server; defaults to a conservative constant when unwired.
        self.insertion_ttl_for = insertion_ttl_for or (lambda server_ip: 10)
        self.contexts: Dict[ConnKey, ConnectionContext] = {}
        self.strategies: Dict[ConnKey, EvasionStrategy] = {}
        #: Hooks for non-TCP interception (the DNS forwarder registers
        #: here); each receives (packet, now) and returns a release list
        #: or None to decline.
        self.udp_hooks: List[Callable[[IPPacket, float], Optional[List[IPPacket]]]] = []
        self._recorder = get_recorder()
        # Wired once for the host's one trial; `Host.clear` drops both.
        host.add_egress_filter(self._egress)
        host.register_handler(self._ingress, prepend=True)

    # ------------------------------------------------------------------
    def _egress(self, packet: IPPacket, now: float) -> List[IPPacket]:
        segment = packet.payload
        if segment.__class__ is not TCPSegment:
            if packet.is_udp:
                for hook in self.udp_hooks:
                    result = hook(packet, now)
                    if result is not None:
                        return result
            return [packet]
        key: ConnKey = (segment.src_port, packet.dst, segment.dst_port)
        ctx = self.contexts.get(key)
        if ctx is None:
            if not segment.is_pure_syn:
                return [packet]  # not a connection we watched from birth
            ctx = ConnectionContext(
                src_ip=packet.src,
                src_port=segment.src_port,
                dst_ip=packet.dst,
                dst_port=segment.dst_port,
                clock=self.clock,
                rng=self.rng,
                raw_send=self.host.send_raw,
                insertion_ttl=self.insertion_ttl_for(packet.dst),
            )
            self.contexts[key] = ctx
            self.strategies[key] = self.strategy_factory(ctx)
        ctx.observe_outgoing(packet)
        strategy = self.strategies[key]
        released = strategy.on_outgoing(packet)
        _METRIC_INTERCEPTED.inc()
        dropped = packet not in released
        if dropped:
            _METRIC_DROPPED.inc()
        if self._recorder.events_on:
            verdict = "drop" if dropped else (
                "accept" if released == [packet] else "rewrite"
            )
            self._recorder.publish(
                "strategy", "on_outgoing", time=now,
                strategy=strategy.strategy_id, verdict=verdict,
                summary=packet.summary(),
                released=len(released),
            )
        return released

    def _ingress(self, packet: IPPacket, now: float) -> bool:
        # Unrolled is_tcp/tcp property pair — this monitor sits ahead of
        # the TCP stack on every delivered packet.
        segment = packet.payload
        if segment.__class__ is not TCPSegment or packet.dst != self.host.ip:
            return False
        key: ConnKey = (segment.dst_port, packet.src, segment.src_port)
        ctx = self.contexts.get(key)
        if ctx is not None:
            ctx.observe_incoming(packet)
            self.strategies[key].on_incoming(packet)
        return False  # never claim; the TCP stack still processes it
