"""INTANG — the paper's measurement-driven censorship-evasion tool (§6).

The real INTANG is ~3.3 k lines of C built on netfilter-queue and raw
sockets; this package is its architectural twin on the simulator:

- :mod:`repro.core.framework` — the packet-interception layer (the
  netfilter-queue analogue): outgoing packets are diverted through the
  active strategy's callbacks, which may hold, replace, or augment them
  with insertion packets sent through a raw-socket path that bypasses
  re-interception;
- :mod:`repro.core.strategy_base` — the strategy plug-in interface and
  per-connection context (sequence tracking, hop estimates, crafting
  helpers);
- :mod:`repro.core.cache` — the Redis-substitute TTL'd key-value store
  and the transient LRU front cache of §6;
- :mod:`repro.core.selection` — measurement-driven strategy selection:
  historical per-server results decide which strategy a new connection
  uses;
- :mod:`repro.core.dns_forwarder` — the DNS thread: UDP queries to
  TCP-DNS conversion so reset-evasion strategies protect DNS too;
- :mod:`repro.core.responsiveness` — the GFW responsiveness/model probe
  (the measurement half of the paper's "measurement-driven" tool);
- :mod:`repro.core.intang` — the assembled tool.
"""
