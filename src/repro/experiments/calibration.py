"""Calibration knobs: where the table-shaped numbers come from.

Every stochastic ingredient of the measurement environment is a field
here, each anchored to a paper observation.  The success/failure rates
of Tables 1/4/6 are *emergent*: they fall out of mechanism (TTL expiry,
middlebox profiles, the GFW state machines) exercised under these
environmental frequencies — no table cell is hard-coded anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class Calibration:
    """Environmental frequencies for experiment scenarios."""

    # -- GFW population ------------------------------------------------------
    #: §3.4: a persistent ~2.8 % of flows slip past even with no strategy
    #: ("possibly because of overloading of the GFW", first seen in 2007).
    gfw_miss_probability: float = 0.028
    #: Fraction of paths still served only by old-model devices — the
    #: headroom above the miss rate in Table 1's "TCB creation" success.
    old_model_only_fraction: float = 0.04
    #: Fraction of paths where old and evolved devices co-exist (§7.1's
    #: reason for combining strategies).
    both_models_fraction: float = 0.15
    #: Evolved devices that kept the old last-wins preference for queued
    #: out-of-order TCP segments (Table 1: that strategy still succeeds
    #: ~31 % of the time).
    evolved_tcp_ooo_lastwins_fraction: float = 0.32
    #: Evolved devices that ignore flag-less segments (Table 1's ~48 %
    #: "No TCP flag" failure rate net of the Tianjin middlebox).
    evolved_ignores_noflag_fraction: float = 0.42
    #: Evolved devices that do validate ACK numbers on data packets
    #: (Table 1 "Bad ACK number": 9.5 % Failure 2).
    evolved_validates_ack_fraction: float = 0.07
    #: Evolved devices that retained FIN teardown (Table 1's FIN rows
    #: succeed slightly above the old-model+overload floor).
    evolved_fin_teardown_fraction: float = 0.06
    #: NB3 coin: RST becomes RESYNC instead of teardown (§4: "the overall
    #: success rate is roughly 80 %"), drawn per installation per period.
    resync_on_rst_probability: float = 0.20
    #: Same, for RSTs inside the handshake window ("way more frequently").
    resync_on_rst_handshake_probability: float = 0.80

    # -- network dynamics -------------------------------------------------------
    #: Probability the route changed between hop measurement and trial
    #: (§3.4 "network dynamics"), inside China…
    route_drift_probability: float = 0.12
    #: …and for outside-China vantage points, where the GFW sits within a
    #: few hops of the server and routes are long (§7.1).
    route_drift_probability_outside: float = 0.15
    #: (side, delta, weight): how routes drift when they do.  Server-side
    #: shortening makes stale TTLs reach the server (Failure 1);
    #: client-side lengthening makes them fall short of the GFW
    #: (Failure 2).
    drift_choices: Tuple[Tuple[str, int, float], ...] = (
        ("server", -2, 0.35),
        ("server", -1, 0.10),
        ("client", 4, 0.30),
        ("client", 2, 0.25),
    )
    #: Outside-China routes drift mostly within China's border segment
    #: (server side, relative to the measuring client).
    outside_drift_choices: Tuple[Tuple[str, int, float], ...] = (
        ("server", -2, 0.50),
        ("server", -1, 0.20),
        ("client", 2, 0.30),
    )
    #: §7.1 outside China: "it is extremely hard to converge to a TTL
    #: value … that satisfies the requirement of hitting the GFW but not
    #: the server" — probability the tcptraceroute-style measurement
    #: overshoots by two hops on those long asymmetric routes, sending
    #: TTL-limited insertion packets all the way to the server.
    outside_ttl_error_probability: float = 0.07
    #: Steady-state per-traversal loss probability.
    base_loss_rate: float = 0.01
    #: Probability a trial happens during a loss burst, and the burst's
    #: loss rate (stands in for the paper's excluded "slow or
    #: unresponsive" tail and transient congestion).
    burst_loss_probability: float = 0.012
    burst_loss_rate: float = 0.45
    #: Per-segment delay jitter as a fraction of the nominal per-hop
    #: delay (see :class:`repro.netsim.network.Path`).  Zero in the
    #: paper-default environment; the conformance fault grid sweeps it to
    #: exercise reordering under the same verdict oracles.
    path_jitter: float = 0.0

    # -- client-side equipment ---------------------------------------------------
    #: §3.4: some NAT/state-checking firewalls adopt insertion packets
    #: into their own state and then blackhole the real connection.
    stateful_firewall_fraction: float = 0.025
    #: Of those, the fraction that additionally enforce sequence windows
    #: (and therefore also eat fake-SYN/desync insertion packets).
    firewall_checks_sequences_fraction: float = 0.5

    # -- server population ---------------------------------------------------------
    #: Alexa servers still on pre-3.x kernels (accept no-flag data,
    #: don't validate ACK numbers, pre-RFC5961 RST handling).
    old_server_fraction: float = 0.08
    #: Servers whose out-of-order overlap preference matches the GFW's
    #: junk-keeping (§3.4 "a server might accept the junk data").
    server_ooo_lastwins_fraction: float = 0.05

    # -- GFW placement -----------------------------------------------------------
    #: Inside China the GFW tap sits at this fraction of the path.
    gfw_position_range: Tuple[float, float] = (0.50, 0.75)
    #: Outside China the GFW is within a few hops of the Chinese server
    #: (§7.1: "sometimes co-located"): hops-from-server and weights.
    outside_gfw_server_gap: Tuple[Tuple[int, float], ...] = (
        (2, 0.04),
        (3, 0.40),
        (4, 0.36),
        (5, 0.20),
    )

    # -- spatiotemporal heterogeneity (extension, not paper) -------------------------
    #: Simulated hour-of-day (0–24) the trial runs at.  Only routes of
    #: the ``heterogeneous`` GFW pseudo-variant consult it (diurnal
    #: reset-suppression curves, :mod:`repro.gfw.heterogeneity`); every
    #: paper-default experiment is hour-invariant.
    sim_hour: float = 12.0

    # -- tool parameters ------------------------------------------------------------
    #: §3.4: insertion packets are repeated against loss.
    insertion_copies: int = 3
    #: §7.1: δ subtracted from the measured hop count.
    hop_delta: int = 2
    #: Sim-seconds to run each trial before classification.
    trial_duration: float = 10.0

    def variant(self, **changes: object) -> "Calibration":
        return replace(self, **changes)  # type: ignore[arg-type]


#: The default environment used by all table reproductions.
DEFAULT_CALIBRATION = Calibration()

#: A sterile environment — no loss, no drift, no middlebox randomness,
#: no GFW misses — used by unit/integration tests that assert mechanism.
CLEAN_ROOM = Calibration(
    gfw_miss_probability=0.0,
    old_model_only_fraction=0.0,
    both_models_fraction=0.0,
    evolved_tcp_ooo_lastwins_fraction=0.0,
    evolved_ignores_noflag_fraction=0.0,
    evolved_validates_ack_fraction=0.0,
    evolved_fin_teardown_fraction=0.0,
    resync_on_rst_probability=0.0,
    resync_on_rst_handshake_probability=0.0,
    route_drift_probability=0.0,
    route_drift_probability_outside=0.0,
    outside_ttl_error_probability=0.0,
    base_loss_rate=0.0,
    burst_loss_probability=0.0,
    stateful_firewall_fraction=0.0,
    old_server_fraction=0.0,
    server_ooo_lastwins_fraction=0.0,
)
