"""Discrepancy synthesis: Table 3, version cross-validation, Table 5.

Combines the two halves of the §5.3 analysis — server-ignores
(:mod:`repro.analysis.ignore_paths`) and GFW-accepts
(:mod:`repro.analysis.probe`) — into the confirmed-insertion-packet
rows of Table 3, then:

- :func:`cross_validate_stacks` reruns the server half on every
  modelled kernel and reports the divergences §5.3 lists (3.14's
  SYN-in-ESTABLISHED silence, 2.6.34/2.4.37 accepting no-ACK-flag data,
  2.4.37 accepting unsolicited MD5);
- :func:`cross_validate_middleboxes` pushes each candidate through every
  Table 2 provider profile and reports which survive;
- :func:`derive_table5` reduces all of the above to the preferred
  construction matrix (Table 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netstack.packet import IPPacket
from repro.gfw.models import GFWConfig
from repro.middlebox.profiles import (
    MiddleboxProfile,
    PROFILE_ALIYUN,
    PROFILE_QCLOUD,
    PROFILE_UNICOM_SJZ,
    PROFILE_UNICOM_TJ,
)
from repro.tcp.profiles import ALL_PROFILES, LINUX_4_4
from repro.tcp.tcb import TCPState
from repro.analysis.ignore_paths import (
    EXTENDED_PROBES,
    IgnoreProbe,
    IgnoreVerdict,
    ProbeWorld,
    STANDARD_PROBES,
    ServerHarness,
    probe_server,
)
from repro.analysis.probe import gfw_accepts_probe


@dataclass(frozen=True)
class DiscrepancyRow:
    """One confirmed insertion-packet condition (a Table 3 row)."""

    tcp_state: str
    gfw_state: str
    flags: str
    condition: str

    def as_tuple(self) -> Tuple[str, str, str, str]:
        return (self.tcp_state, self.gfw_state, self.flags, self.condition)


#: Seed of the Table 3 and stack cross-validation probe runs.
_TABLE3_SEED = 17
#: Seed of the middlebox cross-validation runs behind Table 5.
_TABLE5_SEED = 5


def generate_table3(gfw_config: Optional[GFWConfig] = None) -> List[DiscrepancyRow]:
    """Run both analysis halves against Linux 4.4 and emit the confirmed
    discrepancies."""
    rows: List[DiscrepancyRow] = []
    for probe in STANDARD_PROBES:
        ignored_states = []
        for state in probe.states:
            result = probe_server(probe, state, LINUX_4_4, seed=_TABLE3_SEED)
            if result.verdict is IgnoreVerdict.IGNORED:
                ignored_states.append(state)
        if not ignored_states:
            continue
        gfw_result = gfw_accepts_probe(probe, config=gfw_config, seed=_TABLE3_SEED)
        if not gfw_result.accepted:
            continue
        rows.append(
            DiscrepancyRow(
                tcp_state=_states_label(ignored_states, probe),
                gfw_state=_gfw_state_label(gfw_result.gfw_state_after),
                flags=probe.flags_label,
                condition=probe.condition,
            )
        )
    return rows


def _states_label(states: List[TCPState], probe: IgnoreProbe) -> str:
    if probe.flags_label == "Any" and len(states) == 2 and probe.name in (
        "oversize-ip-length", "short-tcp-header", "bad-checksum",
    ):
        return "Any"
    return "/".join(state.value for state in states)


def _gfw_state_label(after: str) -> str:
    if after == "TCB deleted":
        return "LISTEN (terminated) / RESYNC"
    return "ESTABLISHED/RESYNC"


# ---------------------------------------------------------------------------
# Cross-validation with other TCP stacks (§5.3)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StackDivergence:
    profile: str
    probe: str
    state: str
    reference_verdict: str
    this_verdict: str


def cross_validate_stacks() -> List[StackDivergence]:
    """Where do other kernels diverge from Linux 4.4's ignore paths?"""
    reference_verdicts: Dict[Tuple[str, TCPState], IgnoreVerdict] = {}
    for probe in EXTENDED_PROBES:
        for state in probe.states:
            result = probe_server(probe, state, LINUX_4_4, seed=_TABLE3_SEED)
            reference_verdicts[(probe.name, state)] = result.verdict
    divergences: List[StackDivergence] = []
    for profile in ALL_PROFILES:
        if profile.name == LINUX_4_4.name:
            continue
        for probe in EXTENDED_PROBES:
            for state in probe.states:
                result = probe_server(probe, state, profile, seed=_TABLE3_SEED)
                reference_verdict = reference_verdicts[(probe.name, state)]
                if result.verdict is IgnoreVerdict.NOT_APPLICABLE:
                    continue
                if result.verdict is not reference_verdict:
                    divergences.append(
                        StackDivergence(
                            profile=profile.name,
                            probe=probe.name,
                            state=state.value,
                            reference_verdict=reference_verdict.value,
                            this_verdict=result.verdict.value,
                        )
                    )
    return divergences


# ---------------------------------------------------------------------------
# Cross-validation with middleboxes (§5.3) and Table 5
# ---------------------------------------------------------------------------
_PROVIDERS = (
    PROFILE_ALIYUN, PROFILE_QCLOUD, PROFILE_UNICOM_SJZ, PROFILE_UNICOM_TJ
)


#: Copies of each probe pushed through a provider's boxes.
_SURVIVAL_REPEATS = 6


def _survives_provider(packet_factory, provider: MiddleboxProfile) -> bool:
    """Would packets of this shape reliably traverse the provider's boxes?

    "Reliably" means every one of ``_SURVIVAL_REPEATS`` copies survived —
    a sometimes-dropped vehicle is not a dependable insertion carrier.
    """
    world = ProbeWorld(_TABLE5_SEED, hop_count=6, name="mb")
    for box in provider.build_boxes(hop=2, rng=random.Random(_TABLE5_SEED + 1)):
        world.path.add_element(box)
    arrived: List[IPPacket] = []

    def sniff(packet: IPPacket, now: float) -> bool:
        arrived.append(packet)
        return False

    world.server.register_handler(sniff, prepend=True)
    for index in range(_SURVIVAL_REPEATS):
        world.client.send(packet_factory(index))
        world.clock.run_for(0.1)
    return len(arrived) == _SURVIVAL_REPEATS


def cross_validate_middleboxes() -> Dict[str, Dict[str, bool]]:
    """probe name -> provider name -> survives reliably."""
    survival: Dict[str, Dict[str, bool]] = {}
    for probe in STANDARD_PROBES:
        harness = ServerHarness(seed=_TABLE5_SEED)
        harness.drive_to(TCPState.ESTABLISHED)

        def factory(index: int, probe=probe, harness=harness) -> IPPacket:
            return probe.build(harness)

        survival[probe.name] = {
            provider.name: _survives_provider(factory, provider)
            for provider in _PROVIDERS
        }
    return survival


def derive_table5() -> Dict[str, List[str]]:
    """Reduce the analysis to Table 5's preferred-vehicle matrix.

    The TTL vehicle is always available (it needs no header anomaly a
    middlebox could sanitize); the other vehicles qualify for a packet
    type when the server ignores them in the states that matter, the
    GFW accepts them, middleboxes pass them, and — for control packets —
    they do not reset an ESTABLISHED server (§5.3: "even if the RST/ACK
    has a wrong ACK number or old timestamp, it will still be able to
    reset the connection").
    """
    survival = cross_validate_middleboxes()
    md5_safe = all(survival["unsolicited-md5"].values())
    preferences: Dict[str, List[str]] = {
        "SYN": ["ttl"],
        "RST": ["ttl"] + (["md5"] if md5_safe else []),
        "Data": ["ttl"]
        + (["md5"] if md5_safe else [])
        + ["bad-ack", "old-timestamp"],
    }
    return preferences
