"""GFW-acceptance probing (§5.3, censor half of Table 3).

The server-side enumeration yields packets the server *ignores*; a
candidate only becomes an insertion packet if the GFW still *accepts*
it — "the GFW updates its TCB according to the information in the
packet".  :class:`GFWHarness` builds a live device on a tap, replays the
connection prefix that establishes the target GFW state, fires the
candidate carrying a junk payload at the expected sequence position,
and reads acceptance from the device's own flow state (did
``client_next_seq`` advance past the junk? did the TCB die?).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.netstack.packet import ACK, IPPacket, SYN, TCPSegment
from repro.gfw.device import GFWDevice
from repro.gfw.flow import GFWFlowState
from repro.gfw.models import GFWConfig, evolved_config
from repro.analysis.ignore_paths import (
    CLIENT_IP,
    CLIENT_PORT,
    SERVER_IP,
    SERVER_PORT,
    IgnoreProbe,
    ProbeWorld,
)


class GFWHarness(ProbeWorld):
    """A GFW device on a clean six-hop path, with scripted endpoints."""

    def __init__(
        self, config: Optional[GFWConfig] = None, seed: int = 7
    ) -> None:
        super().__init__(seed, hop_count=6, name="gfw-probe")
        self.device = GFWDevice(
            "gfw-probe", hop=3, config=config or evolved_config(),
            clock=self.clock, rng=random.Random(seed + 1),
        )
        self.device.cluster.miss_probability = 0.0
        self.path.add_element(self.device)
        self.server_isn = self.rng.randrange(2**32)

    # -- scripted packets ---------------------------------------------------
    def send_from_server(self, segment: TCPSegment) -> None:
        self.server.send(IPPacket(src=SERVER_IP, dst=CLIENT_IP, payload=segment))
        self.clock.run_for(0.05)

    def establish(self) -> None:
        """Replay a clean 3-way handshake past the device."""
        self.send_from_client(self._segment(SYN, seq=self.client_isn))
        synack = TCPSegment(
            src_port=SERVER_PORT, dst_port=CLIENT_PORT,
            seq=self.server_isn, ack=self.snd_nxt(), flags=SYN | ACK,
        )
        self.send_from_server(synack)
        self.send_from_client(
            self._segment(ACK, seq=self.snd_nxt(), ack=self.rcv_nxt())
        )

    def flow(self):
        return self.device.flow_for(
            CLIENT_IP, CLIENT_PORT, SERVER_IP, SERVER_PORT
        )


@dataclass
class GFWProbeResult:
    probe_name: str
    accepted: bool
    gfw_state_after: str


def gfw_accepts_probe(
    probe: IgnoreProbe,
    config: Optional[GFWConfig] = None,
    seed: int = 7,
) -> GFWProbeResult:
    """Does the GFW process this candidate insertion packet?

    A *data* candidate counts as accepted when the device's expected
    client sequence number advances past the junk payload.  A *control*
    candidate (RST/FIN flavors) counts as accepted when the device's TCB
    is deleted or moved to the resynchronization state.
    """
    harness = GFWHarness(config=config, seed=seed)
    harness.establish()
    flow_before = harness.flow()
    assert flow_before is not None, "handshake did not create a GFW flow"
    seq_before = flow_before.client_next_seq
    state_before = flow_before.state

    # Build the probe packet against this harness's sequence numbers.
    harness.fire(probe.build(harness))

    flow_after = harness.flow()
    if flow_after is None:
        return GFWProbeResult(probe.name, True, "TCB deleted")
    if flow_after.state is GFWFlowState.RESYNC and state_before is not GFWFlowState.RESYNC:
        return GFWProbeResult(probe.name, True, "RESYNC")
    advanced = flow_after.client_next_seq != seq_before
    return GFWProbeResult(
        probe.name, advanced, flow_after.state.value
    )

