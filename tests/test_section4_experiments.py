"""§4's probing experiments, replayed as executable tests.

The paper infers the evolved GFW model by a series of controlled
client/server experiments.  Each test here is one of those experiments,
run against the evolved device; together they retrace the paper's
inference chain — including the two candidate explanations §4 *rules
out* (multiple TCBs; a stateless per-packet matcher) and the one it
confirms (re-synchronization).
"""

import pytest

from repro.analysis.probe import GFWHarness
from repro.gfw import evolved_config
from repro.gfw.flow import GFWFlowState
from repro.netstack.packet import ACK, RST, SYN, TCPSegment, seq_add

REQUEST = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"


def _request_segment(harness, seq=None, payload=REQUEST):
    return harness._segment(
        ACK,
        seq=harness.snd_nxt() if seq is None else seq,
        ack=harness.rcv_nxt(),
        payload=payload,
    )


class TestPriorAssumption1:
    """'The GFW creates a TCB only upon seeing a SYN packet.'"""

    def test_partial_handshake_syn_only_still_tracks(self):
        """Omitting SYN/ACK and ACK: a SYN alone creates a working TCB."""
        harness = GFWHarness()
        harness.send_from_client(
            harness._segment(SYN, seq=harness.client_isn)
        )
        harness.send_from_client(_request_segment(harness))
        assert len(harness.device.detections) == 1

    def test_partial_handshake_synack_only_still_tracks(self):
        """§4's surprise: a bare SYN/ACK (no SYN seen) creates a TCB
        whose monitored direction is toward the SYN/ACK's destination."""
        harness = GFWHarness()
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        assert harness.flow() is not None
        harness.send_from_client(_request_segment(harness))
        assert len(harness.device.detections) == 1

    def test_no_handshake_at_all_is_invisible(self):
        harness = GFWHarness()
        harness.send_from_client(_request_segment(harness, seq=123456))
        assert len(harness.device.detections) == 0


class TestPriorAssumption2:
    """'The GFW uses the first SYN's sequence number and ignores later
    SYNs' — and the three candidate explanations for its failure."""

    def _multi_syn_setup(self, true_syn_position: int):
        """Send three SYNs; the 'true' one (matching the later request)
        at the given position.  §4: 'no matter where we put the true SYN
        packet, the GFW can always detect the later sensitive keyword'."""
        harness = GFWHarness()
        fakes = [seq_add(harness.client_isn, 0x11111111),
                 seq_add(harness.client_isn, 0x22222222)]
        seqs = fakes[:true_syn_position] + [harness.client_isn] + fakes[true_syn_position:]
        for seq in seqs:
            harness.send_from_client(harness._segment(SYN, seq=seq))
        return harness

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_keyword_detected_wherever_the_true_syn_sits(self, position):
        harness = self._multi_syn_setup(position)
        harness.send_from_client(_request_segment(harness))
        assert len(harness.device.detections) == 1

    def test_hypothesis1_multiple_tcbs_ruled_out(self):
        """(1) would track one TCB per SYN — then a request whose seq is
        out of window w.r.t. *every* SYN would be missed.  It is not."""
        harness = self._multi_syn_setup(0)
        far_out = seq_add(harness.client_isn, 0x7A000000)
        harness.send_from_client(_request_segment(harness, seq=far_out))
        assert len(harness.device.detections) == 1

    def test_hypothesis2_stateless_mode_ruled_out(self):
        """(2) per-packet matching would miss a keyword split across
        segments.  The real device still detects it…"""
        harness = self._multi_syn_setup(0)
        half = 12  # splits mid-keyword: b"GET /?q=ultr" | b"asurf ..."
        assert b"ultrasurf" not in REQUEST[:half]
        assert b"ultrasurf" not in REQUEST[half:]
        harness.send_from_client(_request_segment(harness, payload=REQUEST[:half]))
        harness.send_from_client(
            _request_segment(
                harness,
                seq=seq_add(harness.snd_nxt(), half),
                payload=REQUEST[half:],
            )
        )
        assert len(harness.device.detections) == 1

    def test_hypothetical_stateless_device_would_miss_the_split(self):
        """…whereas an actual stateless design (the knob) misses it —
        which is precisely how the paper eliminated the hypothesis."""
        config = evolved_config(stateless_mode=True)
        harness = GFWHarness(config=config)
        harness.establish()
        half = 12  # splits mid-keyword
        harness.send_from_client(_request_segment(harness, payload=REQUEST[:half]))
        harness.send_from_client(
            _request_segment(
                harness,
                seq=seq_add(harness.snd_nxt(), half),
                payload=REQUEST[half:],
            )
        )
        assert len(harness.device.detections) == 0

    def test_stateless_device_still_catches_whole_packets(self):
        config = evolved_config(stateless_mode=True)
        harness = GFWHarness(config=config)
        harness.establish()
        harness.send_from_client(_request_segment(harness))
        assert len(harness.device.detections) == 1

    def test_hypothesis3_resynchronization_confirmed(self):
        """(3) 'before sending the HTTP request, we send some random
        data with a false sequence number, and then the HTTP request
        with true sequence number; the GFW cannot detect it'."""
        harness = self._multi_syn_setup(0)
        harness.send_from_client(
            _request_segment(
                harness,
                seq=seq_add(harness.client_isn, 0x40000000),
                payload=b"randomdata",
            )
        )
        harness.send_from_client(_request_segment(harness))
        assert len(harness.device.detections) == 0


class TestResyncTriggersAndResolvers:
    """§4: which packets enter, and which resolve, the resync state."""

    def _resynced(self):
        harness = GFWHarness()
        harness.establish()
        harness.send_from_client(harness._segment(SYN, seq=999))
        assert harness.flow().state is GFWFlowState.RESYNC
        return harness

    def test_server_data_does_not_resynchronize(self):
        harness = self._resynced()
        server_data = TCPSegment(
            src_port=80, dst_port=45000,
            seq=seq_add(harness.server_isn, 1),
            ack=harness.snd_nxt(), flags=ACK, payload=b"HTTP/1.1 200",
        )
        harness.send_from_server(server_data)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_pure_acks_do_not_resynchronize_either_direction(self):
        harness = self._resynced()
        harness.send_from_client(
            harness._segment(ACK, seq=0x123, ack=0x456)
        )
        server_ack = TCPSegment(
            src_port=80, dst_port=45000, seq=0x111, ack=0x222, flags=ACK,
        )
        harness.send_from_server(server_ack)
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_server_synack_resynchronizes(self):
        harness = self._resynced()
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        flow = harness.flow()
        assert flow.state is GFWFlowState.ESTABLISHED
        assert flow.client_next_seq == seq_add(harness.client_isn, 1)

    def test_client_data_resynchronizes(self):
        harness = self._resynced()
        harness.send_from_client(
            _request_segment(harness, seq=0x5000, payload=b"x")
        )
        flow = harness.flow()
        assert flow.state is GFWFlowState.ESTABLISHED
        assert flow.client_next_seq == 0x5001


class TestPriorAssumption3:
    """RST/RST-ACK teardown vs the resync state, in and out of the
    handshake window."""

    def test_rst_during_handshake_resyncs_more_often(self):
        """§4: 'this happens way more frequently for the former case' —
        encoded as two separate cluster coins; assert the wiring."""
        config = evolved_config(
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=1.0,
        )
        harness = GFWHarness(config=config)
        # RST between SYN/ACK and ACK: handshake incomplete -> resync.
        harness.send_from_client(
            harness._segment(SYN, seq=harness.client_isn)
        )
        synack = TCPSegment(
            src_port=80, dst_port=45000, seq=harness.server_isn,
            ack=seq_add(harness.client_isn, 1), flags=SYN | ACK,
        )
        harness.send_from_server(synack)
        harness.send_from_client(
            harness._segment(RST, seq=harness.snd_nxt())
        )
        assert harness.flow() is not None
        assert harness.flow().state is GFWFlowState.RESYNC

    def test_rst_after_handshake_uses_established_coin(self):
        config = evolved_config(
            resync_on_rst_probability=0.0,
            resync_on_rst_handshake_probability=1.0,
        )
        harness = GFWHarness(config=config)
        harness.establish()  # includes the client's pure ACK
        harness.send_from_client(
            harness._segment(RST, seq=harness.snd_nxt())
        )
        assert harness.flow() is None  # torn down: established coin said so
