"""Ignore-path analysis tests: Table 3 regeneration, stack and middlebox
cross-validation (§5.3)."""

import pytest

from repro.analysis import (
    STANDARD_PROBES,
    cross_validate_middleboxes,
    cross_validate_stacks,
    derive_table5,
    generate_table3,
)
from repro.analysis.ignore_paths import (
    EXTENDED_PROBES,
    IgnoreVerdict,
    probe_server,
    run_ignore_path_analysis,
)
from repro.gfw.models import old_config
from repro.tcp.profiles import (
    LINUX_3_14,
    LINUX_4_4,
)
from repro.tcp.tcb import TCPState


class TestServerSideEnumeration:
    def test_all_standard_probes_ignored_by_linux_44(self):
        results = run_ignore_path_analysis()
        applicable = [
            r for r in results if r.verdict is not IgnoreVerdict.NOT_APPLICABLE
        ]
        assert applicable
        assert all(r.verdict is IgnoreVerdict.IGNORED for r in applicable)

    def test_each_probe_logs_its_own_drop_reason(self):
        """§5.3: each ignore path has a unique cause — probes must not
        trip each other's branches.  The one legitimate collision is
        no-flag vs FIN-only: both fail Linux's ACK-flag requirement."""
        reasons = {}
        for probe in STANDARD_PROBES:
            result = probe_server(probe, TCPState.ESTABLISHED, LINUX_4_4)
            if result.verdict is IgnoreVerdict.IGNORED and result.drop_reasons:
                reasons[probe.name] = result.drop_reasons[0]
        assert reasons["no-flag"] == reasons["fin-only"] == "data-without-ack-flag"
        others = {
            name: reason for name, reason in reasons.items() if name != "fin-only"
        }
        assert len(set(others.values())) == len(others)

    def test_ignored_probes_summary(self):
        ignored = {
            (result.probe.name, result.state)
            for result in run_ignore_path_analysis()
            if result.verdict is IgnoreVerdict.IGNORED
        }
        assert ("unsolicited-md5", TCPState.ESTABLISHED) in ignored
        assert ("rstack-bad-ack", TCPState.SYN_RECV) in ignored


class TestTable3:
    def test_all_nine_rows_regenerate(self):
        rows = generate_table3()
        assert len(rows) == 9
        conditions = [row.condition for row in rows]
        assert "IP total length > actual length" in conditions
        assert "TCP Header Length < 20" in conditions
        assert "TCP checksum incorrect" in conditions
        assert "Has unsolicited MD5 Optional Header" in conditions
        assert "TCP packet with no flag" in conditions
        assert "TCP packet with only FIN flag" in conditions
        assert "Timestamps too old" in conditions

    def test_universal_rows_marked_any_state(self):
        rows = {row.condition: row for row in generate_table3()}
        assert rows["TCP checksum incorrect"].tcp_state == "Any"
        assert rows["IP total length > actual length"].tcp_state == "Any"

    def test_rstack_bad_ack_row_is_syn_recv_only(self):
        rows = {(row.condition, row.flags): row for row in generate_table3()}
        row = rows[("Wrong acknowledgement number", "RST+ACK")]
        assert row.tcp_state == "SYN_RECV"

    def test_against_old_gfw_model(self):
        """Candidates remain valid against the old model too (it is even
        more permissive about control packets)."""
        rows = generate_table3(gfw_config=old_config())
        assert len(rows) >= 8


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def divergences(self):
        return cross_validate_stacks()

    def _has(self, divergences, profile, probe):
        return any(
            d.profile == profile and d.probe == probe for d in divergences
        )

    def test_2634_accepts_no_flag_data(self, divergences):
        assert self._has(divergences, "linux-2.6.34", "no-flag")

    def test_2437_accepts_no_flag_data(self, divergences):
        assert self._has(divergences, "linux-2.4.37", "no-flag")

    def test_2437_accepts_unsolicited_md5(self, divergences):
        assert self._has(divergences, "linux-2.4.37", "unsolicited-md5")

    def test_2634_rejects_unsolicited_md5(self, divergences):
        assert not self._has(divergences, "linux-2.6.34", "unsolicited-md5")

    def test_old_kernels_diverge_on_syn_in_established(self, divergences):
        assert self._has(divergences, "linux-2.6.34", "syn-in-established")

    def test_314_does_not_diverge_on_checksum(self, divergences):
        assert not self._has(divergences, "linux-3.14", "bad-checksum")

    def test_40_fully_agrees_with_44(self, divergences):
        assert not any(d.profile == "linux-4.0" for d in divergences)

    def test_314_syn_handling_differs_observably(self):
        """3.14 ignores silently; 4.4 sends a challenge ACK — both are
        'ignore' verdicts but distinguishable by the emitted ACK."""
        from repro.analysis.ignore_paths import (
            EXTENDED_PROBES,
            ServerHarness,
        )

        probe = [p for p in EXTENDED_PROBES if p.name == "syn-in-established"][0]
        for profile, challenges in ((LINUX_4_4, 1), (LINUX_3_14, 0)):
            harness = ServerHarness(profile=profile)
            connection = harness.drive_to(TCPState.ESTABLISHED)
            harness.fire(probe.build(harness))
            assert connection.challenge_acks_sent == challenges


class TestMiddleboxCrossValidation:
    @pytest.fixture(scope="class")
    def survival(self):
        return cross_validate_middleboxes()

    def test_md5_survives_every_provider(self, survival):
        assert all(survival["unsolicited-md5"].values())

    def test_bad_checksum_blocked_at_tianjin(self, survival):
        assert survival["bad-checksum"]["unicom-tj"] is False
        assert survival["bad-checksum"]["aliyun"] is True

    def test_no_flag_blocked_at_tianjin(self, survival):
        assert survival["no-flag"]["unicom-tj"] is False

    def test_fin_unreliable_at_aliyun(self, survival):
        assert survival["fin-only"]["aliyun"] is False

    def test_bad_ack_survives_everywhere(self, survival):
        assert all(survival["ack-bad-ack"].values())

    def test_old_timestamp_survives_everywhere(self, survival):
        assert all(survival["old-timestamp"].values())


class TestTable5:
    def test_preferred_construction_matches_paper(self):
        preferences = derive_table5()
        assert preferences["SYN"] == ["ttl"]
        assert preferences["RST"] == ["ttl", "md5"]
        assert preferences["Data"] == ["ttl", "md5", "bad-ack", "old-timestamp"]
