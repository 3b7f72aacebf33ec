"""Experiment-harness tests: vantage/catalog invariants, classification,
scenario assembly, the Table 2 probe, and small statistical checks."""

import pytest

from repro.experiments import (
    ALL_VANTAGE_POINTS,
    CHINA_VANTAGE_POINTS,
    CLEAN_ROOM,
    DEFAULT_CALIBRATION,
    DYN_RESOLVERS,
    OPENDNS_RESOLVERS,
    OUTSIDE_VANTAGE_POINTS,
    Outcome,
    VerdictDistribution,
    build_scenario,
    inside_china_catalog,
    outside_china_catalog,
    run_dns_trial,
    run_http_trial,
    run_tor_trial,
    run_vpn_trial,
    vantage_by_name,
)
from repro.experiments.middlebox_probe import probe_vantage
from repro.experiments.runner import classify, run_strategy_cell
from repro.experiments.vantage import provider_counts, tor_unfiltered_points


class TestVantagePoints:
    def test_paper_population(self):
        """§3.3: 11 clients, 9 cities, 3 ISPs; §7: 4 outside China."""
        assert len(CHINA_VANTAGE_POINTS) == 11
        assert len({v.city for v in CHINA_VANTAGE_POINTS}) == 9
        assert provider_counts() == {"Aliyun": 6, "QCloud": 3, "China Unicom": 2}
        assert len(OUTSIDE_VANTAGE_POINTS) == 4

    def test_unique_ips(self):
        ips = [v.ip for v in ALL_VANTAGE_POINTS]
        assert len(set(ips)) == len(ips)

    def test_tor_unfiltered_points_match_paper(self):
        """§7.3: four vantage points in three northern cities."""
        points = tor_unfiltered_points()
        assert len(points) == 4
        assert {v.city for v in points} == {"Beijing", "Zhangjiakou", "Qingdao"}

    def test_lookup(self):
        assert vantage_by_name("unicom-tianjin").provider_profile == "unicom-tj"
        with pytest.raises(KeyError):
            vantage_by_name("nowhere")


class TestWebsiteCatalogs:
    def test_sizes(self):
        assert len(outside_china_catalog()) == 77
        assert len(inside_china_catalog()) == 33

    def test_deterministic(self):
        assert outside_china_catalog() == outside_china_catalog()

    def test_unique_ips_and_asns(self):
        sites = outside_china_catalog()
        assert len({site.ip for site in sites}) == 77
        assert len({site.asn for site in sites}) == 77

    def test_rank_range_matches_paper(self):
        ranks = [site.alexa_rank for site in outside_china_catalog()]
        assert min(ranks) >= 41
        assert max(ranks) <= 2091 + 26

    def test_kernel_quotas(self):
        sites = outside_china_catalog()
        old = [s for s in sites if s.server_profile.startswith("linux-2")]
        assert len(old) == round(77 * DEFAULT_CALIBRATION.old_server_fraction)
        assert sum(1 for s in old if s.server_profile == "linux-2.4.37") >= 1

    def test_gfw_position_inside_path(self):
        for site in outside_china_catalog():
            assert 2 <= site.gfw_hop <= site.hop_count - 2

    def test_resolver_constants(self):
        assert [r.ip for r in DYN_RESOLVERS] == ["216.146.35.35", "216.146.36.36"]
        assert all(not r.censored_path for r in OPENDNS_RESOLVERS)


class TestClassification:
    def test_notation(self):
        """§3.4's Success / Failure 1 / Failure 2 definitions."""
        assert classify(True, 0) is Outcome.SUCCESS
        assert classify(False, 0) is Outcome.FAILURE1
        assert classify(False, 3) is Outcome.FAILURE2
        # "receive no reset packets from the GFW" is part of Success:
        assert classify(True, 1) is Outcome.FAILURE2

    def test_rate_triple(self):
        triple = VerdictDistribution.from_outcomes(
            [Outcome.SUCCESS, Outcome.SUCCESS, Outcome.FAILURE1, Outcome.FAILURE2]
        )
        assert triple.rates() == (0.5, 0.25, 0.25)
        assert tuple(triple) == (2, 1, 1)
        assert triple.trials == 4

    def test_rate_triple_empty(self):
        empty = VerdictDistribution.from_outcomes([])
        assert empty.trials == 0
        assert empty.rates() == (0.0, 0.0, 0.0)


class TestScenarioAssembly:
    def test_http_scenario_shape(self):
        scenario = build_scenario(
            vantage=CHINA_VANTAGE_POINTS[0],
            website=outside_china_catalog()[0],
            calibration=CLEAN_ROOM,
            seed=1,
        )
        assert scenario.gfw_devices
        assert scenario.http_server is not None
        assert scenario.path.hop_count == outside_china_catalog()[0].hop_count

    def test_outside_china_geometry(self):
        site = inside_china_catalog()[0]
        scenario = build_scenario(
            vantage=OUTSIDE_VANTAGE_POINTS[0],
            website=site,
            calibration=CLEAN_ROOM,
            seed=1,
        )
        gap = scenario.path.hop_count - scenario.gfw_devices[0].hop
        assert 2 <= gap <= 5  # §7.1: GFW within a few hops of the server

    def test_clean_room_is_deterministic_success(self):
        vantage = vantage_by_name("qcloud-guangzhou")
        site = outside_china_catalog()[3]
        outcomes = {
            run_http_trial(vantage, site, "tcb-teardown+tcb-reversal",
                           CLEAN_ROOM, seed=s).outcome
            for s in range(5)
        }
        assert outcomes == {Outcome.SUCCESS}

    def test_clean_room_baseline_always_caught(self):
        vantage = vantage_by_name("qcloud-guangzhou")
        site = outside_china_catalog()[3]
        outcomes = {
            run_http_trial(vantage, site, "none", CLEAN_ROOM, seed=s).outcome
            for s in range(5)
        }
        assert outcomes == {Outcome.FAILURE2}

    def test_benign_clean_room_succeeds_without_strategy(self):
        vantage = vantage_by_name("aliyun-beijing")
        site = outside_china_catalog()[5]
        record = run_http_trial(vantage, site, "none", CLEAN_ROOM, seed=1,
                                keyword=False)
        assert record.outcome is Outcome.SUCCESS
        assert record.detections == 0

    def test_dns_workload_requires_resolver(self):
        with pytest.raises(ValueError):
            build_scenario(
                vantage=CHINA_VANTAGE_POINTS[0], calibration=CLEAN_ROOM,
                seed=0, workload="dns",
            )

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(
                vantage=CHINA_VANTAGE_POINTS[0],
                website=outside_china_catalog()[0],
                calibration=CLEAN_ROOM, seed=0, workload="smtp",
            )


class TestMiddleboxProbe:
    """Regenerating Table 2 rows from live probes."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {
            name: probe_vantage(vantage_by_name(name))
            for name in (
                "aliyun-beijing", "qcloud-qingdao",
                "unicom-shijiazhuang", "unicom-tianjin",
            )
        }

    def test_aliyun_row(self, reports):
        results = reports["aliyun-beijing"].results
        assert results["ip-fragments"] == "Discarded"
        assert results["bad-checksum"] == "Pass"
        assert results["rst"] == "Pass"
        assert results["fin"] == "Sometimes dropped"

    def test_qcloud_row(self, reports):
        results = reports["qcloud-qingdao"].results
        assert results["ip-fragments"] == "Reassembled"
        assert results["rst"] == "Sometimes dropped"
        assert results["fin"] == "Pass"

    def test_unicom_sjz_row(self, reports):
        results = reports["unicom-shijiazhuang"].results
        assert results["ip-fragments"] == "Reassembled"
        assert results["fin"] == "Dropped"
        assert results["bad-checksum"] == "Pass"

    def test_unicom_tj_row(self, reports):
        results = reports["unicom-tianjin"].results
        assert results["bad-checksum"] == "Dropped"
        assert results["no-flag"] == "Dropped"
        assert results["fin"] == "Dropped"
        assert results["rst"] == "Pass"


class TestWorkloadTrials:
    def test_dns_trial_success_with_intang(self):
        result = run_dns_trial(
            vantage_by_name("aliyun-shanghai"), DYN_RESOLVERS[0],
            calibration=CLEAN_ROOM, seed=1,
        )
        assert result.success

    def test_dns_trial_poisoned_without_intang(self):
        result = run_dns_trial(
            vantage_by_name("aliyun-shanghai"), DYN_RESOLVERS[0],
            calibration=CLEAN_ROOM, seed=1, use_intang=False,
        )
        assert result.poisoned

    def test_opendns_uncensored_even_bare(self):
        """§7.2's accidental discovery."""
        result = run_dns_trial(
            vantage_by_name("aliyun-shanghai"), OPENDNS_RESOLVERS[0],
            calibration=CLEAN_ROOM, seed=1, use_intang=False,
        )
        assert result.success

    def test_tor_blocked_without_intang_on_filtered_path(self):
        bridge = outside_china_catalog()[0]
        result = run_tor_trial(
            vantage_by_name("aliyun-shanghai"), bridge, None,
            calibration=CLEAN_ROOM, seed=2,
        )
        assert result.first_circuit_ok
        assert result.probe_launched and result.ip_blocked
        assert not result.reconnect_ok

    def test_tor_survives_on_northern_paths(self):
        bridge = outside_china_catalog()[0]
        result = run_tor_trial(
            vantage_by_name("aliyun-beijing"), bridge, None,
            calibration=CLEAN_ROOM, seed=2,
        )
        assert result.first_circuit_ok and result.reconnect_ok
        assert not result.probe_launched

    def test_tor_with_intang_never_probed(self):
        bridge = outside_china_catalog()[0]
        result = run_tor_trial(
            vantage_by_name("aliyun-shanghai"), bridge,
            "improved-tcb-teardown", calibration=CLEAN_ROOM, seed=2,
        )
        assert result.first_circuit_ok and result.reconnect_ok
        assert not result.ip_blocked

    def test_vpn_reset_without_intang(self):
        site = outside_china_catalog()[1]
        result = run_vpn_trial(
            vantage_by_name("aliyun-shanghai"), site, None,
            calibration=CLEAN_ROOM, seed=2,
        )
        assert result.reset
        assert not result.frames_ok

    def test_vpn_alive_with_intang(self):
        site = outside_china_catalog()[1]
        result = run_vpn_trial(
            vantage_by_name("aliyun-shanghai"), site,
            "improved-tcb-teardown", calibration=CLEAN_ROOM, seed=2,
        )
        assert result.established and result.frames_ok and not result.reset


class TestStatisticalShape:
    """Small-sample sanity checks that the calibrated environment yields
    paper-shaped aggregates (the benches do the full-size runs)."""

    def test_no_strategy_mostly_failure2(self):
        triple = run_strategy_cell(
            "none", CHINA_VANTAGE_POINTS[:4], outside_china_catalog()[:6],
            DEFAULT_CALIBRATION, seed=2,
        )
        assert triple.failure2 / triple.trials > 0.85

    def test_combined_strategy_mostly_success(self):
        triple = run_strategy_cell(
            "tcb-teardown+tcb-reversal", CHINA_VANTAGE_POINTS[:4],
            outside_china_catalog()[:6], DEFAULT_CALIBRATION, seed=2,
        )
        assert triple.success / triple.trials > 0.8

    def test_fin_teardown_mostly_caught(self):
        triple = run_strategy_cell(
            "tcb-teardown-fin/ttl", CHINA_VANTAGE_POINTS[:4],
            outside_china_catalog()[:6], DEFAULT_CALIBRATION, seed=2,
        )
        assert triple.failure2 / triple.trials > 0.7
