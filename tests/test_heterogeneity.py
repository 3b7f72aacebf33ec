"""Spatiotemporal heterogeneity: route assignment, temporal suppression,
TTL drift, and the inconsistency sweep's worker-independence.

The route ensemble is a *pure function* of (seed, vantage, target) — no
recorded RNG draws — so the properties here mirror the fleet sampler
pins: permutation-stability, seed-determinism, and byte-identical
reports for any serial/worker split.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.matrix import ConformanceCell, FAULT_GRID, run_cell
from repro.experiments.calibration import CLEAN_ROOM
from repro.gfw import heterogeneity
from repro.gfw.blacklist import Blacklist
from repro.gfw.heterogeneity import (
    HETEROGENEOUS_VARIANT,
    ROUTE_ENSEMBLE,
    RouteEnsemble,
    TemporalProfile,
    is_heterogeneous,
    resolve_route,
    validate_variant,
)
from repro.telemetry.metrics import get_registry

CLEAN = FAULT_GRID[0]


# ---------------------------------------------------------------------------
# route assignment: pure, permutation-stable, seed-deterministic
# ---------------------------------------------------------------------------
class TestRouteAssignment:
    ROUTES = [
        (f"vp-{i}", f"site-{j}.example") for i in range(6) for j in range(4)
    ]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        order=st.randoms(use_true_random=False),
    )
    def test_assignment_permutation_stable_and_seed_deterministic(
        self, seed, order
    ):
        ensemble = RouteEnsemble(seed=seed)
        baseline = {
            route: ensemble.resolve(*route) for route in self.ROUTES
        }
        shuffled = list(self.ROUTES)
        order.shuffle(shuffled)
        # Resolution order cannot change any route's assignment…
        for route in shuffled:
            assert ensemble.resolve(*route) == baseline[route]
        # …and a freshly constructed equal-seed ensemble reproduces the
        # whole map (no hidden per-instance state).
        again = RouteEnsemble(seed=seed)
        assert {
            route: again.resolve(*route) for route in self.ROUTES
        } == baseline
        # Every assignment is a registered member with a profile.
        for member, profile in baseline.values():
            assert member in ensemble.members
            assert profile is not None

    def test_default_ensemble_spreads_members(self):
        members = {
            ROUTE_ENSEMBLE.member_for(f"route-vp-{i:02d}", "target.example")
            for i in range(16)
        }
        assert len(members) > 1  # heterogeneity, not a constant map

    def test_ensemble_validation(self):
        with pytest.raises(KeyError):
            RouteEnsemble(members=("no-such-variant",))
        with pytest.raises(ValueError):
            RouteEnsemble(members=())
        with pytest.raises(ValueError):
            RouteEnsemble(members=(HETEROGENEOUS_VARIANT,))
        validate_variant("heterogeneous")
        validate_variant("evolved")
        with pytest.raises(KeyError):
            validate_variant("no-such-variant")

    def test_resolve_route_identity_for_concrete_variants(self):
        assert resolve_route(None, "a", "b") == (None, None)
        assert resolve_route("evolved", "a", "b") == ("evolved", None)
        assert is_heterogeneous("heterogeneous")
        assert not is_heterogeneous("mixed")

    def test_resolve_route_counts_heterogeneous_assignments(self):
        registry = get_registry()
        before = registry.counter_value("hetero.routes_assigned")
        resolve_route("evolved", "a", "b")  # identity: no count
        assert registry.counter_value("hetero.routes_assigned") == before
        member, profile = resolve_route(HETEROGENEOUS_VARIANT, "a", "b")
        assert registry.counter_value("hetero.routes_assigned") == before + 1
        assert member in ROUTE_ENSEMBLE.members
        assert profile is not None


# ---------------------------------------------------------------------------
# temporal profile: suppression pinned at fixed sim hours
# ---------------------------------------------------------------------------
class TestTemporalProfile:
    def test_reset_suppression_at_fixed_hours(self):
        profile = TemporalProfile(
            peak_hour=12.0, base_suppression=0.1, amplitude=0.3
        )
        assert profile.reset_suppression(12.0) == pytest.approx(0.4)
        assert profile.reset_suppression(0.0) == pytest.approx(0.1)
        assert profile.reset_suppression(24.0) == pytest.approx(0.1)
        assert profile.reset_suppression(6.0) == pytest.approx(0.25)
        assert profile.reset_suppression(18.0) == pytest.approx(0.25)

    def test_generated_profiles_stay_in_load_band(self):
        ensemble = RouteEnsemble(seed=99)
        for i in range(32):
            profile = ensemble.profile_for(f"vp{i}", "t.example")
            peak = profile.reset_suppression(profile.peak_hour)
            trough = profile.reset_suppression(profile.peak_hour + 12.0)
            assert 0.0 < trough < peak <= 0.45 + 1e-9  # load, not outage
            low, high = ensemble.ttl_drift
            assert low <= profile.ttl_factor <= high

    def test_device_suppression_pinned_at_full_load(self, monkeypatch):
        """suppression=1.0: detection stands, enforcement never fires."""
        from repro.experiments.runner import Outcome, observe_http_trial
        from repro.analysis.inconsistency import lab_vantages
        from repro.conformance.matrix import conformance_site

        vantage = lab_vantages(1)[0]
        website = conformance_site()
        always = RouteEnsemble(
            members=("evolved",),
            profile=TemporalProfile(base_suppression=1.0, amplitude=0.0),
        )
        monkeypatch.setattr(heterogeneity, "ROUTE_ENSEMBLE", always)
        with observe_http_trial(
            vantage, website, "none", CLEAN_ROOM, seed=3,
            keyword=True, gfw_variant=HETEROGENEOUS_VARIANT,
        ) as (record, scenario):
            device = scenario.gfw_devices[0]
            assert record.outcome is Outcome.SUCCESS
            assert device.resets_suppressed >= 1
            assert device.resets_injected == 0
            assert len(device.detections) >= 1  # the DPI match stands
            assert device.blacklist.total_blacklistings == 0

    def test_device_enforces_at_zero_load(self, monkeypatch):
        """suppression=0.0 under the same ensemble shape: blocked."""
        from repro.experiments.runner import Outcome, observe_http_trial
        from repro.analysis.inconsistency import lab_vantages
        from repro.conformance.matrix import conformance_site

        vantage = lab_vantages(1)[0]
        website = conformance_site()
        never = RouteEnsemble(
            members=("evolved",),
            profile=TemporalProfile(base_suppression=0.0, amplitude=0.0),
        )
        monkeypatch.setattr(heterogeneity, "ROUTE_ENSEMBLE", never)
        with observe_http_trial(
            vantage, website, "none", CLEAN_ROOM, seed=3,
            keyword=True, gfw_variant=HETEROGENEOUS_VARIANT,
        ) as (record, scenario):
            device = scenario.gfw_devices[0]
            assert record.outcome is Outcome.FAILURE2
            assert device.resets_suppressed == 0
            assert device.resets_injected > 0


# ---------------------------------------------------------------------------
# blacklist TTL drift: expiry and re-add
# ---------------------------------------------------------------------------
class TestBlacklistTTLDrift:
    def test_drifted_ttl_expiry_and_readd(self):
        blacklist = Blacklist(duration=4.5)  # 0.05 x the 90 s window
        blacklist.add("1.2.3.4", "5.6.7.8", now=100.0)
        assert blacklist.contains("1.2.3.4", "5.6.7.8", 104.4)
        assert blacklist.total_expirations == 0
        assert not blacklist.contains("1.2.3.4", "5.6.7.8", 104.6)
        assert blacklist.total_expirations == 1
        assert len(blacklist) == 0
        # Re-add after expiry is a fresh full window.
        blacklist.add("1.2.3.4", "5.6.7.8", now=105.0)
        assert blacklist.total_blacklistings == 2
        assert blacklist.contains("1.2.3.4", "5.6.7.8", 109.4)
        assert blacklist.sweep(200.0) == 1
        assert blacklist.total_expirations == 2

    def test_ttl_expired_counter_on_registry(self):
        registry = get_registry()
        before = registry.counter_value("blacklist.ttl_expired")
        blacklist = Blacklist(duration=1.0)
        blacklist.add("a", "b", now=0.0)
        blacklist.contains("a", "b", 2.0)
        assert registry.counter_value("blacklist.ttl_expired") == before + 1

    def test_route_ttl_factor_scales_scenario_blacklist(self):
        from repro.experiments.runner import observe_http_trial
        from repro.analysis.inconsistency import lab_vantages
        from repro.conformance.matrix import conformance_site

        vantage = lab_vantages(1)[0]
        website = conformance_site()
        profile = ROUTE_ENSEMBLE.profile_for(vantage.name, website.name)
        with observe_http_trial(
            vantage, website, "none", CLEAN_ROOM, seed=11,
            keyword=True, gfw_variant=HETEROGENEOUS_VARIANT,
        ) as (_record, scenario):
            for device in scenario.gfw_devices:
                assert device.blacklist.duration == pytest.approx(
                    90.0 * profile.ttl_factor
                )


# ---------------------------------------------------------------------------
# conformance reduction + sweep worker-independence
# ---------------------------------------------------------------------------
class TestHeterogeneousConformance:
    def test_single_variant_ensemble_reduces_to_mixed(self, monkeypatch):
        """A one-member, temporal-off ensemble must reproduce the plain
        ``mixed`` variant's counts byte-for-byte — heterogeneity with
        the heterogeneity removed is the identity."""
        degenerate = RouteEnsemble(members=("mixed",), temporal=False)
        monkeypatch.setattr(heterogeneity, "ROUTE_ENSEMBLE", degenerate)
        for strategy in ("none", "improved-tcb-teardown", "resync-desync"):
            hetero = run_cell(
                ConformanceCell(
                    strategy, HETEROGENEOUS_VARIANT, "neutral", CLEAN
                ),
                repeats=4,
                seed=77,
            )
            plain = run_cell(
                ConformanceCell(strategy, "mixed", "neutral", CLEAN),
                repeats=4,
                seed=77,
            )
            assert (hetero.success, hetero.failure1, hetero.failure2) == (
                plain.success,
                plain.failure1,
                plain.failure2,
            )

    def test_inconsistency_report_serial_equals_sharded(self):
        """Same pattern as the fleet parity pins: the canonical JSON is
        byte-identical serial vs 2 workers vs 3 workers (two different
        chunk layouts)."""
        from repro.analysis.inconsistency import run_inconsistency

        kwargs = dict(
            vantages=3,
            hours=(0.0, 12.0),
            strategies=("none", "tcb-reversal"),
            repeats=2,
            seed=41,
        )
        serial = run_inconsistency(**kwargs).to_json()
        workers = run_inconsistency(**kwargs, workers=2).to_json()
        three = run_inconsistency(**kwargs, workers=3).to_json()
        assert serial == workers == three

    def test_report_cells_carry_wilson_bounds(self):
        from repro.analysis.inconsistency import run_inconsistency

        report = run_inconsistency(
            vantages=2,
            hours=(12.0,),
            strategies=("none",),
            repeats=2,
            seed=5,
        )
        payload = report.as_payload()
        for cell in payload["cells"]:
            assert 0.0 <= cell["wilson_low"] <= cell["wilson_high"] <= 1.0
        assert payload["grid"]["gfw_variant"] == HETEROGENEOUS_VARIANT
        assert set(payload["routes"]) == set(report.vantage_names)
        assert not math.isnan(payload["diurnal_curve"][0]["suppression_rate"])
