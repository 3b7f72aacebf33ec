"""Tier-1 pins for the fleet engine's determinism contract.

A fleet run is a pure function of its :class:`FleetSpec`: the same spec
and seed must produce byte-identical merged results and trial-semantic
telemetry whether the client groups run serially, across process
shards, or as direct shared-device batch invocations — and the
heavy-tailed site sampler must assign every flow its site independently
of evaluation order (the property sharding relies on).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fleet import (
    DEFAULT_FLEET_STRATEGIES,
    FleetResult,
    FleetSpec,
    flow_spec,
    run_fleet,
    run_fleet_group,
    site_index,
)
from repro.telemetry import get_registry

#: Small but load-bearing: capacity 24 is below each group's ~40
#: accumulated TCBs, so the shared tables evict, and three groups
#: exercise the group round robin.
SPEC = FleetSpec(
    flows=120, groups=3, window=16, max_flows=24, sites=12, seed=99
)


def _fleet_semantic(delta):
    """Strip execution-strategy counters from a telemetry delta.

    ``scenario.*`` describes what the execution engine did, not what
    the simulated flows did; everything else — fleet outcome counters,
    eviction attribution, GFW/DPI/TCP accounting — must match.
    """
    counters = {
        name: value
        for name, value in delta["counters"].items()
        if not name.startswith("scenario.")
    }
    return counters, delta["histograms"]


class TestFleetParity:
    """Serial, sharded, and direct group runs are byte-identical."""

    def test_serial_vs_sharded_results_identical(self):
        serial = run_fleet(SPEC, shards=1)
        sharded = run_fleet(SPEC, shards=2, workers=2)
        assert dataclasses.asdict(serial) == dataclasses.asdict(sharded)

    def test_serial_vs_direct_group_runs_identical(self):
        # The shared-device batch path invoked directly, group by group,
        # is the same computation run_fleet orchestrates.
        serial = run_fleet(SPEC, shards=1)
        direct = FleetResult.merge(
            SPEC, [run_fleet_group(SPEC, g) for g in range(SPEC.groups)]
        )
        assert dataclasses.asdict(serial) == dataclasses.asdict(direct)

    def test_merge_is_order_independent(self):
        groups = [run_fleet_group(SPEC, g) for g in range(SPEC.groups)]
        forward = FleetResult.merge(SPEC, groups)
        reversed_ = FleetResult.merge(SPEC, list(reversed(groups)))
        assert dataclasses.asdict(forward) == dataclasses.asdict(reversed_)

    def test_trial_semantic_telemetry_identical(self):
        registry = get_registry()

        before = registry.snapshot()
        run_fleet(SPEC, shards=1)
        serial_delta = registry.diff(before)

        before = registry.snapshot()
        run_fleet(SPEC, shards=2, workers=2)
        sharded_delta = registry.diff(before)

        before = registry.snapshot()
        for group in range(SPEC.groups):
            run_fleet_group(SPEC, group)
        direct_delta = registry.diff(before)

        assert _fleet_semantic(serial_delta) == _fleet_semantic(sharded_delta)
        assert _fleet_semantic(serial_delta) == _fleet_semantic(direct_delta)

    def test_same_spec_twice_identical(self):
        # Nothing from the first run (module state, shared tables) may
        # leak into the second.
        first = run_fleet(SPEC, shards=1)
        second = run_fleet(SPEC, shards=1)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_shared_state_is_actually_exercised(self):
        # Guard against the fleet silently degenerating into isolated
        # trials: with capacity 24 under each group's ~40 accumulated
        # TCBs, the shared table must churn and the shared blacklist
        # must catch benign collateral.
        result = run_fleet(SPEC, shards=1)
        assert result.flows == SPEC.flows
        assert result.flow_events > 0
        assert result.flows_evicted > 0
        assert result.flows_evicted == (
            result.flows_evicted_active + result.flows_evicted_after_fin
        )
        assert result.blacklist_false_positives > 0
        assert result.peak_flows_tracked <= SPEC.max_flows


class TestFlowGenerator:
    """The workload layer is a pure function of (spec, index)."""

    def test_flow_spec_is_deterministic_and_complete(self):
        flows = [flow_spec(SPEC, i) for i in range(SPEC.flows)]
        again = [flow_spec(SPEC, i) for i in range(SPEC.flows)]
        assert flows == again
        labels = {f.label for f in flows}
        assert "benign" in labels
        assert any(label in DEFAULT_FLEET_STRATEGIES for label in labels)
        # Benign flows never carry a strategy.
        assert all(f.strategy_id is None for f in flows if not f.sensitive)

    def test_group_partition_covers_every_flow_once(self):
        seen = []
        for group in range(SPEC.groups):
            seen.extend(SPEC.group_indices(group))
        assert sorted(seen) == list(range(SPEC.flows))

    def test_popularity_is_heavy_tailed(self):
        spec = FleetSpec(flows=4000, sites=16, seed=7)
        counts = [0] * spec.sites
        for index in range(spec.flows):
            counts[site_index(spec, index)] += 1
        # Rank 0 dominates and the head outweighs the tail.
        assert counts[0] == max(counts)
        assert sum(counts[:4]) > sum(counts[4:])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        groups=st.integers(min_value=1, max_value=7),
        order=st.randoms(use_true_random=False),
    )
    def test_site_sampler_permutation_stable(self, seed, groups, order):
        """Sharding-safety property: every flow's site assignment is
        independent of which partition computes it and in what order
        (no hidden shared RNG stream)."""
        spec = FleetSpec(flows=60, sites=9, seed=seed, groups=groups)
        baseline = {i: site_index(spec, i) for i in range(spec.flows)}
        indices = list(range(spec.flows))
        order.shuffle(indices)
        assert {i: site_index(spec, i) for i in indices} == baseline
        # Partitioning by group and evaluating group-by-group sees the
        # same assignment too.
        partitioned = {}
        for group in range(spec.groups):
            for index in spec.group_indices(group):
                partitioned[index] = site_index(spec, index)
        assert partitioned == baseline
        assert all(0 <= site < spec.sites for site in baseline.values())
