"""Distribution-valued verdicts: Wilson bounds, merge algebra, and the
point-estimate view staying consistent with ``classify_counts``.

The statistical tier exists because a heterogeneous censor makes single
trials unrepresentative: a conformance cell is now an outcome *count*
vector with an evasion-rate interval, and shards must be mergeable
without changing anything.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.outcomes import (
    DEFAULT_Z,
    Outcome,
    VerdictDistribution,
    classify_counts,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# wilson_interval edges
# ---------------------------------------------------------------------------
class TestWilsonInterval:
    def test_n_zero_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(0, -3) == (0.0, 1.0)

    def test_n_one_edges(self):
        low0, high0 = wilson_interval(0, 1)
        low1, high1 = wilson_interval(1, 1)
        # One Bernoulli observation pins almost nothing: both intervals
        # stay wide, and they mirror each other around 1/2.
        assert low0 == pytest.approx(0.0) and high1 == pytest.approx(1.0)
        assert high0 > 0.5 and low1 < 0.5
        assert low1 == pytest.approx(1.0 - high0)

    def test_degenerate_counts_have_nonzero_width(self):
        # All-evade and all-block never collapse to a point — the whole
        # reason to carry bounds instead of a rate.
        low, high = wilson_interval(6, 6)
        assert high == pytest.approx(1.0) and 0.0 < low < 1.0
        low, high = wilson_interval(0, 6)
        assert low == pytest.approx(0.0) and 0.0 < high < 1.0

    def test_interval_contains_point_estimate_and_tightens(self):
        for successes, trials in ((3, 7), (5, 11), (40, 100)):
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high
        narrow = wilson_interval(50, 100)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_z_controls_width(self):
        tight = wilson_interval(4, 8, z=1.0)
        loose = wilson_interval(4, 8, z=2.58)
        assert tight[0] > loose[0] and tight[1] < loose[1]
        assert DEFAULT_Z == pytest.approx(1.96)

    @settings(max_examples=100, deadline=None)
    @given(
        successes=st.integers(min_value=0, max_value=200),
        extra=st.integers(min_value=0, max_value=200),
    )
    def test_bounds_always_ordered_and_clamped(self, successes, extra):
        low, high = wilson_interval(successes, successes + extra)
        assert 0.0 <= low <= high <= 1.0
        assert not math.isnan(low) and not math.isnan(high)


# ---------------------------------------------------------------------------
# VerdictDistribution
# ---------------------------------------------------------------------------
COUNTS = st.tuples(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)


OUTCOMES = st.lists(st.sampled_from(list(Outcome)), max_size=40)


def dist(counts):
    return VerdictDistribution(*counts)


class TestVerdictDistribution:
    def test_counts_and_trials(self):
        d = VerdictDistribution(success=3, failure1=1, failure2=2)
        assert d.trials == 6
        assert d.verdict == classify_counts(3, 1, 2) == "evades"

    @settings(max_examples=100, deadline=None)
    @given(counts=COUNTS)
    def test_verdict_matches_classify_counts(self, counts):
        assert dist(counts).verdict == classify_counts(*counts)

    @settings(max_examples=100, deadline=None)
    @given(a=COUNTS, b=COUNTS, c=COUNTS)
    def test_merge_associative_and_commutative(self, a, b, c):
        left = (dist(a) + dist(b)) + dist(c)
        right = dist(a) + (dist(b) + dist(c))
        assert left == right
        assert dist(a) + dist(b) == dist(b) + dist(a)
        assert left.trials == sum(a) + sum(b) + sum(c)

    def test_merge_of_shards_equals_pooled(self):
        # Two shards of one cell must reduce exactly like the serial run.
        shard1 = VerdictDistribution(success=2, failure2=1)
        shard2 = VerdictDistribution(success=1, failure1=1, failure2=1)
        pooled = VerdictDistribution(success=3, failure1=1, failure2=2)
        assert shard1 + shard2 == pooled
        assert (shard1 + shard2).wilson() == pooled.wilson()

    def test_empty_distribution(self):
        empty = VerdictDistribution()
        assert empty.trials == 0
        assert empty.verdict == "mixed"  # classify_counts(0,0,0)
        assert empty.wilson() == (0.0, 1.0)
        assert empty + empty == empty

    def test_wilson_uses_success_rate(self):
        d = VerdictDistribution(success=4, failure1=1, failure2=1)
        assert d.wilson() == wilson_interval(4, 6)
        assert d.wilson(z=1.0) == wilson_interval(4, 6, z=1.0)

    def test_payload_shape(self):
        payload = VerdictDistribution(success=5, failure2=1).as_payload()
        # The golden verdict rows' key order (tests/golden/verdicts.json).
        assert list(payload) == [
            "verdict", "success", "failure1", "failure2",
            "wilson_low", "wilson_high",
        ]
        assert payload["verdict"] == "evades"
        assert payload["success"] == 5
        assert payload["failure2"] == 1
        assert 0.0 <= payload["wilson_low"] <= payload["wilson_high"] <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(a=OUTCOMES, b=OUTCOMES)
    def test_from_outcomes_is_a_homomorphism(self, a, b):
        # Tallying a concatenation equals adding the two tallies, so any
        # chunking of a cell's trials merges to the serial tally.
        assert VerdictDistribution.from_outcomes(a + b) == (
            VerdictDistribution.from_outcomes(a)
            + VerdictDistribution.from_outcomes(b)
        )

    @settings(max_examples=100, deadline=None)
    @given(counts=COUNTS)
    def test_iteration_yields_the_counts(self, counts):
        d = dist(counts)
        assert tuple(d) == counts == (d.success, d.failure1, d.failure2)
        assert sum(d) == d.trials


# ---------------------------------------------------------------------------
# integration with the experiment reducers
# ---------------------------------------------------------------------------
class TestDistributionIntegration:
    def test_rate_triple_distribution_round_trip(self):
        # A Table-1 cell's tally: counts, rates and the Wilson band.
        from repro.experiments.tables import format_rate_line

        outcomes = [Outcome.SUCCESS] * 3 + [Outcome.FAILURE2] * 2
        d = VerdictDistribution.from_outcomes(outcomes)
        assert tuple(d) == (3, 0, 2)
        assert d.as_percentages() == (3 / 5 * 100, 0.0, 2 / 5 * 100)
        assert d.wilson() == wilson_interval(3, 5)
        low, high = wilson_interval(3, 5)
        assert format_rate_line("cell", d).endswith(
            f"(n=5)  ci95=[{low * 100:.1f}%,{high * 100:.1f}%]"
        )

    def test_conformance_cell_result_distribution(self):
        from repro.conformance.matrix import (
            ConformanceCell,
            CellResult,
            fault_by_name,
        )

        result = CellResult(
            cell=ConformanceCell(
                "none", "old", "neutral", fault_by_name("clean")
            ),
            success=1,
            failure2=5,
        )
        assert tuple(result) == (1, 0, 5)
        assert result + VerdictDistribution() == VerdictDistribution(
            success=1, failure2=5
        )
        assert result.verdict == "blocked"
        assert result.wilson() == wilson_interval(1, 6)
        payload = result.as_payload()
        assert payload["wilson_low"] == pytest.approx(
            round(wilson_interval(1, 6)[0], 6)
        )
        assert payload["wilson_high"] == pytest.approx(
            round(wilson_interval(1, 6)[1], 6)
        )
