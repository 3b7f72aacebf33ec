"""The parallel trial engine and the hot-path optimizations.

Covers the determinism contract (any worker count produces byte-identical
rates — the property the whole engine is built around), the vectorized
checksum against a reference implementation of the original word loop,
the stable trial-seed formula, the KeyValueStore lazy TTL sweep, and the
``__slots__`` layout of the packet dataclasses.
"""

import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import KeyValueStore
from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    configured_workers,
    map_trials,
    outside_china_catalog,
    run_per_vantage_clusters,
    run_strategy_cell,
    run_strategy_clusters,
    strategy_salt,
    trial_seed,
)
from repro.experiments.runner import run_table6_rows
from repro.netstack.checksum import (
    fold_carries,
    internet_checksum,
    ones_complement_sum,
)
from repro.netstack.packet import IPPacket, TCPSegment, UDPDatagram


# ---------------------------------------------------------------------------
# Worker-count independence: the engine's core contract
# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    VANTAGES = CHINA_VANTAGE_POINTS[:2]
    SITES = outside_china_catalog(count=3)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_strategy_cell_identical_across_worker_counts(self, seed):
        serial = run_strategy_cell(
            "improved-tcb-teardown", self.VANTAGES, self.SITES,
            DEFAULT_CALIBRATION, seed=seed, workers=1,
        )
        for workers in (2, 4):
            fanned = run_strategy_cell(
                "improved-tcb-teardown", self.VANTAGES, self.SITES,
                DEFAULT_CALIBRATION, seed=seed, workers=workers,
            )
            assert fanned == serial

    def test_per_vantage_identical_across_worker_counts(self):
        # A fixed-strategy Table 4 row: a keyword cell's per-(vantage,
        # site) clusters.
        serial = run_strategy_clusters(
            "tcb-reversal", self.VANTAGES, self.SITES,
            DEFAULT_CALIBRATION, seed=1, keyword=True, workers=1,
        )
        fanned = run_strategy_clusters(
            "tcb-reversal", self.VANTAGES, self.SITES,
            DEFAULT_CALIBRATION, seed=1, keyword=True, workers=2,
        )
        assert fanned == serial

    def test_adaptive_per_vantage_identical_across_worker_counts(self):
        # The adaptive selector is stateful *within* a vantage; the
        # engine must still be deterministic because each vantage's
        # serial trial sequence is one work unit.
        serial = run_per_vantage_clusters(
            self.VANTAGES, self.SITES, seed=3, workers=1,
        )
        fanned = run_per_vantage_clusters(
            self.VANTAGES, self.SITES, seed=3, workers=2,
        )
        assert fanned == serial

    def test_dns_cell_identical_across_worker_counts(self, monkeypatch):
        # Every Table 6 cell: one (resolver, vantage) success count.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = run_table6_rows(6)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert run_table6_rows(6) == serial

    def test_map_trials_preserves_task_order(self):
        tasks = [(t,) for t in range(20)]
        expected = [t * t for t in range(20)]
        assert map_trials(_square, tasks, workers=1) == expected
        assert map_trials(_square, tasks, workers=2) == expected

    def test_configured_workers_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert configured_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert configured_workers() == 4
        assert configured_workers(workers=2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert configured_workers() == os.cpu_count()


def _square(task):
    return task * task


# ---------------------------------------------------------------------------
# Trial seeds: stable across interpreter runs
# ---------------------------------------------------------------------------
class TestTrialSeeds:
    def test_strategy_salt_is_pinned(self):
        # crc32-derived, unlike hash(): the same value in every run.
        assert strategy_salt("improved-tcb-teardown") == 50852
        assert strategy_salt("tcb-reversal") == 6049

    def test_trial_seed_is_pinned(self):
        assert trial_seed(2, 1, 2, 0, "improved-tcb-teardown") == 1993411
        assert trial_seed(0, 0, 0, 0, "tcb-reversal") == 6049

    def test_trial_seed_separates_axes(self):
        base = trial_seed(7, 0, 0, 0, "tcb-reversal")
        assert trial_seed(7, 1, 0, 0, "tcb-reversal") != base
        assert trial_seed(7, 0, 1, 0, "tcb-reversal") != base
        assert trial_seed(7, 0, 0, 1, "tcb-reversal") != base
        assert trial_seed(7, 0, 0, 0, "improved-tcb-teardown") != base


# ---------------------------------------------------------------------------
# Checksum: the vectorized path against the original word loop
# ---------------------------------------------------------------------------
def _reference_checksum(data: bytes) -> int:
    """The original per-word ``struct.iter_unpack`` implementation."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksumRegression:
    @given(st.binary(max_size=4096))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_implementation(self, data):
        assert internet_checksum(data) == _reference_checksum(data)

    def test_odd_length(self):
        assert internet_checksum(b"\xab") == _reference_checksum(b"\xab")
        assert internet_checksum(b"\x01\x02\x03") == _reference_checksum(
            b"\x01\x02\x03"
        )

    def test_carry_fold_saturation(self):
        # All-ones input folds to 0xFFFF; its complement is zero.  This
        # is the edge where "sum mod 0xFFFF" alone would be wrong.
        assert internet_checksum(b"\xff\xff") == 0
        assert internet_checksum(b"\xff" * 1460) == 0
        assert ones_complement_sum(b"\xff\xff") == 0xFFFF

    def test_known_vector(self):
        assert internet_checksum(b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7") == 8717

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=100, deadline=None)
    def test_sum_is_substitutable_under_addition(self, data, extra_word):
        # Serializers add header words to the body sum before folding;
        # the reduced sum must behave exactly like the raw word sum.
        raw = 0
        padded = data + b"\x00" if len(data) % 2 else data
        for (word,) in struct.iter_unpack("!H", padded):
            raw += word
        assert fold_carries(ones_complement_sum(data) + extra_word) == (
            fold_carries(raw + extra_word)
        )


# ---------------------------------------------------------------------------
# KeyValueStore: lazy TTL sweep
# ---------------------------------------------------------------------------
class TestLazySweep:
    def make_store(self):
        state = {"now": 0.0}
        store = KeyValueStore(lambda: state["now"])
        return store, state

    def test_expired_key_vanishes_on_read(self):
        store, state = self.make_store()
        store.set("k", "v", ttl=10.0)
        assert store.get("k") == "v"
        state["now"] = 10.0
        assert store.get("k") is None
        assert not store.exists("k")

    def test_any_read_past_the_watermark_sweeps(self):
        store, state = self.make_store()
        store.set("a", 1, ttl=5.0)
        store.set("b", 2, ttl=15.0)
        state["now"] = 6.0
        store.get("unrelated")  # any read past the watermark sweeps
        assert "a" not in store._data
        assert store.get("b") == 2
        assert len(store) == 1

    def test_no_sweep_before_first_deadline(self):
        store, state = self.make_store()
        store.set("a", 1, ttl=5.0)
        state["now"] = 4.999
        store.get("a")
        assert "a" in store._expiry  # untouched until the watermark

    def test_expire_lowers_the_watermark(self):
        store, state = self.make_store()
        store.set("a", 1, ttl=100.0)
        store.set("a", 1, ttl=1.0)  # a re-set with a shorter TTL
        state["now"] = 2.0
        assert store.get("a") is None
        assert not store.exists("a")

    def test_persistent_keys_never_swept(self):
        store, state = self.make_store()
        store.set("p", "forever")
        state["now"] = 1e9
        assert store.get("p") == "forever"


# ---------------------------------------------------------------------------
# __slots__ on the hot packet dataclasses
# ---------------------------------------------------------------------------
class TestPacketSlots:
    def test_packet_classes_have_no_dict(self):
        segment = TCPSegment(src_port=1, dst_port=2)
        datagram = UDPDatagram(src_port=1, dst_port=2)
        packet = IPPacket(src="10.0.0.1", dst="10.0.0.2", payload=segment)
        for instance in (segment, datagram, packet):
            assert not hasattr(instance, "__dict__")
            with pytest.raises(AttributeError):
                instance.arbitrary_new_attribute = 1

    def test_copy_still_works_with_slots(self):
        segment = TCPSegment(src_port=1, dst_port=2, payload=b"x")
        clone = segment.copy(seq=9)
        assert clone.seq == 9 and clone.payload == b"x"
        packet = IPPacket(src="10.0.0.1", dst="10.0.0.2", payload=segment)
        assert packet.copy(ttl=3).ttl == 3
