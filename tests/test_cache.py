"""Cache layer tests: the Redis-substitute store and the LRU."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import KeyValueStore, LRUCache


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def time():
    return FakeTime()


@pytest.fixture
def store(time):
    return KeyValueStore(time_source=time)


class TestKeyValueStore:
    def test_set_get(self, store):
        store.set("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_get_default(self, store):
        assert store.get("missing", 42) == 42

    def test_ttl_expiry(self, store, time):
        store.set("k", 1, ttl=10.0)
        time.advance(9.9)
        assert store.exists("k")
        time.advance(0.2)
        assert not store.exists("k")
        assert store.get("k") is None

    def test_set_without_ttl_clears_old_ttl(self, store, time):
        store.set("k", 1, ttl=5.0)
        store.set("k", 2)
        time.advance(100.0)
        assert store.get("k") == 2

    def test_len_sweeps_expired(self, store, time):
        store.set("a", 1, ttl=1.0)
        store.set("b", 2)
        time.advance(5.0)
        assert len(store) == 1
        assert store.exists("b") and not store.exists("a")

    def test_dump_load_roundtrip(self, store, time):
        store.set("a", {"x": [1, 2]})
        store.set("b", "text", ttl=100.0)
        blob = store.dump()
        other = KeyValueStore(time_source=time)
        other.load(blob)
        assert other.get("a") == {"x": [1, 2]}
        assert other.get("b") == "text"

    def test_dump_skips_unserializable(self, store):
        store.set("bad", object())
        blob = store.dump()
        fresh = KeyValueStore(time_source=lambda: 0.0)
        fresh.load(blob)
        assert fresh.get("bad") is None


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = LRUCache(capacity=2)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts b (a was refreshed)
        assert "a" in cache
        assert "b" not in cache

    def test_update_existing_refreshes(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_capacity_one(self):
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" not in cache
        assert cache.get("b") == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdefgh"), st.integers()),
            min_size=1, max_size=100,
        )
    )
    def test_property_never_exceeds_capacity(self, operations):
        cache = LRUCache(capacity=3)
        for key, value in operations:
            cache.put(key, value)
        assert len(cache) <= 3

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers()),
            min_size=1, max_size=60,
        )
    )
    def test_property_matches_reference_model(self, operations):
        """The LRU agrees with a plain ordered-dict model, values included."""
        from collections import OrderedDict

        cache = LRUCache(capacity=3)
        model = OrderedDict()
        for key, value in operations:
            cache.put(key, value)
            if key in model:
                model.move_to_end(key)
            model[key] = value
            if len(model) > 3:
                model.popitem(last=False)
        assert len(cache) == len(model)
        for key, value in model.items():
            assert cache.get(key) == value
