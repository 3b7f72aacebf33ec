"""INTANG's historical-result store front (§6, Fig. 2): the LRU cache
that fronts the key-value store, so a known server's history is read
without a store round trip."""

from repro.core.cache import FrontedStore, KeyValueStore


class TestFrontedStore:
    def _clocked(self):
        now = [0.0]
        store = KeyValueStore(time_source=lambda: now[0])
        return now, FrontedStore(store, front_capacity=4)

    def test_write_through_and_front_hit(self):
        _, fronted = self._clocked()
        fronted.set("k", {"v": 1})
        assert fronted.get("k") == {"v": 1}
        assert fronted.front.hits == 1  # second read came from the front
        assert fronted.get("missing", "d") == "d"

    def test_ttl_expiry_invalidates_front(self):
        now, fronted = self._clocked()
        fronted.set("k", "v", ttl=10.0)
        assert fronted.get("k") == "v"
        now[0] = 11.0
        assert fronted.get("k") is None
        assert "k" not in fronted.front

    def test_delete_invalidates_front(self):
        _, fronted = self._clocked()
        fronted.set("k", "v")
        fronted.get("k")
        assert fronted.delete("k")
        assert fronted.get("k") is None

    def test_load_clears_front(self):
        _, fronted = self._clocked()
        fronted.set("k", "stale")
        fronted.get("k")
        _, other = self._clocked()
        other.set("k", "fresh")
        fronted.load(other.dump())
        assert fronted.get("k") == "fresh"

    def test_mirrors_store_surface(self):
        _, fronted = self._clocked()
        fronted.set("a", 1)
        fronted.set("b", 2, ttl=5.0)
        assert fronted.exists("a") and fronted.ttl("b") == 5.0
        assert sorted(fronted.keys()) == ["a", "b"]
        assert len(fronted) == 2
        assert dict(fronted.items()) == {"a": 1, "b": 2}
        assert fronted.expire("a", 1.0)
