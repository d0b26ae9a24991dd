"""ResultCache size-capped LRU eviction.

The ``.repro-cache/`` directory previously grew without bound as
scenario fingerprints churned. Pinned here:

* ``prune(max_bytes)`` evicts oldest-mtime entries first until the
  cache fits, deterministically (path tiebreak), and reports evictions
  through ``stats``;
* a ``max_bytes``-capped cache prunes automatically on every ``put``;
* ``get`` refreshes recency, so eviction is LRU (by use), not FIFO
  (by write);
* an entry without the envelope's ``kind`` is a miss, and the next
  ``put`` rewrites it.
"""

import os

import pytest

from repro.harness.cache import ResultCache
from repro.sim.metrics import MetricsReport


def report() -> MetricsReport:
    import dataclasses

    values = {}
    for f in dataclasses.fields(MetricsReport):
        values[f.name] = 0 if f.type == "int" else 0.5
    return MetricsReport(**values)


def key_for(i: int) -> str:
    return f"{i:02d}" + "ab" * 31          # 64 hex-ish chars, distinct fanout


def put_with_mtime(cache: ResultCache, i: int, mtime: float) -> str:
    key = key_for(i)
    cache.put(key, report())
    os.utime(cache._path(key), (mtime, mtime))
    return key


def entry_size(cache: ResultCache) -> int:
    cache.put(key_for(99), report())
    size = cache._path(key_for(99)).stat().st_size
    cache._path(key_for(99)).unlink()
    return size


class TestPrune:
    def test_evicts_oldest_until_fit(self, tmp_path):
        cache = ResultCache(tmp_path)
        size = entry_size(cache)
        for i in range(5):
            put_with_mtime(cache, i, 1000.0 + i)
        removed = cache.prune(max_bytes=2 * size)
        assert removed == 3
        assert cache.stats["evictions"] == 3
        assert cache.get(key_for(0)) is None        # oldest gone
        assert cache.get(key_for(4)) is not None    # newest kept

    def test_noop_when_under_cap(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_with_mtime(cache, 0, 1000.0)
        assert cache.prune(max_bytes=10**9) == 0
        assert cache.stats["evictions"] == 0

    def test_prune_needs_a_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path).prune()

    def test_instance_cap_is_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_with_mtime(cache, 0, 1000.0)
        put_with_mtime(cache, 1, 2000.0)
        cache.max_bytes = 1
        assert cache.prune() == 2            # uses instance cap
        assert len(cache) == 0

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)


class TestAutoPruneOnPut:
    def test_put_keeps_cache_under_cap(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        size = entry_size(probe)
        cache = ResultCache(tmp_path / "cache", max_bytes=3 * size)
        for i in range(8):
            put_with_mtime(cache, i, 1000.0 + i)
        assert cache.size_bytes() <= 3 * size
        assert len(cache) <= 3
        assert cache.stats["evictions"] >= 5
        # the most recent entries survive
        assert cache.get(key_for(7)) is not None

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(6):
            cache.put(key_for(i), report())
        assert len(cache) == 6
        assert cache.stats["evictions"] == 0


class TestLRUNotFIFO:
    def test_get_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        size = entry_size(cache)
        for i in range(3):
            put_with_mtime(cache, i, 1000.0 + i)
        # Touch the oldest-written entry: it becomes most recently used.
        assert cache.get(key_for(0)) is not None
        cache.prune(max_bytes=size)
        assert cache.get(key_for(0)) is not None    # survived: recently used
        assert cache.get(key_for(1)) is None        # evicted instead


class TestAtexitCounterFlush:
    """In-memory counter deltas survive processes that never flush."""

    def test_counters_flushed_at_interpreter_exit(self, tmp_path):
        import subprocess
        import sys

        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        # The child takes two misses and exits without calling
        # flush_counters() — the atexit hook must persist them.
        child = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.harness.cache import ResultCache\n"
            "c = ResultCache(%r)\n"
            "c.get('00deadbeef')\n"
            "c.get('00deadbeef')\n"
        ) % (src, str(tmp_path))
        subprocess.run([sys.executable, "-c", child], check=True)
        totals = ResultCache(tmp_path).counters()
        assert totals["misses"] == 2

    def test_exit_flush_skips_already_flushed_instances(self, tmp_path):
        from repro.harness.cache import _flush_counters_at_exit

        cache = ResultCache(tmp_path)
        cache.get("00deadbeef")
        cache.flush_counters()
        stats_path = tmp_path / "STATS.json"
        before = stats_path.read_bytes()
        mtime = os.stat(stats_path).st_mtime_ns
        _flush_counters_at_exit()   # no pending delta: must not rewrite
        assert stats_path.read_bytes() == before
        assert os.stat(stats_path).st_mtime_ns == mtime
        cache.get("00deadbeef")     # new delta: now it flushes
        _flush_counters_at_exit()
        assert ResultCache(tmp_path).counters()["misses"] == 2


class TestDeterministicOnDisk:
    """Regressions from the determinism-contract linter (DET002/ATOM001):
    enumeration-order independence and canonical artifact bytes."""

    def test_prune_tiebreak_is_path_order_on_equal_mtime(self, tmp_path):
        # All entries share one mtime: eviction must fall back to path
        # order, not directory enumeration order.
        cache = ResultCache(tmp_path)
        size = entry_size(cache)
        for i in range(5):
            put_with_mtime(cache, i, 1000.0)
        removed = cache.prune(max_bytes=2 * size)
        assert removed == 3
        for i in range(3):          # lexicographically smallest evicted
            assert cache.get(key_for(i)) is None, i
        for i in range(3, 5):
            assert cache.get(key_for(i)) is not None, i

    def test_prune_is_reproducible_across_instances(self, tmp_path):
        survivors = []
        for trial in ("a", "b"):
            root = tmp_path / trial
            cache = ResultCache(root)
            for i in range(6):
                put_with_mtime(cache, i, 1000.0)
            cache.prune(max_bytes=3 * entry_size(cache))
            survivors.append(sorted(
                p.name for p in root.glob("*/*.json")))
        assert survivors[0] == survivors[1]

    def test_stats_file_bytes_are_canonical(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        cache.get("00deadbeef")
        totals = cache.flush_counters()
        text = (tmp_path / "STATS.json").read_text()
        assert text == json.dumps(totals, sort_keys=True)

    def test_put_then_get_round_trip_is_atomic_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for(7)
        cache.put(key, report())
        # No temp-file litter next to the entry after an atomic install.
        leftovers = [p for p in cache._path(key).parent.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


class TestEnvelopeWithoutKind:
    def test_entry_without_kind_is_a_miss_and_rewritten_by_put(self, tmp_path):
        """An entry holding only ``report`` (no ``kind``) decodes as
        nothing: ``get`` counts a miss, and the next ``put`` replaces it
        with an envelope that hits."""
        import dataclasses
        import json

        cache = ResultCache(tmp_path)
        key = key_for(5)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"report": dataclasses.asdict(report())}))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, report())
        assert json.loads(path.read_text())["kind"] == "report"
        assert cache.get(key) == report()
        assert (cache.hits, cache.misses) == (1, 1)
