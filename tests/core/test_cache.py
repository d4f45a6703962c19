"""Data object cache: write-back, read-ahead window policy, eviction."""

import pytest

from repro.core import PRT, DataObjectCache, ReadAheadState
from repro.objectstore import InMemoryObjectStore
from repro.sim import Simulator


ESZ = 128  # tiny entries for tests


@pytest.fixture
def env():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=8 * ESZ, max_readahead=4 * ESZ)
    return sim, store, prt, cache


def run(sim, gen):
    return sim.run_process(gen)


class TestWriteBack:
    def test_write_is_cached_not_stored(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"dirty data", old_size=0))
        assert prt.key_data(1, 0) not in store
        assert cache.has_dirty(1)

    def test_flush_persists(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"dirty data", old_size=0))
        run(sim, cache.flush(1))
        assert store.sync_get(prt.key_data(1, 0)) == b"dirty data"
        assert not cache.has_dirty(1)

    def test_read_after_write_hits_cache(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"abcdef", old_size=0))
        assert run(sim, cache.read(1, 2, 3)) == b"cde"
        assert cache.metrics.counter("hits").value >= 1

    def test_partial_write_fetches_existing(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        run(sim, cache.write(1, 10, b"BB", old_size=ESZ))
        run(sim, cache.flush(1))
        out = store.sync_get(prt.key_data(1, 0))
        assert out == b"A" * 10 + b"BB" + b"A" * (ESZ - 12)

    def test_full_overwrite_skips_fetch(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        gets_before = store.op_counts["get"]
        run(sim, cache.write(1, 0, b"B" * ESZ, old_size=ESZ))
        assert store.op_counts["get"] == gets_before

    def test_write_beyond_eof_no_fetch(self, env):
        sim, store, prt, cache = env
        gets_before = store.op_counts["get"]
        run(sim, cache.write(1, 5 * ESZ, b"tail", old_size=10))
        assert store.op_counts["get"] == gets_before

    def test_write_spanning_entries(self, env):
        sim, store, prt, cache = env
        data = bytes(range(256)) * ((2 * ESZ + 50) // 256 + 1)
        data = data[: 2 * ESZ + 50]
        run(sim, cache.write(1, 0, data, old_size=0))
        run(sim, cache.flush(1))
        whole = b"".join(store.sync_get(prt.key_data(1, i)) for i in range(3))
        assert whole == data


class TestReadPath:
    def test_miss_fetches_from_store(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"stored!")
        assert run(sim, cache.read(1, 0, 7)) == b"stored!"
        assert cache.metrics.counter("misses").value == 1

    def test_hole_reads_zeros(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 1), b"x" * ESZ)
        out = run(sim, cache.read(1, 0, ESZ + 4))
        assert out == b"\x00" * ESZ + b"xxxx"

    def test_zero_length_read(self, env):
        sim, store, prt, cache = env
        assert run(sim, cache.read(1, 0, 0)) == b""


class SlowPutStore(InMemoryObjectStore):
    """Every PUT takes one simulated second, so a test can act mid-flush."""

    def put(self, key, data, src=None):
        yield self.sim.timeout(1.0)
        yield from super().put(key, data, src=src)


def _entry(cache, ino, idx):
    return cache._file(ino).tree.get(idx)


class TestCopyOnWrite:
    def test_fetch_shares_the_stored_object(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        stored = store.sync_get(prt.key_data(1, 0))
        out = run(sim, cache.read(1, 0, ESZ))
        assert _entry(cache, 1, 0).data is stored
        assert out is stored  # a whole-entry read is not copied

    def test_writeback_shares_the_stored_object(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"dirty data", old_size=0))
        assert isinstance(_entry(cache, 1, 0).data, bytearray)
        run(sim, cache.flush(1))
        assert _entry(cache, 1, 0).data is store.sync_get(prt.key_data(1, 0))

    def test_write_leaves_store_and_earlier_reads_unchanged(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        stored = store.sync_get(prt.key_data(1, 0))
        whole = run(sim, cache.read(1, 0, ESZ))
        part = run(sim, cache.read(1, 8, 4))
        run(sim, cache.write(1, 8, b"BBBB", old_size=ESZ))
        assert stored == b"A" * ESZ
        assert store.sync_get(prt.key_data(1, 0)) is stored
        assert whole == b"A" * ESZ and part == b"AAAA"
        private = run(sim, cache.read(1, 6, 8))
        assert private == b"AABBBBAA"
        run(sim, cache.write(1, 6, b"CCCCCCCC", old_size=ESZ))
        assert private == b"AABBBBAA"

    def test_write_during_writeback_keeps_entry_dirty(self):
        sim = Simulator()
        store = SlowPutStore(sim)
        prt = PRT(store, data_object_size=ESZ)
        cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                                capacity_bytes=8 * ESZ,
                                max_readahead=4 * ESZ)
        key = prt.key_data(1, 0)
        run(sim, cache.write(1, 0, b"old data", old_size=0))
        sim.process(cache.flush(1))
        sim.run(until=0.5)
        assert key not in store  # the PUT is in flight
        run(sim, cache.write(1, 0, b"new", old_size=8))
        sim.run()
        assert store.sync_get(key) == b"old data"
        assert cache.has_dirty(1)
        assert run(sim, cache.read(1, 0, 8)) == b"new data"
        run(sim, cache.flush(1))
        assert store.sync_get(key) == b"new data"
        assert not cache.has_dirty(1)

    @pytest.mark.parametrize("flushed", [False, True])
    def test_write_past_size_reads_zeros_in_gap(self, env, flushed):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"abc", old_size=0))
        if flushed:
            run(sim, cache.flush(1))
        run(sim, cache.write(1, 10, b"xyz", old_size=3))
        assert run(sim, cache.read(1, 0, 13)) == b"abc" + bytes(7) + b"xyz"
        run(sim, cache.flush(1))
        assert store.sync_get(prt.key_data(1, 0)) == b"abc" + bytes(7) + b"xyz"


class TestReadAheadPolicy:
    def test_read_from_start_opens_max_window(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, entry_size=ESZ, max_readahead=4 * ESZ)
        assert ra.window == 4 * ESZ

    def test_sequential_reads_double_window(self):
        ra = ReadAheadState()
        ra.on_read(100, 50, entry_size=ESZ, max_readahead=8 * ESZ)
        assert ra.window == ESZ
        ra.on_read(150, 50, ESZ, 8 * ESZ)
        assert ra.window == 2 * ESZ
        ra.on_read(200, 50, ESZ, 8 * ESZ)
        assert ra.window == 4 * ESZ

    def test_window_capped_at_max(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, ESZ, 2 * ESZ)
        assert ra.window == 2 * ESZ
        ra.on_read(10, 10, ESZ, 2 * ESZ)
        assert ra.window == 2 * ESZ

    def test_random_access_shrinks_window(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, ESZ, 8 * ESZ)
        assert ra.window == 8 * ESZ
        ra.on_read(5000, 10, ESZ, 8 * ESZ)  # jump
        assert ra.window == ESZ

    def test_prefetch_populates_ahead(self, env):
        sim, store, prt, cache = env
        for i in range(6):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        run(sim, cache.read(1, 0, 10, ra=ra))
        sim.run()  # let async prefetch processes complete
        assert cache.metrics.counter("prefetches").value > 0
        assert cache.cached_entries(1) > 1

    def test_prefetched_read_is_hit(self, env):
        sim, store, prt, cache = env
        for i in range(4):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        run(sim, cache.read(1, 0, ESZ, ra=ra))
        sim.run()
        misses_before = cache.metrics.counter("misses").value
        run(sim, cache.read(1, ESZ, ESZ, ra=ra))
        assert cache.metrics.counter("misses").value == misses_before


class TestEviction:
    def test_capacity_enforced(self, env):
        sim, store, prt, cache = env
        for i in range(20):
            run(sim, cache.write(1, i * ESZ, b"z" * ESZ, old_size=i * ESZ))
        assert cache.total_entries <= cache.capacity

    def test_eviction_flushes_dirty_victim(self, env):
        sim, store, prt, cache = env
        for i in range(cache.capacity + 2):
            run(sim, cache.write(1, i * ESZ, bytes([i]) * ESZ,
                                 old_size=i * ESZ))
        # The first (LRU) entries were evicted and must be durable.
        assert store.sync_get(prt.key_data(1, 0)) == bytes([0]) * ESZ
        assert cache.metrics.counter("evictions").value >= 2

    def test_lru_order(self, env):
        sim, store, prt, cache = env
        for i in range(cache.capacity):
            run(sim, cache.write(1, i * ESZ, b"x" * ESZ, old_size=i * ESZ))
        # Touch entry 0 so entry 1 becomes LRU.
        run(sim, cache.read(1, 0, 4))
        run(sim, cache.write(1, cache.capacity * ESZ, b"y" * ESZ,
                             old_size=cache.capacity * ESZ))
        assert cache.cached_entries(1) == cache.capacity
        # Entry 1 was evicted (flushed); entry 0 still cached.
        fc_keys = set()
        for ino_idx, _ in cache._lru.items():
            fc_keys.add(ino_idx[1])
        assert 0 in fc_keys and 1 not in fc_keys


class TestInvalidation:
    def test_invalidate_flushes_then_drops(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"keepme", old_size=0))
        run(sim, cache.invalidate(1, flush_dirty=True))
        assert cache.cached_entries(1) == 0
        assert store.sync_get(prt.key_data(1, 0)) == b"keepme"

    def test_invalidate_discard_loses_dirty(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"loseme", old_size=0))
        run(sim, cache.invalidate(1, flush_dirty=False))
        assert prt.key_data(1, 0) not in store

    def test_discard_all_instant(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"x", old_size=0))
        cache.discard_all()
        assert cache.total_entries == 0

    def test_drop_all_flushes_everything(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"a", old_size=0))
        run(sim, cache.write(2, 0, b"b", old_size=0))
        run(sim, cache.drop_all())
        assert store.sync_get(prt.key_data(1, 0)) == b"a"
        assert store.sync_get(prt.key_data(2, 0)) == b"b"
        assert cache.total_entries == 0


def test_entry_size_must_match_prt():
    sim = Simulator()
    prt = PRT(InMemoryObjectStore(sim), 64)
    with pytest.raises(ValueError):
        DataObjectCache(sim, prt, None, entry_size=128, capacity_bytes=1024,
                        max_readahead=256)
