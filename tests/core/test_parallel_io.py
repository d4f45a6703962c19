"""Parallel scatter-gather I/O: demand-read fan-out, prefetch dedup and
admission, batched flush/invalidate, and crash safety of the parallel
checkpoint path."""

import pytest

from repro.core import (
    PRT,
    DataObjectCache,
    ReadAheadState,
    Transaction,
    build_arkfs,
    fsck,
    ops_put_dentry,
    ops_put_inode,
    recover_directory,
    scan_journal,
)
from repro.core.journal import apply_ops
from repro.core.types import Dentry, Inode
from repro.objectstore import ClusterObjectStore, InMemoryObjectStore, StoreProfile
from repro.posix import FileType, ROOT_CREDS, SyncFS
from repro.sim import Simulator


ESZ = 128  # tiny entries for tests

FAST = StoreProfile(
    name="fast8", n_osds=8, media_bw=1e9, osd_queue_depth=8,
    get_latency=0.010, put_latency=0.010, delete_latency=0.010,
    head_latency=0.001, list_latency=0.001, list_page=100,
    per_stream_bw=1e9, replication=1,
)


class CountingStore(InMemoryObjectStore):
    """Records every single-key GET so tests can assert no duplicates."""

    def __init__(self, sim):
        super().__init__(sim)
        self.get_keys = []

    def get(self, key, src=None):
        self.get_keys.append(key)
        return (yield from super().get(key, src=src))


def make_cache(sim, store, capacity_entries=16, max_readahead=8 * ESZ, **kw):
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=capacity_entries * ESZ,
                            max_readahead=max_readahead, **kw)
    return prt, cache


def run(sim, gen):
    return sim.run_process(gen)


class TestDemandFanOut:
    def test_cold_multi_entry_read_fans_out(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store)
        for i in range(6):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        out = run(sim, cache.read(1, 0, 6 * ESZ))
        assert out == b"".join(bytes([i]) * ESZ for i in range(6))
        assert cache.metrics.counter("misses").value == 6
        assert cache.metrics.counter("batched_gets").value == 6
        assert cache.metrics.counter("fetch_batches").value == 1
        assert cache.metrics.gauge("fetch_batch").max_value == 6
        assert cache.metrics.gauge("inflight_gets").max_value > 1

    def test_fetch_parallel_1_is_the_serial_ablation(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, fetch_parallel=1)
        for i in range(6):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        out = run(sim, cache.read(1, 0, 6 * ESZ))
        assert out == b"".join(bytes([i]) * ESZ for i in range(6))
        assert cache.metrics.counter("batched_gets").value == 0
        assert cache.metrics.counter("serial_gets").value == 6
        assert cache.metrics.gauge("inflight_gets").max_value == 1

    def test_fanout_overlaps_store_latency(self):
        """A cold 8-entry read takes ~one object-store round trip with
        fan-out, ~eight without."""
        def cold_read_time(fetch_parallel):
            sim = Simulator()
            store = ClusterObjectStore(sim, FAST)
            prt, cache = make_cache(sim, store, max_readahead=0,
                                    fetch_parallel=fetch_parallel)
            for i in range(8):
                store.backing.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
            t0 = sim.now
            out = run(sim, cache.read(1, 0, 8 * ESZ))
            assert out == b"".join(bytes([i]) * ESZ for i in range(8))
            return sim.now - t0

        assert cold_read_time(16) < cold_read_time(1) / 2

    def test_request_larger_than_cache_still_correct(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, capacity_entries=4,
                                max_readahead=0)
        for i in range(12):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        out = run(sim, cache.read(1, 0, 12 * ESZ))
        assert out == b"".join(bytes([i]) * ESZ for i in range(12))
        assert cache.total_entries <= cache.capacity


class TestPrefetchDedup:
    def test_concurrent_demand_and_prefetch_issue_one_get_per_object(self):
        """A demand read racing the read-ahead for the same entries must
        share the in-flight fetch, never duplicate the GET."""
        sim = Simulator()
        store = CountingStore(sim)
        prt, cache = make_cache(sim, store)
        for i in range(8):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        results = {}

        def seq_reader():
            # Reading from offset 0 opens the window: prefetches idx 1..8.
            results["a"] = yield from cache.read(1, 0, ESZ, ra=ra)

        def overlapping_reader():
            # Demands idx 2..3, racing the prefetches scheduled above.
            results["b"] = yield from cache.read(1, 2 * ESZ, 2 * ESZ)

        sim.process(seq_reader(), name="seq")
        sim.process(overlapping_reader(), name="overlap")
        sim.run()
        assert results["a"] == bytes([0]) * ESZ
        assert results["b"] == bytes([2]) * ESZ + bytes([3]) * ESZ
        assert len(store.get_keys) == len(set(store.get_keys)), \
            f"duplicate GETs: {store.get_keys}"

    def test_prefetch_admission_cannot_overshoot_capacity(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, capacity_entries=4,
                                max_readahead=16 * ESZ)
        for i in range(20):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        run(sim, cache.read(1, 0, ESZ, ra=ra))
        sim.run()  # drain the prefetch processes
        assert cache.total_entries <= cache.capacity
        assert cache._reserved == 0  # every reserved slot was returned
        assert cache.metrics.counter("prefetches").value <= cache.capacity

    def test_reservations_returned_when_prefetch_drops(self):
        """Prefetches that find their slot claimed give the reservation
        back, so later reads can schedule read-ahead again."""
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, capacity_entries=4,
                                max_readahead=16 * ESZ)
        for i in range(30):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        for step in range(4):
            run(sim, cache.read(1, step * ESZ, ESZ, ra=ra))
            sim.run()
        assert cache._reserved == 0
        assert cache.total_entries <= cache.capacity


class TestBatchedFlush:
    def _dirty_cache(self, writeback_parallel, n_files):
        sim = Simulator()
        store = ClusterObjectStore(sim, FAST)
        prt, cache = make_cache(sim, store, capacity_entries=64,
                                max_readahead=0,
                                writeback_parallel=writeback_parallel)
        for ino in range(1, n_files + 1):
            run(sim, cache.write(ino, 0, bytes([ino]) * ESZ, old_size=0))
        return sim, store, prt, cache

    def test_flush_all_takes_one_batch_of_time(self):
        n = 6
        sim, store, prt, cache = self._dirty_cache(writeback_parallel=8,
                                                   n_files=n)
        t0 = sim.now
        run(sim, cache.flush_all())
        parallel = sim.now - t0

        sim2, store2, prt2, cache2 = self._dirty_cache(writeback_parallel=1,
                                                       n_files=n)
        t0 = sim2.now
        run(sim2, cache2.flush_all())
        serial = sim2.now - t0

        assert parallel < serial / 2
        # ~one flusher-pool round: a single PUT latency plus slack, not n.
        assert parallel < 3 * FAST.put_latency
        for ino in range(1, n + 1):
            assert store.backing.sync_get(prt.key_data(ino, 0)) \
                == bytes([ino]) * ESZ
        assert cache.metrics.counter("wb_batches").value >= 1
        assert cache.metrics.gauge("wb_batch").max_value == n
        assert cache.metrics.gauge("inflight_puts").max_value > 1

    def test_invalidate_uses_batched_writeback(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, capacity_entries=16,
                                max_readahead=0)
        run(sim, cache.write(1, 0, b"z" * (6 * ESZ), old_size=0))
        run(sim, cache.invalidate(1, flush_dirty=True))
        assert cache.cached_entries(1) == 0
        for i in range(6):
            assert store.sync_get(prt.key_data(1, i)) == b"z" * ESZ
        assert cache.metrics.counter("wb_batches").value >= 1
        assert cache.metrics.gauge("wb_batch").max_value > 1

    def test_drop_all_fans_out_across_files(self):
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt, cache = make_cache(sim, store, capacity_entries=16,
                                max_readahead=0)
        for ino in (1, 2, 3):
            run(sim, cache.write(ino, 0, bytes([ino]) * ESZ, old_size=0))
        run(sim, cache.drop_all())
        assert cache.total_entries == 0
        for ino in (1, 2, 3):
            assert store.sync_get(prt.key_data(ino, 0)) == bytes([ino]) * ESZ
        assert cache.metrics.gauge("wb_batch").max_value == 3


class TestParallelCheckpoint:
    def _many_op_txn(self, dir_ino, n_files, txid="tx-par"):
        ops = []
        for i in range(n_files):
            ino = 0xA000 + i
            inode = Inode(ino=ino, ftype=FileType.REGULAR, mode=0o644,
                          uid=0, gid=0, size=0)
            ops.append(ops_put_inode(inode))
            ops.append(ops_put_dentry(
                dir_ino, Dentry(name=f"f{i}", ino=ino,
                                ftype=FileType.REGULAR)))
        return Transaction(txid, dir_ino, "update", ops)

    def test_partially_applied_parallel_checkpoint_is_replayable(
            self, cluster, fs, sim):
        """Crash mid-fan-out: some of a txn's base PUTs landed, the journal
        object survives. Replay must converge to the full state and fsck
        must come back clean."""
        fs.mkdir("/d")
        dir_ino = fs.stat("/d").st_ino
        txn = self._many_op_txn(dir_ino, n_files=4)
        sim.run_process(cluster.store.put(
            cluster.prt.key_journal(dir_ino, 0), txn.to_bytes()))
        # Apply only half the ops — the state a crash mid-checkpoint leaves.
        sim.run_process(apply_ops(cluster.prt, txn.ops[:4]))
        stats = sim.run_process(recover_directory(cluster.prt, dir_ino))
        assert stats["replayed"] == 1
        for i in range(4):
            assert cluster.prt.key_dentry(dir_ino, f"f{i}") in cluster.store
        assert sim.run_process(scan_journal(cluster.prt, dir_ino)) == []
        report = sim.run_process(fsck(cluster.prt))
        assert report.clean, report.summary()

    def test_crash_mid_background_checkpoint_recovers_clean(self):
        """End-to-end on the latency backend: client crashes right after
        fsync (journal durable, parallel checkpoint possibly in flight);
        the next leader replays and the layout passes fsck."""
        sim = Simulator()
        ark = build_arkfs(sim, n_clients=2)  # RADOS-profile timing
        fs0 = SyncFS(ark.client(0), ROOT_CREDS)
        fs0.mkdir("/w")
        for i in range(6):
            fs0.write_file(f"/w/f{i}", b"payload", do_fsync=True)
        ark.client(0).crash()
        fs1 = SyncFS(ark.client(1), ROOT_CREDS)
        names = fs1.readdir("/w")
        assert set(names) >= {f"f{i}" for i in range(6)}
        for i in range(6):
            assert fs1.read_file(f"/w/f{i}") == b"payload"
        report = sim.run_process(fsck(ark.prt))
        assert report.clean, report.summary()

    def test_apply_ops_parallel_and_serial_agree(self, cluster, fs, sim):
        fs.mkdir("/a")
        fs.mkdir("/b")
        ia = fs.stat("/a").st_ino
        ib = fs.stat("/b").st_ino
        txa = self._many_op_txn(ia, n_files=3, txid="t-a")
        n = sim.run_process(apply_ops(cluster.prt, txa.ops, parallel=True))
        assert n == 6
        txb = self._many_op_txn(ib, n_files=3, txid="t-b")
        n = sim.run_process(apply_ops(cluster.prt, txb.ops, parallel=False))
        assert n == 6
        for i in range(3):
            assert cluster.prt.key_dentry(ia, f"f{i}") in cluster.store
            assert cluster.prt.key_dentry(ib, f"f{i}") in cluster.store


class TestJournalFanOutCounters:
    def test_checkpoint_counters_record_batches(self, cluster, fs, sim):
        fs.mkdir("/d")
        for i in range(5):
            fs.write_file(f"/d/f{i}", b"")
        client = cluster.client(0)
        sim.run_process(client.journal.flush_all(full=True))
        m = client.journal.metrics
        assert m.counter("ckpt_batches").value >= 1
        assert m.gauge("ckpt_batch").max_value > 1

    def test_commit_loop_counts_rounds(self, cluster, fs, sim):
        for d in ("/x", "/y", "/z"):
            fs.mkdir(d)
            fs.write_file(f"{d}/f", b"1")
        sim.run(until=sim.now + 1.6)  # past one commit interval
        m = cluster.client(0).journal.metrics
        assert m.counter("commit_rounds").value >= 1
