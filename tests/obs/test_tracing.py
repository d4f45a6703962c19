"""Span tracing on the full timed stack: coverage, fan-out, zero-cost off.

These run real clusters (RADOS-profile object store, FUSE mounts) because
the guarantees under test are cross-layer ones: root spans must cover the
operation end to end, primitive child spans must account for (nearly) all
of that time even across scatter-gather fan-outs, and a tracing-disabled
run must not allocate a single Span.
"""

import json

import pytest

from repro.bench.harness import BENCH_OBS, NET_50G, build
from repro.obs import (
    Observability,
    attribute_latency,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs import trace as trace_mod
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

MiB = 1024 * 1024


def _ancestors(span):
    cur = span.parent
    while cur is not None:
        yield cur
        cur = cur.parent


@pytest.fixture
def traced_arkfs(monkeypatch):
    monkeypatch.setattr(BENCH_OBS, "tracing", False)
    sim = Simulator()
    tracer = Observability.of(sim).enable_tracing(pid_name="arkfs")
    cluster, mounts = build("arkfs", sim, n_clients=2, net=NET_50G)
    return sim, cluster, mounts, tracer


class TestSpanCoverage:
    def test_cache_miss_read_spans_cover_latency(self, traced_arkfs):
        sim, cluster, mounts, tracer = traced_arkfs
        fs0 = SyncFS(mounts[0], ROOT_CREDS)
        fs1 = SyncFS(mounts[1], ROOT_CREDS)
        payload = bytes(range(256)) * (6 * MiB // 256)  # 3 data objects
        fs0.write_file("/big", payload, do_fsync=True)
        n_before = len(tracer.spans)
        # One read spanning all three objects: the cache fans the misses
        # out as a single scatter-gather batch (PR 1's get_many path).
        from repro.posix import OpenFlags

        with fs1.open("/big", OpenFlags.O_RDONLY) as f:
            assert f.read(len(payload)) == payload

        new = tracer.spans[n_before:]
        roots = [s for s in new if s.name == "vfs.read" and s.parent is None]
        assert roots, "mount layer did not open a vfs.read root span"

        # Client 1 never saw the data: the read must have fetched from the
        # store, and the scatter-gather batch spawns one fetch process per
        # object whose GET spans re-parent onto the read's root span.
        gets = [s for s in new if s.name == "store.get"]
        assert len(gets) >= 3
        for g in gets:
            names = {a.name for a in _ancestors(g)}
            assert "vfs.read" in names
        assert any(s.name == "cache.fetch" for s in new)
        cache = cluster.client(1).cache
        fetch_batches = cache.metrics.counter("fetch_batches").value
        assert fetch_batches >= 1, "read did not take the batched-fetch path"

        # Span-sum tolerance: primitive descendants must cover >=95% of the
        # end-to-end latency of every traced op (fan-out included).
        attrib = attribute_latency(tracer)
        for phase, row in attrib.items():
            assert row["total_s"] > 0
            covered = row["attributed_s"] / row["total_s"]
            assert covered >= 0.95, (phase, covered)

    def test_get_many_fanout_per_item_spans(self):
        """Each item of a batched GET gets its own span, parented (through
        the spawned per-key process) under the caller's root span."""
        from repro.objectstore.cluster import ClusterObjectStore
        from repro.objectstore.profiles import RADOS_PROFILE

        sim = Simulator()
        tracer = Observability.of(sim).enable_tracing(pid_name="store")
        store = ClusterObjectStore(sim, RADOS_PROFILE)
        keys = [f"k{i}" for i in range(4)]

        def root():
            for k in keys:
                yield from store.put(k, b"x" * 4096)
            return (yield from store.get_many(keys))

        values = sim.run_process(tracer.wrap("vfs.op", root(), "vfs"))
        assert values == [b"x" * 4096] * 4
        gets = [s for s in tracer.spans if s.name == "store.get"]
        assert len(gets) == 4
        for g in gets:
            names = {a.name for a in _ancestors(g)}
            assert "store.get_many" in names
            assert any(a.cat == "vfs" for a in _ancestors(g))

    def test_metadata_ops_attributed(self, traced_arkfs):
        sim, cluster, mounts, tracer = traced_arkfs
        fs = SyncFS(mounts[0], ROOT_CREDS)
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x" * 4096, do_fsync=True)
        fs.stat("/d/f")
        assert fs.readdir("/d") == ["f"]
        names = {s.name for s in tracer.spans}
        for expected in ("vfs.mkdir", "vfs.stat", "vfs.readdir",
                         "lease.acquire", "journal.commit", "store.put"):
            assert expected in names
        attrib = attribute_latency(tracer)
        total = sum(r["total_s"] for r in attrib.values())
        covered = sum(r["attributed_s"] for r in attrib.values())
        assert covered >= 0.95 * total


class TestChromeExport:
    def test_exported_trace_is_loadable(self, traced_arkfs, tmp_path):
        sim, cluster, mounts, tracer = traced_arkfs
        fs = SyncFS(mounts[0], ROOT_CREDS)
        fs.mkdir("/x")
        fs.write_file("/x/f", b"y" * MiB, do_fsync=True)
        out = tmp_path / "trace.json"
        n = write_chrome_trace(str(out), [tracer])
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == n > 0
        metas = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in metas}
        for e in events:
            if e["ph"] != "X":
                continue
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["name"] and e["cat"]

    def test_open_spans_are_skipped(self):
        sim = Simulator()
        tracer = Observability.of(sim).enable_tracing(pid_name="t")
        sp = tracer.span("never.closed", "svc")
        closed = tracer.span("closed", "svc")
        closed.close()
        events = chrome_trace_events([tracer])
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert names == {"closed"}
        sp.close()


class TestDisabledTracing:
    def test_no_span_allocations_when_disabled(self, monkeypatch):
        calls = []
        orig_init = trace_mod.Span.__init__

        def spy(self, *args, **kwargs):
            calls.append(self)
            orig_init(self, *args, **kwargs)

        monkeypatch.setattr(trace_mod.Span, "__init__", spy)
        monkeypatch.setattr(BENCH_OBS, "tracing", False)
        # This test pins the *fully disabled* path; default-on sampling
        # would trace a deterministic subset (op id 0 always samples).
        monkeypatch.setattr(BENCH_OBS, "sample_rate", 0.0)
        sim = Simulator()
        cluster, mounts = build("arkfs", sim, n_clients=1, net=NET_50G)
        fs = SyncFS(mounts[0], ROOT_CREDS)
        fs.mkdir("/q")
        fs.write_file("/q/f", b"z" * MiB, do_fsync=True)
        assert fs.read_file("/q/f") == b"z" * MiB
        assert sim._tracer is None
        assert calls == []
