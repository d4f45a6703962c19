"""Acceptance criterion: QoS disabled ⇒ bit-identical results.

``qos_enabled=False`` (the default) must keep ArkFS structurally
identical to a build that predates the QoS plane — the same pin the
pack/shard/tier/fault layers carry. With QoS off no
:class:`~repro.core.qos.QosManager` is constructed at all: the OSD
queues are plain FIFO :class:`~repro.sim.resources.Resource`\\ s, the
lease-manager CPU is untouched, and every client/store hook is a single
``self.qos is None`` check that adds zero simulation events. Pinned here
on the three paper workload shapes the BENCH figures regenerate — fig4
(mdtest-easy metadata), fig6a (fio streaming), table2 (tar small-file
archiving) — by fingerprinting the sim clock, network totals, store op
counts, and store bytes across repeated runs.
"""

import pytest

from repro.core import DEFAULT_PARAMS, QosManager, WFQResource, build_arkfs
from repro.obs import Observability
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator
from repro.sim.resources import Resource
from tests.conftest import fingerprint


def _fig4_mdtest(cluster, sim):
    """mdtest-easy shape: per-client flat dirs, create/stat/delete."""
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.mkdir("/md")
    for c in range(2):
        fs = SyncFS(cluster.client(c), ROOT_CREDS)
        fs.mkdir(f"/md/c{c}")
        for i in range(12):
            fs.write_file(f"/md/c{c}/f{i}", b"", do_fsync=True)
        for i in range(12):
            fs.stat(f"/md/c{c}/f{i}")
        for i in range(0, 12, 2):
            fs.unlink(f"/md/c{c}/f{i}")


def _fig6a_fio(cluster, sim):
    """fio shape: one streaming file at the data-object size, read back."""
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/fio")
    fs.write_file("/fio/f", b"\x5a" * (6 * 1024 * 1024))
    sim.run_process(cluster.client(0).sync())
    sim.run_process(cluster.client(0).drop_caches())
    fs.read_file("/fio/f")


def _table2_tar(cluster, sim):
    """tar archiving shape: many small files, fsync'd, then a drain."""
    fs = SyncFS(cluster.client(1), ROOT_CREDS)
    fs.mkdir("/tar")
    for i in range(10):
        fs.write_file(f"/tar/img{i}", bytes([i + 1]) * (20_000 + 331 * i),
                      do_fsync=(i % 3 == 0))
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)


WORKLOADS = {
    "fig4": _fig4_mdtest,
    "fig6a": _fig6a_fio,
    "table2": _table2_tar,
}


def test_default_is_off_and_builds_no_qos():
    assert DEFAULT_PARAMS.qos_enabled is False, \
        "QoS must stay opt-in: the default run is the paper baseline"
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, seed=0)
    assert cluster.qos is None
    assert cluster.store.qos is None
    for client in cluster.clients:
        assert client.qos is None and client.tenant is None
    # FIFO queues everywhere: plain Resources, never the WFQ subclass.
    mgr_cpu = cluster.lease_manager.node.cpu
    assert type(mgr_cpu) is Resource and not isinstance(mgr_cpu, WFQResource)
    assert cluster.lease_manager.qos is None
    for osd in cluster.store.osds:
        assert type(osd.queue) is Resource
    snap = Observability.of(sim).metrics.to_dict()
    assert not [k for k in snap["counters"] if k.startswith("qos.")]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_qos_off_runs_bit_identical(workload):
    """Two independent qos-off builds replay each paper workload shape to
    identical clocks, network totals, store op counts, and store bytes —
    what keeps the regenerated BENCH figures unchanged by this PR."""
    prints = []
    for _ in range(2):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, seed=0)
        WORKLOADS[workload](cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


def test_qos_off_leaves_no_qos_metrics():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0)
    _table2_tar(cluster, sim)
    snap = Observability.of(sim).metrics.to_dict()
    assert not [k for k in snap["counters"] if k.startswith("qos.")]
    assert not [k for k in snap["histograms"] if k.startswith("tenant.")]


def test_qos_on_changes_plumbing_but_not_contents():
    """Control for the identity tests: the same archiving workload with
    QoS ON admits every op through the plane and tags the queues by
    tenant — proving the off-run's silence is the subsystem staying out
    of the way — while every file still reads back identically."""
    results = {}
    for enabled in (False, True):
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(qos_enabled=enabled)
        cluster = build_arkfs(sim, n_clients=2, params=params,
                              functional=True, seed=0)
        _table2_tar(cluster, sim)
        fs = SyncFS(cluster.client(0), ROOT_CREDS)
        contents = {f"/tar/img{i}": fs.read_file(f"/tar/img{i}")
                    for i in range(10)}
        results[enabled] = (contents, cluster, sim)
    assert results[False][0] == results[True][0]
    on_cluster, on_sim = results[True][1], results[True][2]
    assert isinstance(on_cluster.qos, QosManager)
    assert isinstance(on_cluster.lease_manager.node.cpu, WFQResource)
    snap = Observability.of(on_sim).metrics.to_dict()
    assert snap["counters"]["qos.admitted"] > 0
    assert results[False][1].qos is None
