"""Acceptance criterion: packing disabled ⇒ bit-identical results.

``pack_enabled=False`` (the default) must keep ArkFS structurally
identical to a build that predates the pack subsystem — the same pattern
``faults=None`` pins for fault injection. With packing off no
:class:`PackWriter` is constructed at all (``client.pack is None``), the
cache holds no pack reference, no maintenance ticker runs, and every
pack hook in the write/read/unlink paths is an ``is not None`` check
that adds zero simulation events. These tests pin that down from three
angles: the default is off and builds nothing, repeated pack-off runs
are bit-identical on the realistic store (same sim clock, same network
traffic, same store bytes — what keeps BENCH_fig6.json unchanged), and
a pack-off run leaves no pack artifacts (``p``/``x`` keys) or pack
metrics behind.
"""

from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.obs import Observability
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator
from tests.conftest import fingerprint


def _workload(cluster, sim):
    """Small-file-heavy (everything far below pack_threshold, so packing
    WOULD engage if it were on), plus rename/unlink/truncate and a
    checkpoint drain."""
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/w")
    fs.mkdir("/w/sub")
    for i in range(8):
        fs.write_file(f"/w/f{i}", bytes([i + 1]) * (3000 + 17 * i),
                      do_fsync=True)
    fs.rename("/w/f0", "/w/sub/moved")
    fs.unlink("/w/f1")
    fs.truncate("/w/f2", 1000)
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)


def test_default_is_off_and_builds_no_pack_layer():
    assert DEFAULT_PARAMS.pack_enabled is False, \
        "packing must stay opt-in: the default run is the paper baseline"
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, seed=0)
    for client in cluster.clients:
        assert client.pack is None
        assert client.cache._pack is None
    assert cluster.prt.pack_enabled is False


def test_pack_off_runs_bit_identical_on_realistic_store():
    """Two independent pack-off builds replay to identical clocks, network
    totals, store op counts, and store *bytes* — the property that keeps
    regenerated BENCH figures unchanged by this subsystem."""
    prints = []
    for _ in range(2):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, seed=0)
        _workload(cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


def test_pack_off_leaves_no_pack_artifacts():
    """No container/index objects in the store and no pack metric scopes
    registered: the subsystem is absent, not merely idle."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0)
    _workload(cluster, sim)
    store = cluster.store
    backing = getattr(store, "backing", store)
    keys = backing.sync_list("")
    assert not [k for k in keys if k[0] in ("p", "x")]
    snap = Observability.of(sim).metrics.to_dict()
    assert not [k for k in snap["counters"] if ".pack." in k]


def test_pack_on_changes_layout_but_not_contents():
    """Control for the identity tests: the same workload with packing ON
    does produce containers — proving the off-run's absence of them is
    the subsystem staying out of the way, not the workload being too
    small to trigger it — while files still read back identically."""
    results = {}
    for enabled in (False, True):
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(
            pack_enabled=enabled, pack_threshold=64 * 1024,
            pack_target_size=256 * 1024, pack_seal_age=0.5)
        cluster = build_arkfs(sim, n_clients=2, params=params,
                              functional=True, seed=0)
        _workload(cluster, sim)
        fs = SyncFS(cluster.client(1), ROOT_CREDS)
        contents = {}
        for name in ("/w/sub/moved", "/w/f2", "/w/f3", "/w/f7"):
            contents[name] = fs.read_file(name)
        backing = getattr(cluster.store, "backing", cluster.store)
        kinds = sorted({k[0] for k in backing.sync_list("")})
        results[enabled] = (contents, kinds)
    assert results[False][0] == results[True][0]
    assert "p" not in results[False][1] and "x" not in results[False][1]
    assert "p" in results[True][1] and "x" in results[True][1]
    assert "d" not in results[True][1]   # everything was sub-threshold
