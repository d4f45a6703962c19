"""Acceptance criterion: sharding disabled ⇒ bit-identical results.

``shards_enabled=False`` (the default) must keep ArkFS structurally
identical to a build that predates the elastic metadata plane — the same
pattern ``test_pack_off_identity.py`` pins for the pack subsystem. With
sharding off no split gate dict is allocated (``client._split_busy is
None``), ``_maybe_split`` is a single attribute test on every create, no
shard-map GETs ever hit the store, and no splitter process is spawned —
zero extra simulation events. These tests pin that down from three
angles: the default is off and builds nothing, repeated shards-off runs
are bit-identical on the realistic store (same sim clock, same network
traffic, same store bytes), and a shards-off run leaves no shard-map
(``s``) objects behind even when a directory grows far past what the
split threshold would be. A final control shows the same workload with
sharding ON does split — proving the off-run's silence is the subsystem
staying out of the way, not the workload being too small.
"""

from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator
from tests.conftest import fingerprint

#: Wide-directory workload: 12 files in one directory (over any plausible
#: test threshold), plus the rename/unlink/readdir traffic whose routing
#: the shard layer intercepts when enabled.
N_FILES = 12


def _workload(cluster, sim):
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/wide")
    for i in range(N_FILES):
        fs.write_file(f"/wide/f{i}", bytes([i + 1]) * (200 + 13 * i),
                      do_fsync=(i % 3 == 0))
    fs.rename("/wide/f0", "/wide/renamed")
    fs.unlink("/wide/f1")
    fs.readdir("/wide")
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)


def test_default_is_off_and_builds_no_shard_machinery():
    assert DEFAULT_PARAMS.shards_enabled is False, \
        "sharding must stay opt-in: the default run is the paper baseline"
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, seed=0)
    for client in cluster.clients:
        assert client._split_busy is None
        assert not client._splitters
        assert not client._shard_maps


def test_shards_off_runs_bit_identical_on_realistic_store():
    """Two independent shards-off builds replay to identical clocks,
    network totals, store op counts, and store *bytes* — the property that
    keeps every BENCH figure unchanged by this subsystem."""
    prints = []
    for _ in range(2):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, seed=0)
        _workload(cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


def test_shards_off_leaves_no_shard_artifacts():
    """No shard-map (``s``) objects in the store and no splitter processes:
    the subsystem is absent, not merely idle — even though the directory
    grew far past what a test-scale split threshold would be."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0)
    _workload(cluster, sim)
    backing = getattr(cluster.store, "backing", cluster.store)
    assert not [k for k in backing.sync_list("s")]
    for client in cluster.clients:
        assert not client._shard_maps
        assert not client._splitters


def test_shards_on_changes_layout_but_not_contents():
    """Control for the identity tests: the same workload with sharding ON
    (threshold below the directory's size) does publish a shard map and
    does route dentries into shard ranges — while every file still reads
    back identically from the other client."""
    results = {}
    for enabled in (False, True):
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(
            shards_enabled=enabled, shard_split_threshold=6, shard_fanout=4)
        cluster = build_arkfs(sim, n_clients=2, params=params,
                              functional=True, seed=0)
        _workload(cluster, sim)
        fs = SyncFS(cluster.client(1), ROOT_CREDS)
        contents = {"/wide/renamed": fs.read_file("/wide/renamed")}
        for i in range(2, N_FILES):
            contents[f"/wide/f{i}"] = fs.read_file(f"/wide/f{i}")
        listing = fs.readdir("/wide")
        backing = getattr(cluster.store, "backing", cluster.store)
        results[enabled] = (contents, listing,
                            sorted(backing.sync_list("s")))
    assert results[False][0] == results[True][0]
    assert results[False][1] == results[True][1]
    assert results[False][2] == []
    assert results[True][2] != [], \
        "the ON control must actually split, or the identity tests prove " \
        "nothing"
