"""Generator-stack depth on the per-op hot path (DESIGN.md §10).

Every resume of a suspended process re-enters each frame of its
``yield from`` chain, so a wrapper generator that does no work costs wall
time on every event. These tests pin the chain depth of a small
mdtest-hard run on the default ArkFS harness, and the flat helpers that
return ``()`` instead of a frame, so a wrapper added back fails a test
instead of only showing up as a noisy wall clock.
"""

import types

from repro.bench.harness import NET_50G, build
from repro.core import build_arkfs
from repro.posix import FuseMount, MountParams, ROOT_CREDS
from repro.sim import BandwidthPipe, Resource, Simulator
from repro.sim.engine import Event, Process
from repro.sim.network import Node
from repro.workloads import mdtest_hard, run_phase

#: Mean ``yield from`` depth at a suspension of the tiny run below
#: (deterministic): 5.344 with the flat hot path, 8.624 before it.
MAX_MEAN_DEPTH = 5.35


def _record_chains(monkeypatch):
    """Patch ``Process._step`` to record the generator chain (qualnames,
    outermost first) of every process that suspends."""
    chains = []
    step = Process._step

    def recording_step(self, value, throw=None):
        step(self, value, throw)
        if self._value is Event._PENDING:
            chain = []
            g = self._gen
            while isinstance(g, types.GeneratorType):
                chain.append(g.gi_code.co_qualname)
                g = g.gi_yieldfrom
            chains.append(chain)

    monkeypatch.setattr(Process, "_step", recording_step)
    return chains


def test_mdtest_hard_chain_depth(monkeypatch):
    sim = Simulator()
    _cluster, mounts = build("arkfs", sim, n_clients=2, net=NET_50G)
    chains = _record_chains(monkeypatch)
    result = mdtest_hard(sim, mounts, n_procs=4, files_per_proc=5, n_dirs=2)
    assert not any(result.errors.values())
    mean = sum(map(len, chains)) / len(chains)
    assert mean <= MAX_MEAN_DEPTH, f"mean yield-from depth {mean:.2f}"
    frames = {name for chain in chains for name in chain}
    assert "ArkFSClient._getattr_inode" in frames  # LOOKUPs were recorded
    for wrapper in ("_MountBase._globally_locked", "_MountBase.stat",
                    "Node.work", "BandwidthPipe.transfer", "Resource.use",
                    "ArkFSClient._authority_op", "ArkFSClient._peer_call",
                    "ArkFSClient._charge_lookup", "ArkFSClient._run_op",
                    "ArkFSClient._resolve_parent", "ArkFSClient.lstat",
                    "VFSClient.lookup", "_MountBase.open",
                    "_MountBase.unlink"):
        assert wrapper not in frames


def test_elided_helpers_return_empty_iterables():
    sim = Simulator()
    node = Node(sim, "n")
    assert node.work(0) == ()
    res = Resource(sim, capacity=1)
    assert res.use(0.0) == ()
    pipe = BandwidthPipe(sim, bytes_per_sec=1e9)
    assert pipe.transfer(0) == ()
    assert pipe.bytes_moved == 0
    # Work that takes time still yields events.
    assert isinstance(node.work(1.0), types.GeneratorType)
    assert isinstance(res.use(1.0), types.GeneratorType)


def test_global_lock_mount_still_serializes(monkeypatch):
    """A mount with a client-global mutex (ceph-fuse style) keeps its lock
    wrapper: concurrent stats on different directories cannot overlap
    their locked sections."""
    hold = 1e-3
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, functional=True)
    inner = cluster.clients[0]
    mount = FuseMount(inner, inner.node,
                      MountParams(global_lock_service=hold))

    def setup():
        for i in range(4):
            yield from mount.mkdir(ROOT_CREDS, f"/w{i}")
            yield from mount.write_file(ROOT_CREDS, f"/w{i}/f", b"x")

    run_phase(sim, [sim.process(setup())])
    chains = _record_chains(monkeypatch)

    def worker(i):
        for _ in range(5):
            mount.invalidate_dcache()
            yield from mount.stat(ROOT_CREDS, f"/w{i}/f")

    t0 = sim.now
    run_phase(sim, [sim.process(worker(i)) for i in range(4)])
    # Each stat takes the lock three times: LOOKUP /wI, LOOKUP /wI/f, and
    # the op itself. 4 workers x 5 stats x 3 sections, one at a time.
    assert sim.now - t0 >= 4 * 5 * 3 * hold
    assert any("_MountBase._globally_locked" in chain for chain in chains)
