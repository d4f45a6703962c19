"""Shared fixtures: functional (zero-latency) ArkFS clusters and helpers."""

import pytest

from repro.core import build_arkfs
from repro.posix import Credentials, ROOT_CREDS, SyncFS
from repro.sim import Simulator


USER = Credentials(uid=1000, gid=1000)
OTHER = Credentials(uid=2000, gid=2000)


def fingerprint(sim, cluster):
    """Everything a run leaves observable: clock, network totals, store op
    counts and store bytes. Two runs are bit-identical when these match."""
    # The realistic ClusterObjectStore keeps its bytes (and sync_* helpers)
    # on an in-memory backing store; the functional build IS that store.
    store = cluster.store
    backing = getattr(store, "backing", store)
    content = {k: bytes(backing.sync_get(k)) for k in backing.sync_list("")}
    return {
        "now": sim.now,
        "messages": cluster.net.messages_sent,
        "bytes": cluster.net.bytes_sent,
        "store_ops": dict(backing.op_counts),
        "content": content,
    }


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    """A 2-client functional ArkFS cluster on the in-memory store."""
    return build_arkfs(sim, n_clients=2, functional=True)


@pytest.fixture
def fs(cluster):
    """SyncFS facade for client 0, as root."""
    return SyncFS(cluster.client(0), ROOT_CREDS)


@pytest.fixture
def fs2(cluster):
    """SyncFS facade for client 1, as root."""
    return SyncFS(cluster.client(1), ROOT_CREDS)


@pytest.fixture
def user_fs(cluster):
    """Client 0 as an unprivileged user."""
    return SyncFS(cluster.client(0), USER)
