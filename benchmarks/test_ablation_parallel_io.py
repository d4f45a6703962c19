"""Ablation A7 — parallel scatter-gather I/O fan-out.

With read-ahead disabled, a cold read that spans several 2 MB data objects
exercises the demand-fetch path directly: ``fetch_parallel=1`` pays one
object-store round trip per entry, while the default fan-out overlaps them
and the whole request costs ~one round trip. Likewise ``writeback_parallel``
controls how many dirty-entry PUTs an fsync's flush issues concurrently.
Both are run on the S3 backend, where per-request latency dominates.
"""

import pytest

from repro.bench.report import format_fanout
from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.obs import Observability
from repro.objectstore.profiles import MiB, S3_PROFILE
from repro.sim import Simulator
from repro.workloads import fio_seq


def _run(fetch_parallel, writeback_parallel=8):
    sim = Simulator()
    params = DEFAULT_PARAMS.with_(
        max_readahead=0,                 # isolate the demand-fetch path
        fetch_parallel=fetch_parallel,
        writeback_parallel=writeback_parallel,
        cache_capacity_bytes=256 * MiB,
    )
    cluster = build_arkfs(sim, n_clients=1, params=params,
                          store_profile=S3_PROFILE)
    result = fio_seq(sim, cluster.mounts, n_procs=2, file_size=64 * MiB,
                     block_size=16 * MiB)
    return result, cluster


@pytest.mark.figure("ablation-A7")
def test_fetch_fanout_speedup(bench_once):
    """Large sequential cold reads: default fan-out >= 2x over serial."""

    def run():
        serial, _ = _run(fetch_parallel=1)
        fanned, cluster = _run(fetch_parallel=DEFAULT_PARAMS.fetch_parallel)
        return serial, fanned, cluster

    serial, fanned, cluster = bench_once(run)
    speedup = fanned.read_mbps / serial.read_mbps
    print("\nA7 demand-fetch fan-out on S3 "
          "(16 MiB requests, read-ahead off, READ MB/s):")
    print(f"  fetch_parallel=1 : {serial.read_mbps:8,.0f}")
    print(f"  fetch_parallel={DEFAULT_PARAMS.fetch_parallel:<2d}: "
          f"{fanned.read_mbps:8,.0f}")
    print(f"  speedup          : {speedup:.2f}x")
    client = cluster.client(0)
    print(format_fanout("fan-out counters (default run):",
                        Observability.of(client.cache.sim).metrics))
    assert client.cache.metrics.counter("batched_gets").value > 0
    assert speedup >= 2.0


@pytest.mark.figure("ablation-A7")
def test_writeback_fanout_speedup(bench_once):
    """fsync flushes: the flusher pool beats one-PUT-at-a-time writeback."""

    def run():
        serial, _ = _run(fetch_parallel=16, writeback_parallel=1)
        fanned, _ = _run(fetch_parallel=16, writeback_parallel=8)
        return serial, fanned

    serial, fanned = bench_once(run)
    speedup = fanned.write_mbps / serial.write_mbps
    print("\nA7 writeback fan-out on S3 (WRITE MB/s incl. fsync):")
    print(f"  writeback_parallel=1: {serial.write_mbps:8,.0f}")
    print(f"  writeback_parallel=8: {fanned.write_mbps:8,.0f}")
    print(f"  speedup             : {speedup:.2f}x")
    assert speedup >= 1.5
