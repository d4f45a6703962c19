"""Every metric the benchmark reports, with its unit, in report order.

``BENCHMARK.json`` lists the same names and units; the self-tests check
that the two agree and that a run emits exactly these.
"""

from __future__ import annotations

from probes import CORE_VERBS, HOST_LAYERS, STORE_VERBS, VFS_OPS

__all__ = ["END_TO_END", "PER_LAYER", "PHASES"]

#: Phase names over all workloads; each traced run reports every one
#: (0 s for phases its workload does not have).
PHASES = ("WRITE", "STAT", "READ", "DELETE", "ARCHIVE", "EXTRACT",
          "UNARCHIVE")

END_TO_END = {
    "sim_elapsed_s": "s",
    "sim_ops_per_s": "1/s",
    "sim_mb_per_s": "MB/s",
    "sim_lat_mean_ms": "ms",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_req_per_op": "1/op",
    "space_amp": "ratio",
}


def _per_layer() -> dict:
    m = {"posix.ops": "count", "posix.fail_ratio": "ratio",
         "posix.sim_lat_p50_ms": "ms", "posix.sim_lat_p99_ms": "ms"}
    for op in VFS_OPS:
        m.update({f"posix.{op}.n": "count", f"posix.{op}.sim_p50_ms": "ms",
                  f"posix.{op}.sim_p99_ms": "ms"})
    m["posix.fuse_req_per_op"] = "1/op"
    m.update({f"phase.{name}.sim_s": "s" for name in PHASES})
    for verb in CORE_VERBS:
        m.update({f"core.{verb}.n": "count",
                  f"core.{verb}.sim_ms_mean": "ms"})
    m["core.authority_ops_per_op"] = "1/op"
    m.update({f"core.lease.{k}": "count"
              for k in ("acquire", "redirect", "wait")})
    m.update({"core.cache.hit_ratio": "ratio",
              "core.cache.evictions": "count",
              "core.journal.commits": "count",
              "core.journal.commit_rounds": "count"})
    m.update({f"objectstore.{verb}.n": "count" for verb in STORE_VERBS})
    m.update({"objectstore.get.sim_p99_ms": "ms",
              "objectstore.put.sim_p99_ms": "ms",
              "objectstore.bytes_read_per_user_byte": "ratio",
              "objectstore.bytes_written_per_user_byte": "ratio",
              "objectstore.osd_util_mean": "ratio",
              "objectstore.osd_qdepth_mean": "count",
              "objectstore.retry.attempts": "count",
              "objectstore.ebs_bytes": "B"})
    m.update({"sim.loop_events_per_op": "1/op",
              "sim.inline_events_per_op": "1/op",
              "sim.heap_pushes_per_op": "1/op",
              "sim.net.msgs_per_op": "1/op",
              "sim.net.bytes_per_op": "B/op",
              "sim.lease_mgr_util_mean": "ratio"})
    m.update({f"host.self_frac.{layer}": "ratio" for layer in HOST_LAYERS})
    m.update({"host.wall_raw_s": "s", "host.speed_factor": "ratio",
              "host.tracing_overhead": "ratio"})
    return m


PER_LAYER = _per_layer()
