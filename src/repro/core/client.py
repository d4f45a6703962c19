"""The ArkFS client: near-POSIX operations with client-driven metadata.

Each client node runs one of these. It implements the full VFS surface by:

1. resolving paths component-by-component against local metatables (when it
   leads the directory), its permission cache (pcache mode), or the current
   leader via RPC (Fig. 3);
2. executing metadata mutations locally when it is the directory leader —
   journaled into the per-directory compound transaction — or forwarding
   them to the leader;
3. running data I/O through its write-back data-object cache under file
   read/write leases issued by the parent directory's leader.

Background processes per client: journal commit/checkpoint threads and a
*lease keeper* that extends leases on directories still in use (dirty
journal, open files, or recent activity) and cleanly flushes + releases the
rest before they lapse.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from ..objectstore.errors import NoSuchKey, TransientError
from ..obs.trace import span as _span
from ..posix import path as pathmod
from ..posix.acl import Acl, check_perm
from ..posix.errors import (
    AlreadyExists,
    BadFileHandle,
    FSError,
    InvalidArgument,
    IOFailure,
    IsADirectory,
    NotADirectory,
    NotFound,
    PermissionDenied,
    TooManySymlinks,
    UnsupportedOperation,
)
from ..posix.types import Credentials, FileType, OpenFlags, F_OK, X_OK
from ..posix.vfs import FileHandle, VFSClient
from ..sim.engine import Interrupt, SimGen, SimIter, Simulator
from ..sim.network import MessageDropped, Node, NodeDown
from .cache import DataObjectCache, ReadAheadState
from .filelease import DIRECT, FileLeaseGrant, READ, WRITE, FileLeaseService
from .journal import JournalManager
from .lease import LeaseGrant, LeaseRedirect, LeaseWait
from .metatable import Metatable, RemoteTable, load_metatable
from .ops import LeaderOps, RedirectError
from .pack import PackWriter
from .params import ArkFSParams
from .prt import PRT
from .qos import TenantBusy
from .recovery import (
    DECISION_ABORT,
    DECISION_COMMIT,
    recover_directory,
    roll_forward_split,
)
from .retry import RetryPolicy
from .shards import ShardMap, ShardRange, make_ranges
from .types import Dentry, Inode, InoAllocator, ROOT_INO, ino_hex

__all__ = ["ArkFSClient", "OpenState"]


@dataclass
class OpenState:
    """Per-open-file private state hung off the VFS handle."""

    parent_ino: int
    name: str
    size: int
    mtime: float
    lease: Optional[FileLeaseGrant] = None
    ra: ReadAheadState = field(default_factory=ReadAheadState)
    wrote: bool = False


def _inode_or_stat(d: Dict[str, Any], stat: bool):
    inode = Inode.from_dict(d)
    return inode.stat() if stat else inode


class ArkFSClient(LeaderOps, VFSClient):
    """One ArkFS client (typically one per client node)."""

    def __init__(self, sim: Simulator, node: Node, prt: PRT,
                 params: ArkFSParams, lease_service,
                 alloc: InoAllocator):
        """``lease_service`` routes lease RPCs: anything with a
        ``node_for(dir_ino) -> Node`` method (a single LeaseManager, a
        LeaseManagerCluster, or a bare Node for backward compatibility)."""
        self.sim = sim
        self.node = node
        self.prt = prt
        self.params = params
        if isinstance(lease_service, Node):
            self._lease_node_for = lambda _ino, n=lease_service: n
        else:
            self._lease_node_for = lease_service.node_for
        self.alloc = alloc
        self.name = node.name
        self.alive = True

        self.metatables: Dict[int, Metatable] = {}
        self.remotes: Dict[int, RemoteTable] = {}
        # Permission cache (pcache mode): dir ino -> (dir Inode, expiry)
        self.pcache: Dict[int, Tuple[Inode, float]] = {}
        self.pcache_dentries: Dict[Tuple[int, str], Tuple[Dentry, float]] = {}

        self._retry = RetryPolicy.from_params(sim, params)
        self.journal = JournalManager(sim, prt, params, node, self.name)
        # Packed small-file containers (off by default: self.pack stays
        # None and every data path is structurally unchanged).
        self.pack: Optional[PackWriter] = None
        if params.pack_enabled:
            self.pack = PackWriter(sim, prt, self.journal, node, params,
                                   self.name, self._leads_dir,
                                   retry=self._retry)
        self.cache = DataObjectCache(
            sim, prt, node,
            entry_size=params.data_object_size,
            capacity_bytes=params.cache_capacity_bytes,
            max_readahead=params.max_readahead,
            copy_bw=params.cache_copy_bw,
            fetch_parallel=params.fetch_parallel,
            writeback_parallel=params.writeback_parallel,
            retry=self._retry,
            pack=self.pack,
        )
        self.fleases = FileLeaseService(sim, params.file_lease_period,
                                        self._revoke_holder)
        self._open_dirs: Dict[int, int] = {}   # parent dir ino -> open handles
        self._acquiring: Dict[int, Any] = {}   # dir ino -> in-flight latch
        self._pending_names: Set[Tuple[int, str]] = set()
        self._pending_renames: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._rename_counter = 0
        self.op_stats: Dict[str, int] = {}

        # Elastic metadata plane (directory sharding). ``_split_busy`` is
        # None when shards are disabled, which keeps every dispatch path
        # structurally identical to a build without the shard subsystem.
        self._shard_maps: Dict[int, ShardMap] = {}    # parent ino -> map
        self._shard_home: Dict[int, Tuple[int, int]] = {}  # shard -> (parent, home)
        # Client population for shard-lease placement (set by build_arkfs;
        # empty = first-touch acquisition only). Names, not objects, so a
        # crashed-and-restarted peer stays addressable.
        self.peers: list = []
        self._split_busy: Optional[Dict[int, Any]] = \
            {} if params.shards_enabled else None
        self._splitters: Dict[int, Any] = {}   # dir ino -> split process
        self._dir_inflight: Dict[int, int] = {}
        self._mgr_epoch_seen: Dict[int, int] = {}
        # Epoch fencing (lease-manager cluster mode): stale-authority journal
        # commits are refused against the cluster's fencing registry.
        self._fencing = getattr(lease_service, "fencing", None)
        self._wire_fencing()

        # Multi-tenant QoS plane (off by default: both stay None and every
        # dispatch/data path is structurally unchanged; build_arkfs installs
        # the manager and a tenant when qos_enabled).
        self.qos = None
        self.tenant: Optional[str] = None
        self._qos_depth = 0  # admission applies to top-level ops only

        node.register("arkfs", self._h_dispatch)
        node.register("arkfs.cache_invalidate", self._h_cache_invalidate)
        self.journal.start_threads()
        self._keeper = sim.process(self._lease_keeper(),
                                   name=f"{self.name}.keeper")

    def bind_tenant(self, tenant: str) -> None:
        """Attribute subsequent ops from this client to ``tenant`` (the
        gateway model: one client fronting many tenants, switching between
        ops). Requires the QoS plane; per-op rebinding is safe as long as
        the client issues one foreground op at a time."""
        self.tenant = tenant
        self.node.tenant = tenant
        if self.qos is not None:
            self.qos.register_client(self.name, tenant)

    def _leads_dir(self, dir_ino: int) -> bool:
        """Do we currently hold this directory's metatable lease? (Extent
        deltas ride its journal when true; direct index RMW otherwise.)"""
        mt = self.metatables.get(dir_ino)
        return mt is not None and mt.lease_expires > self.sim.now

    def _wire_fencing(self) -> None:
        if self._fencing is not None:
            self.journal.fencing = self._fencing
            self.journal.token_of = self._fence_token

    def _fence_token(self, dir_ino: int) -> Tuple[int, int]:
        """Our fencing token for a directory's journal stream: the
        (manager-range epoch, directory epoch) of the lease we believe we
        hold. Lexicographically below any grant issued after a failover."""
        mt = self.metatables.get(dir_ino)
        if mt is None:
            return (0, 0)
        return (mt.mgr_epoch, mt.epoch)

    # ------------------------------------------------------------------ costs

    # Flat helpers returning Node.work's iterable: no frame per charge.

    def _charge_md_op(self) -> SimIter:
        return self.node.work(self.params.md_op_cpu)

    def _charge_lookup(self) -> SimIter:
        return self.node.work(self.params.lookup_cpu)

    def _charge_journal(self, n_entries: int,
                        dir_ino: Optional[int] = None) -> SimGen:
        yield from self.node.work(n_entries * self.params.journal_entry_cpu)
        if dir_ino is not None and self.journal.sync_commit:
            # Ablation A2: no compound-transaction buffering — every
            # metadata mutation commits its journal record immediately.
            yield from self.journal.flush(dir_ino)

    # ----------------------------------------------------------- RPC plumbing

    def _h_dispatch(self, opname: str, kwargs: Dict[str, Any]) -> SimGen:
        """Leader-side entry point for forwarded operations."""
        yield from self.node.work(self.params.rpc_handler_cpu)
        ctx = kwargs.pop("shard_ctx", None)
        if ctx is not None:
            # The caller routed this op to one of a sharded directory's
            # shards: learn the shard's identity (parent ino, home shard)
            # before the lease path tries to load an inode it doesn't have.
            self._shard_home.setdefault(kwargs["dir_ino"], tuple(ctx))
        return (yield from self._run_op(opname, kwargs))

    def _run_op(self, opname: str, kwargs: Dict[str, Any]) -> SimGen:
        """Invoke a leader-side op handler, honoring the split gate.

        With shards disabled this returns the handler's generator — no
        events, no state, no frame. With shards enabled, ops on a
        directory whose split is migrating dentries wait for the split to
        finish, and in-flight ops are counted so the splitter can drain
        them before freezing the range.
        """
        handler = getattr(self, "_op_" + opname)
        if self._split_busy is None:
            return handler(**kwargs)
        return self._run_op_gated(handler, kwargs)

    def _run_op_gated(self, handler, kwargs: Dict[str, Any]) -> SimGen:
        d = kwargs.get("dir_ino")
        while True:
            gate = self._split_busy.get(d)
            if gate is None:
                break
            yield gate
        self._dir_inflight[d] = self._dir_inflight.get(d, 0) + 1
        try:
            return (yield from handler(**kwargs))
        finally:
            n = self._dir_inflight.get(d, 1)
            if n <= 1:
                self._dir_inflight.pop(d, None)
            else:
                self._dir_inflight[d] = n - 1

    def _h_cache_invalidate(self, ino: int, deleted: bool = False) -> SimGen:
        """A leader revokes our cached data for a file (flush + drop).
        ``deleted`` means the file is being unlinked, not handed off."""
        yield from self.cache.invalidate(ino, flush_dirty=True,
                                         deleted=deleted)
        return True

    def _peer_call(self, leader: str, opname: str, **kwargs: Any) -> SimGen:
        """Forward an op to its leader: returns the RPC generator to
        ``yield from`` (an unknown leader raises at the call)."""
        target = self.node.net.nodes.get(leader)
        if target is None:
            raise NodeDown(f"unknown leader {leader}")
        kwargs.setdefault("requester", self.name)
        d = kwargs.get("dir_ino")
        if d is not None and d in self._shard_home:
            kwargs.setdefault("shard_ctx", self._shard_home[d])
        return self.node.call(target, "arkfs", opname, kwargs)

    def _mgr(self, method: str, *args: Any) -> SimGen:
        """Call the lease manager responsible for args[0] (a dir ino).

        Lost messages (fault injection) are retried with bounded exponential
        backoff — a dropped lease RPC must not surface as a dead manager.
        A genuinely dead manager still raises NodeDown immediately."""
        target = self._lease_node_for(args[0])
        return (yield from self._retry.call(
            lambda: self.node.call(target, method, *args),
            retry_on=(MessageDropped,)))

    # ------------------------------------------------------- lease acquisition

    def _acquire_dir(self, dir_ino: int) -> SimGen:
        """Become (or find) the directory's leader.

        Returns ``("local", metatable)``, ``("remote", leader_name)``, or —
        for a directory with an active shard map — ``("sharded", map)``:
        the caller must re-route the operation to one of the shards.
        """
        while True:
            now = self.sim.now
            if self._split_busy is not None:
                smap = self._shard_maps.get(dir_ino)
                if smap is not None:
                    return ("sharded", smap)
            mt = self.metatables.get(dir_ino)
            if mt is not None and mt.lease_expires > now:
                return ("local", mt)
            rt = self.remotes.get(dir_ino)
            if rt is not None and rt.valid(now):
                return ("remote", rt.leader)
            # Only one acquisition per directory may be in flight: a second
            # concurrent load could otherwise overwrite a metatable that has
            # already absorbed local mutations.
            latch = self._acquiring.get(dir_ino)
            if latch is not None:
                tr = self.sim._tracer
                if tr is not None:
                    with tr.span("lease.wait", "queue"):
                        yield latch
                else:
                    yield latch
                continue
            latch = self.sim.event()
            self._acquiring[dir_ino] = latch
            try:
                return (yield from self._acquire_dir_locked(dir_ino))
            finally:
                del self._acquiring[dir_ino]
                latch.succeed()

    def _acquire_dir_locked(self, dir_ino: int) -> SimGen:
        sp = _span(self.sim, "lease.acquire", "lease")
        try:
            return (yield from self._acquire_dir_inner(dir_ino))
        finally:
            sp.close()

    def _acquire_dir_inner(self, dir_ino: int) -> SimGen:
        while True:
            now = self.sim.now
            if self._split_busy is not None and dir_ino in self._shard_maps:
                return ("sharded", self._shard_maps[dir_ino])
            mt = self.metatables.get(dir_ino)
            if mt is not None and mt.lease_expires > now:
                return ("local", mt)
            rt = self.remotes.get(dir_ino)
            if rt is not None and rt.valid(now):
                return ("remote", rt.leader)
            if dir_ino in self._shard_home:
                # Shard-lease placement: route first-touch leadership by
                # consistent hash over the client population instead of
                # self-acquiring. Without this, the client that performs
                # the split (it alone already holds the map in memory)
                # wins the acquisition race for every shard and the
                # directory's metadata load stays on one node — exactly
                # the single-owner ceiling the split exists to break. A
                # known current holder (the remotes check above, or the
                # redirect below) always wins over the placement hint.
                pref = self._preferred_shard_leader(dir_ino)
                if pref is not None and pref != self.name:
                    return ("remote", pref)
            resp = yield from self._mgr("lease.acquire", dir_ino, self.name)
            if isinstance(resp, LeaseGrant):
                if resp.mgr_epoch < self._mgr_epoch_seen.get(dir_ino, 0):
                    # A grant from a deposed range authority, delayed in
                    # flight across a failover: never act on it.
                    yield self.sim.timeout(self.params.lease_retry_delay)
                    continue
                self._mgr_epoch_seen[dir_ino] = resp.mgr_epoch
                if resp.needs_recovery:
                    # Journal replay is idempotent, so transient store errors
                    # mid-recovery are absorbed by re-running it.
                    yield from self._retry.call(
                        lambda: recover_directory(self.prt, dir_ino,
                                                  src=self.node))
                    yield from self._mgr("lease.recovered", dir_ino, self.name)
                if not resp.fresh and mt is not None:
                    mt.lease_expires = resp.expires_at
                    mt.epoch = resp.epoch
                    mt.mgr_epoch = resp.mgr_epoch
                    return ("local", mt)
                # Shard tables have no inode of their own: the parent
                # directory's inode is the identity, the shard's key range
                # holds the dentries.
                shome = self._shard_home.get(dir_ino)
                base_ino = shome[0] if shome is not None else dir_ino
                try:
                    dir_inode = yield from self._retry.call(
                        lambda: self.prt.get_inode(base_ino, src=self.node))
                except NoSuchKey:
                    yield from self._mgr("lease.release", dir_ino, self.name,
                                         True)
                    raise NotFound(f"dir {dir_ino:x}", "directory removed")
                if self._split_busy is not None and shome is None:
                    smap = yield from self._retry.call(
                        lambda: self.prt.get_shard_map(dir_ino,
                                                       src=self.node))
                    if smap is not None:
                        if not smap.active:
                            # Interrupted split: we hold the parent lease
                            # (and recovery already ran), so roll forward.
                            smap = yield from self._retry.call(
                                lambda: roll_forward_split(self.prt, smap,
                                                           src=self.node))
                        self._cache_shard_map(smap)
                        yield from self._mgr("lease.release", dir_ino,
                                             self.name, True)
                        return ("sharded", smap)
                mt = yield from self._retry.call(
                    lambda: load_metatable(
                        self.prt, dir_inode, self.node,
                        resp.expires_at, resp.epoch,
                        list_ino=(dir_ino if shome is not None else None),
                        mgr_epoch=resp.mgr_epoch))
                self.metatables[dir_ino] = mt
                self.remotes.pop(dir_ino, None)
                self.pcache.pop(dir_ino, None)
                return ("local", mt)
            if isinstance(resp, LeaseRedirect):
                self.remotes[dir_ino] = RemoteTable(dir_ino, resp.leader,
                                                    resp.expires_at)
                return ("remote", resp.leader)
            assert isinstance(resp, LeaseWait)
            yield self.sim.timeout(
                max(resp.retry_at - self.sim.now,
                    self.params.lease_retry_delay)
            )

    def _ensure_leader(self, dir_ino: int) -> SimGen:
        """Leader-side revalidation; raises RedirectError if we are not it."""
        now = self.sim.now
        mt = self.metatables.get(dir_ino)
        if mt is not None and mt.lease_expires > now:
            mt.last_used = now
            mt_margin = mt.lease_expires - now
            if mt_margin < self.params.lease_renew_margin:
                sp = _span(self.sim, "lease.renew", "lease")
                try:
                    resp = yield from self._mgr("lease.acquire", dir_ino,
                                                self.name)
                finally:
                    sp.close()
                if isinstance(resp, LeaseGrant) and not resp.fresh:
                    mt.lease_expires = resp.expires_at
                elif isinstance(resp, LeaseRedirect):
                    self.metatables.pop(dir_ino, None)
                    raise RedirectError(dir_ino, resp.leader)
            return mt
        kind, who = yield from self._acquire_dir(dir_ino)
        if kind == "local":
            return who
        if kind == "sharded":
            # The directory split under us: callers re-route to a shard.
            raise RedirectError(dir_ino, None)
        raise RedirectError(dir_ino, who)

    def _authority_op(self, dir_ino: int, opname: str,
                      creds: Optional[Credentials], **kwargs: Any) -> SimGen:
        """Dispatch an authority op (see :meth:`_authority_op_core`),
        applying QoS admission + throttling to top-level ops when the QoS
        plane is installed. Plain function returning the generator to
        ``yield from``, whose value is the op's result."""
        if self.qos is None or self._qos_depth:
            return self._authority_op_core(dir_ino, opname, creds, kwargs,
                                           False)
        return self._authority_op_qos(dir_ino, opname, creds, kwargs, False)

    def _authority_op_where(self, dir_ino: int, opname: str,
                            creds: Optional[Credentials],
                            **kwargs: Any) -> SimGen:
        """:meth:`_authority_op` whose value is ``(result, where, at)``."""
        if self.qos is None or self._qos_depth:
            return self._authority_op_core(dir_ino, opname, creds, kwargs,
                                           True)
        return self._authority_op_qos(dir_ino, opname, creds, kwargs, True)

    def _authority_op_qos(self, dir_ino: int, opname: str,
                          creds: Optional[Credentials],
                          kwargs: Dict[str, Any], where: bool) -> SimGen:
        """QoS wrapper: ops token bucket + bounded in-flight admission
        (TenantBusy → EAGAIN, retried through the client retry policy),
        with the op's latency attributed to the tenant."""
        qos, tenant = self.qos, self.tenant
        yield from self._retry.call(lambda: qos.enter_op(tenant),
                                    retry_on=(TenantBusy,))
        t0 = self.sim.now
        self._qos_depth += 1
        try:
            result = yield from self._authority_op_core(
                dir_ino, opname, creds, kwargs, where)
        finally:
            self._qos_depth -= 1
            qos.exit_op(tenant)
            qos.observe_op(tenant, self.sim.now - t0)
        return result

    def _authority_op_core(self, dir_ino: int, opname: str,
                           creds: Optional[Credentials],
                           kwargs: Dict[str, Any], where: bool) -> SimGen:
        """Run an op at the directory's authority; retries across leader
        changes. Returns the op's result or, with ``where``, (result,
        leader_name_or_None_if_local, dir_ino the op actually ran against
        — the hash-routed shard when the directory is sharded, so a 2PC
        coordinator can address phase 2 to the same participant its
        prepare landed on).

        ``route_name`` (popped, never forwarded) routes ino-keyed ops on a
        sharded directory to the shard that owns the given name."""
        self.op_stats[opname] = self.op_stats.get(opname, 0) + 1
        route_name = kwargs.pop("route_name", None)
        # Unreachable peers and transient store errors back off exponentially
        # (bounded by the attempt budget); redirects retry immediately, since
        # they carry fresh routing information.
        backoff = self.params.lease_retry_delay
        for _attempt in range(16):
            kind, who = yield from self._acquire_dir(dir_ino)
            try:
                if kind == "sharded":
                    done = yield from self._route_sharded(who, opname, creds,
                                                          kwargs)
                    if done is None:
                        name = route_name or kwargs.get("name")
                        dir_ino = who.route(name) if name is not None \
                            else who.home_ino()
                        continue
                    result, who = done
                elif kind == "local":
                    result = yield from self._run_op(opname, dict(
                        creds=creds, dir_ino=dir_ino, requester=self.name,
                        **kwargs))
                    who = None
                else:
                    result = yield from self._peer_call(
                        who, opname, creds=creds, dir_ino=dir_ino, **kwargs)
                return (result, who, dir_ino) if where else result
            except RedirectError as e:
                self.metatables.pop(dir_ino, None)
                if e.leader and e.leader != self.name:
                    self.remotes[dir_ino] = RemoteTable(
                        dir_ino, e.leader,
                        self.sim.now + self.params.lease_period)
                else:
                    self.remotes.pop(dir_ino, None)
                    if (self._split_busy is not None
                            and dir_ino not in self._shard_maps):
                        # A leaderless redirect usually means "the directory
                        # split under me". The ACTIVE shard map is immutable
                        # and readable without the parent lease, so resolve
                        # it from the store directly — chasing the manager
                        # instead points us at a parade of transient
                        # parent-lease holders (every client briefly takes
                        # the lease to learn the map) and can exhaust the
                        # attempt budget under a concurrent split.
                        try:
                            smap = yield from self._retry.call(
                                lambda: self.prt.get_shard_map(
                                    dir_ino, src=self.node))
                        except TransientError:
                            smap = None
                        if smap is not None and smap.active:
                            self._cache_shard_map(smap)
            except NodeDown:
                self.remotes.pop(dir_ino, None)
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, self.params.lease_period)
            except TransientError:
                # The op-level retries (journal/cache/PRT) already gave up:
                # the outage outlasted one inner backoff ladder. Wait longer
                # and re-dispatch. Like any at-most-once RPC retry this can
                # observe the first attempt's partial effect (e.g. mkdir →
                # EEXIST), which callers must treat as success-ambiguity.
                self._retry.note_retry(backoff)
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, self.params.lease_period)
        raise IOFailure(detail=f"no stable authority for dir {dir_ino:x}")

    # -------------------------------------------------- directory sharding

    def _route_sharded(self, smap: ShardMap, opname: str,
                       creds: Optional[Credentials],
                       kwargs: Dict[str, Any]) -> SimGen:
        """Handle the ops that span a sharded directory's shards. Returns a
        finished ``(result, where)`` pair, or None when the op routes to a
        single shard (the caller re-dispatches there)."""
        if opname == "readdir":
            names: list = []
            for si in smap.shard_inos():
                part = yield from self._authority_op(si, "readdir", creds)
                names.extend(part)
            return (sorted(names), None)
        if opname == "rename_local":
            src_name, dst_name = kwargs["src_name"], kwargs["dst_name"]
            s_shard = smap.route(src_name)
            d_shard = smap.route(dst_name)
            if s_shard == d_shard:
                result = yield from self._authority_op(
                    s_shard, "rename_local", creds, src_name=src_name,
                    dst_name=dst_name)
                return (result, None)
            # The names hash to different shards: reuse the cross-directory
            # rename machinery (each shard has its own journal + lease).
            yield from self._rename_2pc(creds, s_shard, src_name,
                                        d_shard, dst_name)
            return (True, None)
        return None

    def _preferred_shard_leader(self, shard_ino: int) -> Optional[str]:
        """Placement for a shard's first-touch lease: the first live client
        walking a consistent-hash ring of the population (Ceph's
        dirfrag-to-MDS assignment, client-driven). Deterministic, so every
        client forwards a given shard's traffic to the same peer and the
        fanout spreads one hot directory's load across the fleet; a dead
        peer is skipped (the lease manager's FCFS grant remains the only
        authority — this is a routing hint, never a grant)."""
        peers = self.peers
        if not peers:
            return None
        start = zlib.crc32(ino_hex(shard_ino).encode()) % len(peers)
        for k in range(len(peers)):
            name = peers[(start + k) % len(peers)]
            if name == self.name:
                return name
            node = self.node.net.nodes.get(name)
            if node is not None and node.alive:
                return name
        return None

    def _cache_shard_map(self, smap: ShardMap) -> None:
        self._shard_maps[smap.dir_ino] = smap
        home = smap.home_ino()
        for r in smap.shards:
            self._shard_home[r.ino] = (smap.dir_ino, home)

    def _drop_shard_map(self, dir_ino: int) -> None:
        smap = self._shard_maps.pop(dir_ino, None)
        if smap is not None:
            for si in smap.shard_inos():
                self._shard_home.pop(si, None)

    def _maybe_split(self, mt: Metatable) -> None:
        """Create-path hook: kick off a background split once a directory
        we lead crosses the dentry threshold. Synchronous and a no-op
        unless shards are enabled."""
        if (self._split_busy is None or mt.is_shard
                or len(mt.dentries) < self.params.shard_split_threshold
                or mt.dir_ino in self._split_busy
                or mt.dir_ino in self._shard_maps):
            return
        d = mt.dir_ino
        self._split_busy[d] = self.sim.event()
        self._splitters[d] = self.sim.process(
            self._split_dir(d), name=f"{self.name}.split:{d:x}")

    def _split_dir(self, d: int) -> SimGen:
        """The two-phase directory split (see :mod:`repro.core.shards`).

        Runs under the parent lease we already hold. The ``_split_busy``
        gate (set by :meth:`_maybe_split`) holds new operations on the
        directory while in-flight ones drain; from the splitting-map PUT
        onward the parent range is frozen, so a failure anywhere after that
        point simply abandons the parent (the next lease holder rolls the
        split forward). Failures before the map PUT abort cleanly: the
        parent stays authoritative and nothing was published.
        """
        published = False
        try:
            while self._dir_inflight.get(d, 0) > 0:
                yield self.sim.timeout(0.0005)
            mt = self.metatables.get(d)
            now = self.sim.now
            if (mt is None
                    or mt.lease_expires - now < 2 * self.params.lease_renew_margin
                    or len(mt.dentries) < self.params.shard_split_threshold
                    or d in self._shard_maps
                    or any(di == d for _tx, di in self._pending_renames)
                    or any(di == d for di, _n in self._pending_names)):
                return
            # File leases move with the files to the shard leaders — the
            # same contract as cross-directory rename (see
            # ``_op_rename_prepare_src``). Revoke every holder while the
            # parent is still the sole authority: that flushes their dirty
            # write-back data, so no client survives the split holding a
            # grant (and stale cached bytes) the shard leaders never hear
            # about.
            for dn in list(mt.dentries.values()):
                if dn.ftype is FileType.REGULAR:
                    yield from self._revoke_all_holders(dn.ino)
                    self.fleases.forget_file(dn.ino)
            # Phase 0: store == metatable for this directory.
            yield from self.journal.flush(d, full=True)
            shards = [ShardRange(self.alloc.new(), lo, hi)
                      for lo, hi in make_ranges(self.params.shard_fanout)]
            smap = ShardMap(d, ShardMap.SPLITTING, shards)
            # Phase 1: publish the splitting map (parent still authoritative,
            # but its range is frozen from here on).
            yield from self._retry.call(
                lambda: self.prt.put_shard_map(smap, src=self.node))
            published = True
            # Phase 2 + commit: migrate ranges, then activate atomically.
            smap = yield from self._retry.call(
                lambda: roll_forward_split(self.prt, smap, src=self.node))
            self._cache_shard_map(smap)
        except (FSError, TransientError, MessageDropped, NodeDown,
                Interrupt):
            # Abort (pre-publish: parent keeps serving), abandon
            # (post-publish: the next lease holder rolls forward), or die
            # with the client (crash interrupts the splitter).
            pass
        finally:
            self._splitters.pop(d, None)
            if published and self.alive:
                # Success or not, the parent range is retired: drop our
                # parent state so the next acquire re-resolves (and, if the
                # activation PUT never landed, rolls the split forward).
                self.metatables.pop(d, None)
                self.journal.drop(d)
                try:
                    yield from self._mgr("lease.release", d, self.name, True)
                except NodeDown:
                    pass
            if self._split_busy is not None:
                ev = self._split_busy.pop(d, None)
                if ev is not None and not ev.triggered:
                    ev.succeed()

    # ------------------------------------------------------------- resolution

    def _lookup_component(self, creds: Optional[Credentials], dir_ino: int,
                          name: str) -> SimGen:
        """Resolve one name in one directory (Dentry)."""
        now = self.sim.now
        mt = self.metatables.get(dir_ino)
        if mt is not None and mt.lease_expires > now:
            mt.last_used = now
            yield from self._charge_lookup()
            self._check_dir_perm(mt, creds, X_OK)
            return mt.lookup(name)
        if self.params.permission_cache:
            pc = self.pcache.get(dir_ino)
            pd = self.pcache_dentries.get((dir_ino, name))
            if pc is not None and pc[1] > now and pd is not None and pd[1] > now:
                yield from self._charge_lookup()
                pi = pc[0]
                if creds is not None and not check_perm(
                    pi.acl, pi.mode, pi.uid, pi.gid, creds, X_OK
                ):
                    raise PermissionDenied(f"dir {dir_ino:x}")
                return pd[0]
        dentry_d, dir_inode_d = yield from self._authority_op(
            dir_ino, "lookup", creds, name=name)
        dentry = Dentry.from_dict(dentry_d)
        if self.params.permission_cache and dir_ino not in self.metatables:
            exp = now + self.params.lease_period
            self.pcache[dir_ino] = (Inode.from_dict(dir_inode_d), exp)
            self.pcache_dentries[(dir_ino, name)] = (dentry, exp)
        return dentry

    def _walk_dirs(self, creds: Optional[Credentials], parts: list,
                   last: Optional[str] = None) -> SimGen:
        """Resolve a component list to a directory ino, following symlinks.
        With ``last``, returns ``(ino, last)`` (see :meth:`_resolve_parent`)."""
        depth = 0
        cur = ROOT_INO
        parts = list(parts)
        i = 0
        while i < len(parts):
            name = parts[i]
            dentry = yield from self._lookup_component(creds, cur, name)
            if dentry.ftype is FileType.DIRECTORY:
                cur = dentry.ino
                i += 1
                continue
            if dentry.ftype is FileType.SYMLINK:
                depth += 1
                if depth > self.params.symlink_max_follow:
                    raise TooManySymlinks(name)
                target = yield from self._authority_op(
                    cur, "readlink", creds, name=name)
                rest = parts[i + 1:]
                tparts, cur = self._expand_symlink(target, cur)
                parts = tparts + rest
                i = 0
                continue
            raise NotADirectory(name)
        return cur if last is None else (cur, last)

    def _expand_symlink(self, target: str, cur: int):
        """Split a symlink target; absolute targets restart at the root."""
        if target.startswith("/"):
            return pathmod.split_path(target), ROOT_INO
        comps = [c for c in target.split("/") if c and c != "."]
        if ".." in comps:
            raise UnsupportedOperation(
                target, "relative symlink targets with '..' are unsupported")
        return comps, cur

    def _resolve_parent(self, creds: Optional[Credentials],
                        path: str) -> SimGen:
        """Walk to ``path``'s parent: the generator's value is
        ``(parent_ino, final_name)``. A path without a parent raises here."""
        parts = pathmod.split_path(path)
        if not parts:
            raise InvalidArgument(path, "operation needs a parent directory")
        return self._walk_dirs(creds, parts[:-1], parts[-1])

    def _getattr_inode(self, creds: Optional[Credentials], path: str,
                       follow: bool, stat: bool = False) -> SimGen:
        """The full Inode of the path's final target, or with ``stat`` its
        StatResult (stat/lstat core)."""
        parts = pathmod.split_path(path)
        if not parts:
            d = yield from self._authority_op(ROOT_INO, "getattr_dir", creds)
            return _inode_or_stat(d, stat)
        parent = yield from self._walk_dirs(creds, parts[:-1])
        name = parts[-1]
        depth = 0
        for _hop in range(4):
            dentry = yield from self._lookup_component(creds, parent, name)
            if dentry.ftype is FileType.DIRECTORY:
                d = yield from self._authority_op(dentry.ino, "getattr_dir",
                                                  creds)
                return _inode_or_stat(d, stat)
            if dentry.ftype is FileType.SYMLINK and follow:
                if depth >= self.params.symlink_max_follow:
                    raise TooManySymlinks(path)
                target = yield from self._authority_op(
                    parent, "readlink", creds, name=name)
                tparts, base = self._expand_symlink(target, parent)
                if not tparts:
                    d = yield from self._authority_op(base, "getattr_dir",
                                                      creds)
                    return _inode_or_stat(d, stat)
                parent = yield from self._walk_dirs_from(creds, base,
                                                         tparts[:-1])
                name = tparts[-1]
                depth += 1
                continue
            d = yield from self._authority_op(parent, "getattr_child", creds,
                                              name=name)
            if isinstance(d, dict) and "redirect_dir" in d:
                d = yield from self._authority_op(d["redirect_dir"],
                                                  "getattr_dir", creds)
            return _inode_or_stat(d, stat)
        raise TooManySymlinks(path)

    def _walk_dirs_from(self, creds, base: int, parts: list) -> SimGen:
        cur = base
        for name in parts:
            dentry = yield from self._lookup_component(creds, cur, name)
            if dentry.ftype is not FileType.DIRECTORY:
                raise NotADirectory(name)
            cur = dentry.ino
        return cur

    def _drop_authority_hints(self, dir_ino: int) -> None:
        """Forget everything we believed about a removed/moved directory."""
        self.remotes.pop(dir_ino, None)
        self.pcache.pop(dir_ino, None)
        self._drop_shard_map(dir_ino)
        for key in [k for k in self.pcache_dentries if k[0] == dir_ino]:
            del self.pcache_dentries[key]

    # ------------------------------------------------------------ VFS: namespace

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            raise AlreadyExists("/")
        parent, name = yield from self._resolve_parent(creds, path)
        yield from self._authority_op(parent, "mkdir", creds, name=name,
                                      mode=mode)

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            raise InvalidArgument("/", "cannot rmdir the root")
        parent, name = yield from self._resolve_parent(creds, path)
        yield from self._authority_op(parent, "rmdir", creds, name=name)
        self.pcache_dentries.pop((parent, name), None)

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        parts = pathmod.split_path(path)
        dir_ino = yield from self._walk_dirs(creds, parts)
        return (yield from self._authority_op(dir_ino, "readdir", creds))

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        parent, name = yield from self._resolve_parent(creds, path)
        ino = yield from self._authority_op(parent, "unlink", creds, name=name)
        self.pcache_dentries.pop((parent, name), None)
        if isinstance(ino, int):
            yield from self.cache.invalidate(ino, flush_dirty=False,
                                             deleted=True)

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        src_n, dst_n = pathmod.normalize(src), pathmod.normalize(dst)
        if src_n == dst_n:
            if src_n == "/":
                raise InvalidArgument(src, "cannot rename the root")
            # rename(x, x) is a no-op only if x exists (POSIX).
            sp0, sname0 = yield from self._resolve_parent(creds, src_n)
            yield from self._lookup_component(creds, sp0, sname0)
            return
        if src_n == "/" or dst_n == "/":
            raise InvalidArgument(src, "cannot rename the root")
        if pathmod.is_ancestor(src_n, dst_n):
            raise InvalidArgument(dst, "destination is inside the source")
        sp, sname = yield from self._resolve_parent(creds, src_n)
        dp, dname = yield from self._resolve_parent(creds, dst_n)
        if sp == dp:
            yield from self._authority_op(sp, "rename_local", creds,
                                          src_name=sname, dst_name=dname)
        else:
            yield from self._rename_2pc(creds, sp, sname, dp, dname)
        self.pcache_dentries.pop((sp, sname), None)
        self.pcache_dentries.pop((dp, dname), None)

    def _rename_2pc(self, creds: Credentials, sp: int, sname: str, dp: int,
                    dname: str) -> SimGen:
        """Coordinator for a cross-directory rename (Section III-E)."""
        self._rename_counter += 1
        txid = f"{self.name}-rn-{self._rename_counter:06d}"
        dkey = self.prt.key_decision(txid)
        # Capture the ino each prepare actually ran against: on a sharded
        # directory that is the hash-routed shard, and phase 2 must address
        # the SAME participant (its journal holds the prepared txn).
        payload, src_leader, sp = yield from self._authority_op_where(
            sp, "rename_prepare_src", creds, name=sname, txid=txid,
            decision_key=dkey)
        try:
            _dst, dst_leader, dp = yield from self._authority_op_where(
                dp, "rename_prepare_dst", creds, name=dname, payload=payload,
                txid=txid, decision_key=dkey)
        except FSError:
            yield from self._retry.call(
                lambda: self.prt.store.put_if_absent(dkey, DECISION_ABORT,
                                                     src=self.node))
            yield from self._finish_participant(sp, src_leader, txid, False)
            raise
        won = yield from self._retry.call(
            lambda: self.prt.store.put_if_absent(dkey, DECISION_COMMIT,
                                                 src=self.node))
        if won:
            commit = True
        else:
            value = yield from self._retry.call(
                lambda: self.prt.store.get(dkey, src=self.node))
            commit = value == DECISION_COMMIT
        src_done = yield from self._finish_participant(sp, src_leader, txid,
                                                       commit)
        dst_done = yield from self._finish_participant(dp, dst_leader, txid,
                                                       commit)
        # The decision record may only die once nothing can consult it. If a
        # participant's phase 2 failed (leader churn), its journal still
        # holds the prepared transaction — recovery will resolve it against
        # this record, and deleting it now would let recovery write a fresh
        # "abort" after the other side already committed.
        if src_done and dst_done:
            try:
                yield from self._retry.call(
                    lambda: self.prt.store.delete(dkey, src=self.node))
            except NoSuchKey:
                pass
        if not commit:
            raise IOFailure(detail=f"rename {txid} aborted by recovery")

    def _finish_participant(self, dir_ino: int, leader: Optional[str],
                            txid: str, commit: bool) -> SimGen:
        """Phase 2 at one participant; tolerant of leader churn (the journal
        + decision record make recovery reach the same outcome). Returns
        True when the participant definitely resolved its prepared txn."""
        try:
            if leader is None:
                yield from self._run_op("rename_finish", dict(
                    creds=None, dir_ino=dir_ino, txid=txid, commit=commit,
                    requester=self.name))
            else:
                yield from self._peer_call(leader, "rename_finish",
                                           creds=None, dir_ino=dir_ino,
                                           txid=txid, commit=commit)
        except (NodeDown, RedirectError, FSError):
            return False
        return True

    # -------------------------------------------------------------- VFS: stat

    def stat(self, creds: Credentials, path: str) -> SimGen:
        return self._getattr_inode(creds, path, follow=True, stat=True)

    def lstat(self, creds: Credentials, path: str) -> SimGen:
        return self._getattr_inode(creds, path, follow=False, stat=True)

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        inode = yield from self._getattr_inode(creds, path, follow=True)
        if want == F_OK:
            return True
        return check_perm(inode.acl, inode.mode, inode.uid, inode.gid,
                          creds, want)

    # -------------------------------------------------------- VFS: open & data

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            raise IsADirectory("/")
        cur_path = path
        for _hop in range(self.params.symlink_max_follow):
            parent, name = yield from self._resolve_parent(creds, cur_path)
            info = yield from self._authority_op(
                parent, "open", creds, name=name, flags=int(flags), mode=mode)
            if "symlink" in info:
                target = info["symlink"]
                if target.startswith("/"):
                    cur_path = target
                else:
                    base, _ = pathmod.parent_and_name(
                        pathmod.normalize(cur_path))
                    cur_path = base.rstrip("/") + "/" + target
                continue
            inode = Inode.from_dict(info["inode"])
            if self.pack is not None and inode.ftype is FileType.REGULAR:
                self.pack.note_file_dir(inode.ino, parent)
            handle = FileHandle(inode.ino, flags, creds)
            handle.impl = OpenState(
                parent_ino=parent, name=name, size=inode.size,
                mtime=inode.mtime, lease=info.get("lease"),
            )
            if flags & OpenFlags.O_APPEND:
                handle.pos = inode.size
            self._open_dirs[parent] = self._open_dirs.get(parent, 0) + 1
            return handle
        raise TooManySymlinks(path)

    def _check_handle(self, handle: FileHandle) -> None:
        if handle.closed or not isinstance(handle.impl, OpenState):
            raise BadFileHandle(detail="handle closed or foreign")

    def _file_lease(self, handle: FileHandle, want: str) -> SimGen:
        """Ensure a valid (and sufficient) data lease for this handle."""
        st: OpenState = handle.impl
        g = st.lease
        now = self.sim.now
        if (g is not None and g.expires_at > now
                and not (want == WRITE and g.mode == READ)):
            return g
        sp = _span(self.sim, "lease.file", "lease")
        try:
            resp = yield from self._authority_op(
                st.parent_ino, "flease", None, ino=handle.ino, mode=want,
                route_name=st.name)
        finally:
            sp.close()
        grant: FileLeaseGrant = resp if isinstance(resp, FileLeaseGrant) \
            else resp["grant"]
        if g is None or grant.version != g.version:
            # We may have missed a revocation while our lease was lapsed:
            # any cached data is suspect.
            yield from self.cache.invalidate(handle.ino, flush_dirty=False)
        st.lease = grant
        return grant

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        self._check_handle(handle)
        if not handle.flags.wants_read:
            raise BadFileHandle(detail="not open for reading")
        st: OpenState = handle.impl
        pos = handle.pos if offset is None else offset
        grant = yield from self._file_lease(handle, READ)
        eff = max(0, min(size, st.size - pos))
        if self.qos is not None:
            yield from self.qos.throttle_bytes(self.tenant, eff)
        if eff == 0:
            data = b""
        elif grant.mode == DIRECT:
            data = yield from self.prt.read_data(handle.ino, pos, eff,
                                                 st.size, src=self.node)
        else:
            data = yield from self.cache.read(handle.ino, pos, eff, ra=st.ra)
        if offset is None:
            handle.pos = pos + len(data)
        return data

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        self._check_handle(handle)
        if not handle.flags.wants_write:
            raise BadFileHandle(detail="not open for writing")
        st: OpenState = handle.impl
        if handle.flags & OpenFlags.O_APPEND:
            pos = st.size
        else:
            pos = handle.pos if offset is None else offset
        grant = yield from self._file_lease(handle, WRITE)
        if self.qos is not None:
            yield from self.qos.throttle_bytes(self.tenant, len(data))
        if grant.mode == DIRECT:
            yield from self.prt.write_data(handle.ino, pos, data,
                                           src=self.node)
            st.size = max(st.size, pos + len(data))
            st.mtime = self.sim.now
            yield from self._authority_op(
                st.parent_ino, "update_inode", None, ino=handle.ino,
                size=st.size, mtime=st.mtime, route_name=st.name)
        else:
            yield from self.cache.write(handle.ino, pos, data,
                                        old_size=st.size)
            st.size = max(st.size, pos + len(data))
            st.mtime = self.sim.now
            st.wrote = True
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def fsync(self, handle: FileHandle) -> SimGen:
        self._check_handle(handle)
        st: OpenState = handle.impl
        yield from self.cache.flush(handle.ino)
        if st.wrote:
            yield from self._authority_op(
                st.parent_ino, "update_inode", None, ino=handle.ino,
                size=st.size, mtime=st.mtime, route_name=st.name)
            st.wrote = False
        yield from self._authority_op(st.parent_ino, "fsync_dir", None,
                                      route_name=st.name)

    def close(self, handle: FileHandle) -> SimGen:
        self._check_handle(handle)
        st: OpenState = handle.impl
        if st.wrote:
            # Publish size/mtime at the leader; data stays write-back cached.
            try:
                yield from self._authority_op(
                    st.parent_ino, "update_inode", None, ino=handle.ino,
                    size=st.size, mtime=st.mtime, route_name=st.name)
            except NotFound:
                pass  # file unlinked while open: nothing to publish
            st.wrote = False
        else:
            yield self.sim.timeout(0)
        handle.closed = True
        n = self._open_dirs.get(st.parent_ino, 1)
        if n <= 1:
            self._open_dirs.pop(st.parent_ino, None)
        else:
            self._open_dirs[st.parent_ino] = n - 1

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        yield from self._setattr(creds, path, {"size": size})

    # --------------------------------------------------------- VFS: attributes

    def _setattr(self, creds: Credentials, path: str,
                 changes: Dict[str, Any]) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            result = yield from self._authority_op(
                ROOT_INO, "setattr", creds, name=None, changes=changes)
            self.pcache.pop(ROOT_INO, None)
            return Inode.from_dict(result)
        parent, name = yield from self._resolve_parent(creds, path)
        dentry = yield from self._lookup_component(creds, parent, name)
        if dentry.ftype is FileType.DIRECTORY:
            result = yield from self._authority_op(
                dentry.ino, "setattr", creds, name=None, changes=changes)
            self.pcache.pop(dentry.ino, None)
        else:
            result = yield from self._authority_op(
                parent, "setattr", creds, name=name, changes=changes)
            if isinstance(result, dict) and "redirect_dir" in result:
                result = yield from self._authority_op(
                    result["redirect_dir"], "setattr", creds, name=None,
                    changes=changes)
        return Inode.from_dict(result)

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        yield from self._setattr(creds, path, {"mode": mode})

    def chown(self, creds: Credentials, path: str, uid: int,
              gid: int) -> SimGen:
        yield from self._setattr(creds, path, {"uid": uid, "gid": gid})

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        yield from self._setattr(creds, path, {"times": (atime, mtime)})

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        inode = yield from self._getattr_inode(creds, path, follow=True)
        return inode.acl.copy() if inode.acl else Acl.from_mode(inode.mode)

    def setfacl(self, creds: Credentials, path: str, acl: Acl) -> SimGen:
        yield from self._setattr(creds, path, {"acl": acl.to_dict()})

    # ------------------------------------------------------------- VFS: links

    def symlink(self, creds: Credentials, target: str,
                linkpath: str) -> SimGen:
        parent, name = yield from self._resolve_parent(creds, linkpath)
        yield from self._authority_op(parent, "symlink", creds, name=name,
                                      target=target)

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        parent, name = yield from self._resolve_parent(creds, path)
        return (yield from self._authority_op(parent, "readlink", creds,
                                              name=name))

    def statfs(self, creds: Credentials) -> SimGen:
        """statfs(2): usage from the object store (one HEAD-weight round
        trip; counts come from the backend's accounting)."""
        yield from self._charge_md_op()
        usage = getattr(self.prt.store, "usage", None)
        if usage is None:
            raise UnsupportedOperation(detail="backend reports no usage")
        n_objects, used = usage()
        capacity = int(getattr(self.prt.store, "capacity_bytes", 8e12))
        bsize = 4096
        total_blocks = capacity // bsize
        used_blocks = -(-used // bsize)
        from ..posix.types import StatFSResult

        return StatFSResult(f_bsize=bsize, f_blocks=total_blocks,
                            f_bfree=max(0, total_blocks - used_blocks),
                            f_files=n_objects)

    # ---------------------------------------------------------------- durability

    def sync(self) -> SimGen:
        """Flush all dirty data and force-commit every journal (syncfs)."""
        yield from self.cache.flush_all()
        yield from self.journal.flush_all()

    def drop_caches(self) -> SimGen:
        """Flush then drop all cached data (fio's between-phase cache drop)."""
        yield from self.cache.drop_all()

    # --------------------------------------------------------- background upkeep

    def _lease_keeper(self) -> SimGen:
        """Extend in-use leases ahead of expiry; flush + release idle ones."""
        interval = max(self.params.lease_renew_margin / 2, 0.1)
        try:
            while self.alive:
                yield self.sim.timeout(interval)
                now = self.sim.now
                for dir_ino in list(self.metatables):
                    mt = self.metatables.get(dir_ino)
                    if mt is None:
                        continue
                    remaining = mt.lease_expires - now
                    if remaining > self.params.lease_renew_margin:
                        continue
                    if remaining <= 0:
                        # Lapsed: too late to safely write anything (a new
                        # leader may already exist). Discard local state.
                        self.metatables.pop(dir_ino, None)
                        self.journal.journals.pop(dir_ino, None)
                        continue
                    in_use = (
                        self.journal.is_dirty(dir_ino)
                        or self._open_dirs.get(dir_ino, 0) > 0
                        or now - mt.last_used < self.params.lease_period
                    )
                    if in_use:
                        sp = _span(self.sim, "lease.renew", "lease")
                        try:
                            resp = yield from self._mgr("lease.acquire",
                                                        dir_ino, self.name)
                        except NodeDown:
                            sp.close()
                            # Manager unreachable: "do its best to
                            # synchronize all the updates in memory before
                            # the lease is expired" (Section III-E).
                            yield from self._flush_dir_state(dir_ino)
                            continue
                        sp.close()
                        if isinstance(resp, LeaseGrant):
                            mt.lease_expires = resp.expires_at
                        else:
                            yield from self._flush_dir_state(dir_ino)
                            self.metatables.pop(dir_ino, None)
                    else:
                        yield from self._release_dir(dir_ino)
        except Interrupt:
            return

    def _flush_dir_state(self, dir_ino: int) -> SimGen:
        """Make a directory's in-memory state durable while the lease still
        holds: dirty file data first, then the journal."""
        mt = self.metatables.get(dir_ino)
        if mt is not None:
            yield from self.cache.flush_many(list(mt.inodes))
        yield from self.journal.flush(dir_ino)

    def _release_dir(self, dir_ino: int) -> SimGen:
        """Cleanly flush and surrender a directory we lead."""
        mt = self.metatables.pop(dir_ino, None)
        if mt is None:
            return
        # A clean release must leave the journal empty: the next leader gets
        # a no-recovery grant and loads the base objects directly.
        yield from self.journal.flush(dir_ino, full=True)
        self.journal.drop(dir_ino)
        for ino in list(mt.inodes):
            self.fleases.forget_file(ino)
        sp = _span(self.sim, "lease.release", "lease")
        try:
            yield from self._mgr("lease.release", dir_ino, self.name, True)
        except NodeDown:
            pass  # manager down: the lease will simply lapse
        finally:
            sp.close()

    def _revoke_holder(self, holder: str, ino: int,
                       deleted: bool = False) -> SimGen:
        """FileLeaseService callback: make one holder flush + drop a file."""
        if holder == self.name:
            yield from self.cache.invalidate(ino, flush_dirty=True,
                                             deleted=deleted)
            return
        target = self.node.net.nodes.get(holder)
        if target is None:
            raise NodeDown(holder)
        yield from self.node.call(target, "arkfs.cache_invalidate", ino,
                                  deleted)

    # ------------------------------------------------------------ failure injection

    def crash(self) -> None:
        """Sudden client failure: all volatile state is lost."""
        self.alive = False
        self.node.crash()
        self.journal.stop()
        self.cache.discard_all()
        if self.pack is not None:
            self.pack.discard()
        self.metatables.clear()
        self.remotes.clear()
        self.pcache.clear()
        self.pcache_dentries.clear()
        self._pending_names.clear()
        self._pending_renames.clear()
        self._open_dirs.clear()
        for latch in self._acquiring.values():
            if not latch.triggered:
                latch.succeed()
        self._acquiring.clear()
        self._shard_maps.clear()
        self._shard_home.clear()
        self._mgr_epoch_seen.clear()
        self._dir_inflight.clear()
        for proc in list(self._splitters.values()):
            proc.interrupt("crash")
        self._splitters.clear()
        if self._split_busy is not None:
            for ev in self._split_busy.values():
                if not ev.triggered:
                    ev.succeed()
            self._split_busy.clear()
        self.fleases.files.clear()
        if self.qos is not None:
            # Ops abandoned mid-throttle never reach their exit_op; drop
            # the tenant's in-flight accounting so recovery isn't starved.
            self.qos.release_tenant(self.tenant)
            self._qos_depth = 0
        self._keeper.interrupt("crash")

    def restart(self) -> None:
        """Bring the crashed client back with empty caches."""
        self.alive = True
        self.node.restart()
        self.journal = JournalManager(self.sim, self.prt, self.params,
                                      self.node, self.name)
        self._wire_fencing()
        self.journal.start_threads()
        if self.pack is not None:
            self.pack.restart(self.journal)
        self._keeper = self.sim.process(self._lease_keeper(),
                                        name=f"{self.name}.keeper")
