"""S3FS baseline: a FUSE wrapper mapping each object to a file.

Models the behaviours the paper calls out (Section II-C and IV-B):

* each object's key is the full pathname, so renaming a directory rewrites
  every object under it;
* random writes or appends rewrite the entire object (GET whole + PUT
  whole);
* data is staged through a *disk cache* — a slow EBS volume — on both the
  write path (writes land on disk, upload happens at fsync/flush) and the
  read path (objects are downloaded to disk before serving reads). This
  disk staging is what costs S3FS 5.95x WRITE / 3.59x READ vs ArkFS in
  Fig. 6(b);
* permission checks are "not done rigorously" and there is no coordination
  between clients mounting the same bucket — faithfully reproduced by
  checking nothing and coordinating nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..objectstore.cluster import LocalDisk
from ..objectstore.errors import NoSuchKey
from ..objectstore.profiles import DiskProfile, EBS_SLOW_CACHE
from ..posix import path as pathmod
from ..posix.errors import (
    AlreadyExists,
    BadFileHandle,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
    UnsupportedOperation,
)
from ..posix.types import Credentials, FileType, OpenFlags, StatResult
from ..posix.vfs import FileHandle, VFSClient
from ..sim.engine import SimGen, Simulator
from ..sim.network import Node
from .s3common import Bucket, FileAttrs, dir_key_of, key_of, list_names

__all__ = ["S3FSClient"]


@dataclass
class _Staged:
    """A file staged in the disk cache."""

    data: bytearray
    dirty: bool = False


class S3FSClient(VFSClient):
    """One s3fs mount of a bucket."""

    def __init__(self, sim: Simulator, node: Node, bucket: Bucket,
                 disk_profile: DiskProfile = EBS_SLOW_CACHE,
                 op_cpu: float = 8e-6):
        self.sim = sim
        self.node = node
        self.bucket = bucket
        self.store = bucket.store
        self.disk = LocalDisk(sim, disk_profile, name=f"{node.name}.s3fs-cache")
        self.op_cpu = op_cpu
        self.name = node.name
        self._staged: Dict[str, _Staged] = {}

    # -- helpers ------------------------------------------------------------------

    def _cpu(self) -> SimGen:
        yield from self.node.work(self.op_cpu)

    def _attrs(self, key: str, default_type=FileType.REGULAR,
               size: int = 0) -> FileAttrs:
        a = self.bucket.attrs.get(key)
        if a is None:
            a = FileAttrs(ftype=default_type, mode=0o777, uid=0, gid=0,
                          mtime=self.sim.now)
        return a

    def _stat_of(self, key: str, size: int, ftype: FileType) -> StatResult:
        a = self._attrs(key, ftype)
        return StatResult(
            st_ino=hash(key) & 0x7FFFFFFF, st_mode=a.ftype.mode_bits | a.mode,
            st_nlink=1, st_uid=a.uid, st_gid=a.gid, st_size=size,
            st_atime=a.mtime, st_mtime=a.mtime, st_ctime=a.mtime,
        )

    def _head(self, path: str) -> SimGen:
        """Returns (key, size, ftype) or raises NotFound. Directories are
        marker objects; the bucket root always exists."""
        parts = pathmod.split_path(path)
        if not parts:
            yield self.sim.timeout(0)
            return "", 0, FileType.DIRECTORY
        key = key_of(path)
        try:
            size = yield from self.store.head(key, src=self.node)
            a = self.bucket.attrs.get(key)
            ftype = a.ftype if a else FileType.REGULAR
            return key, size, ftype
        except NoSuchKey:
            pass
        dkey = dir_key_of(path)
        try:
            yield from self.store.head(dkey, src=self.node)
            return dkey, 0, FileType.DIRECTORY
        except NoSuchKey:
            raise NotFound(path) from None

    #: s3fs downloads big objects with parallel ranged GETs
    #: (multipart_size=10MB, parallel_count=5 by default).
    DOWNLOAD_CHUNK = 10 * 1024 * 1024
    DOWNLOAD_PARALLEL = 5

    def _stage_download(self, key: str, size: int) -> SimGen:
        """Download the whole object (parallel ranged GETs) and write it
        through the disk cache."""
        staged = self._staged.get(key)
        if staged is not None:
            return staged
        if size <= self.DOWNLOAD_CHUNK:
            data = yield from self.store.get(key, src=self.node)
        else:
            pieces: dict = {}

            def fetch(idx: int, off: int, n: int) -> SimGen:
                pieces[idx] = yield from self.store.get_range(
                    key, off, n, src=self.node)

            offsets = list(range(0, size, self.DOWNLOAD_CHUNK))
            for batch_start in range(0, len(offsets), self.DOWNLOAD_PARALLEL):
                batch = offsets[batch_start:batch_start +
                                self.DOWNLOAD_PARALLEL]
                procs = [
                    self.sim.process(fetch(i, off,
                                           min(self.DOWNLOAD_CHUNK,
                                               size - off)))
                    for i, off in enumerate(batch, start=batch_start)
                ]
                yield self.sim.all_of(procs)
            data = b"".join(pieces[i] for i in range(len(offsets)))
        yield from self.disk.write(len(data))
        staged = _Staged(bytearray(data))
        self._staged[key] = staged
        return staged

    # -- namespace ---------------------------------------------------------------------

    def lookup(self, creds: Credentials, dir_path: str, name: str) -> SimGen:
        return self.stat(creds, pathmod.join(dir_path, name))

    def stat(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key, size, ftype = yield from self._head(path)
        return self._stat_of(key, size, ftype)

    lstat = stat  # s3fs resolves symlinks only on open/read

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        yield from self._cpu()
        parts = pathmod.split_path(path)
        if not parts:
            raise AlreadyExists("/")
        try:
            yield from self._head(path)
            raise AlreadyExists(path)
        except NotFound:
            pass
        dkey = dir_key_of(path)
        yield from self.store.put(dkey, b"", src=self.node)
        self.bucket.attrs[dkey] = FileAttrs(FileType.DIRECTORY, mode & 0o777,
                                            creds.uid if creds else 0,
                                            creds.gid if creds else 0,
                                            self.sim.now)

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        parts = pathmod.split_path(path)
        if not parts:
            raise InvalidArgument("/")
        key, _size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY:
            raise NotADirectory(path)
        marker = dir_key_of(path)
        children = yield from self.store.list(marker, src=self.node)
        if [k for k in children if k != marker]:
            raise DirectoryNotEmpty(path)
        yield from self.store.delete(key, src=self.node)
        self.bucket.attrs.pop(key, None)

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        _key, _size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY:
            raise NotADirectory(path)
        prefix = dir_key_of(path)
        keys = yield from self.store.list(prefix, src=self.node)
        return list_names(keys, prefix)

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key, _size, ftype = yield from self._head(path)
        if ftype is FileType.DIRECTORY:
            raise IsADirectory(path)
        yield from self.store.delete(key, src=self.node)
        self.bucket.attrs.pop(key, None)
        self._staged.pop(key, None)

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        """Rename = copy + delete per object. Directory renames rewrite the
        whole subtree (the paper's key criticism of path-keyed designs)."""
        yield from self._cpu()
        if pathmod.is_ancestor(pathmod.normalize(src), pathmod.normalize(dst)):
            raise InvalidArgument(dst, "destination inside source")
        key, size, ftype = yield from self._head(src)
        if ftype is not FileType.DIRECTORY:
            yield from self._copy_object(key, key_of(dst))
            yield from self.store.delete(key, src=self.node)
            return
        src_prefix = dir_key_of(src)
        dst_prefix = dir_key_of(dst)
        # The LIST includes the marker itself plus everything below it;
        # every single object is copied and deleted — the O(subtree) rename.
        subtree = yield from self.store.list(src_prefix, src=self.node)
        for k in subtree:
            new_key = dst_prefix + k[len(src_prefix):]
            yield from self._copy_object(k, new_key)
            yield from self.store.delete(k, src=self.node)

    def _copy_object(self, src_key: str, dst_key: str) -> SimGen:
        data = yield from self.store.get(src_key, src=self.node)
        yield from self.store.put(dst_key, data, src=self.node)
        if src_key in self.bucket.attrs:
            self.bucket.attrs[dst_key] = self.bucket.attrs.pop(src_key)

    # -- data ------------------------------------------------------------------------------

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        yield from self._cpu()
        key = key_of(path)
        size = None
        try:
            key2, size, ftype = yield from self._head(path)
            if ftype is FileType.DIRECTORY:
                raise IsADirectory(path)
            a = self.bucket.attrs.get(key)
            if a is not None and a.symlink_target:
                return (yield from self.open(
                    creds, self._resolve_link(path, a.symlink_target),
                    flags, mode))
            if flags & OpenFlags.O_CREAT and flags & OpenFlags.O_EXCL:
                raise AlreadyExists(path)
        except NotFound:
            if not flags & OpenFlags.O_CREAT:
                raise
            yield from self.store.put(key, b"", src=self.node)
            self.bucket.attrs[key] = FileAttrs(
                FileType.REGULAR, (creds.apply_umask(mode) if creds
                                   else mode & 0o777),
                creds.uid if creds else 0, creds.gid if creds else 0,
                self.sim.now)
            size = 0
        if flags & OpenFlags.O_TRUNC and size:
            self._staged[key] = _Staged(bytearray(), dirty=True)
            size = 0
        handle = FileHandle(hash(key) & 0x7FFFFFFF, flags, creds,
                            impl={"key": key, "size": size})
        if flags & OpenFlags.O_APPEND:
            handle.pos = size
        return handle

    def _resolve_link(self, path: str, target: str) -> str:
        if target.startswith("/"):
            return target
        base, _name = pathmod.parent_and_name(pathmod.normalize(path))
        return base.rstrip("/") + "/" + target

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        key = handle.impl["key"]
        pos = handle.pos if offset is None else offset
        staged = self._staged.get(key)
        if staged is None:
            # Download through the slow disk cache before serving anything.
            obj_size = handle.impl["size"]
            if obj_size:
                staged = yield from self._stage_download(key, obj_size)
            else:
                staged = _Staged(bytearray())
                self._staged[key] = staged
        yield from self.disk.read(min(size, max(0, len(staged.data) - pos)))
        data = bytes(staged.data[pos : pos + size])
        if offset is None:
            handle.pos = pos + len(data)
        return data

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        key = handle.impl["key"]
        pos = handle.impl["size"] if handle.flags & OpenFlags.O_APPEND else (
            handle.pos if offset is None else offset)
        staged = self._staged.get(key)
        if staged is None:
            obj_size = handle.impl["size"]
            if obj_size and pos < obj_size:
                # Partial rewrite: must download the whole object first.
                staged = yield from self._stage_download(key, obj_size)
            elif obj_size and pos >= obj_size:
                # Append also rewrites the whole object at flush time.
                staged = yield from self._stage_download(key, obj_size)
            else:
                staged = _Staged(bytearray())
                self._staged[key] = staged
        if len(staged.data) < pos:
            staged.data += b"\x00" * (pos - len(staged.data))
        staged.data[pos : pos + len(data)] = data
        staged.dirty = True
        yield from self.disk.write(len(data))
        handle.impl["size"] = max(handle.impl["size"] or 0,
                                  pos + len(data))
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def fsync(self, handle: FileHandle) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        yield from self._flush_key(handle.impl["key"])

    def _flush_key(self, key: str) -> SimGen:
        staged = self._staged.get(key)
        if staged is None or not staged.dirty:
            return
        # Read the staged file back off the slow disk, then PUT whole.
        yield from self.disk.read(len(staged.data))
        yield from self.store.put(key, bytes(staged.data), src=self.node)
        staged.dirty = False
        a = self.bucket.attrs.get(key)
        if a is not None:
            a.mtime = self.sim.now

    def close(self, handle: FileHandle) -> SimGen:
        yield from self._flush_key(handle.impl["key"])
        handle.closed = True

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        yield from self._cpu()
        key, old, ftype = yield from self._head(path)
        if ftype is FileType.DIRECTORY:
            raise IsADirectory(path)
        data = yield from self.store.get(key, src=self.node)
        if size <= len(data):
            out = data[:size]
        else:
            out = data + b"\x00" * (size - len(data))
        yield from self.store.put(key, out, src=self.node)
        staged = self._staged.get(key)
        if staged is not None:
            staged.data = bytearray(out)
            staged.dirty = False

    # -- attributes (whole-object metadata rewrite) -------------------------------------------

    def _meta_rewrite(self, path: str) -> SimGen:
        """chmod/chown on s3fs copies the object to update its headers."""
        key, size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY and size:
            data = yield from self.store.get(key, src=self.node)
            yield from self.store.put(key, data, src=self.node)
        return key

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        yield from self._cpu()
        key = yield from self._meta_rewrite(path)
        a = self._attrs(key)
        a.mode = mode & 0o777
        self.bucket.attrs[key] = a

    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen:
        yield from self._cpu()
        key = yield from self._meta_rewrite(path)
        a = self._attrs(key)
        a.uid, a.gid = uid, gid
        self.bucket.attrs[key] = a

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        yield from self._cpu()
        key = yield from self._meta_rewrite(path)
        a = self._attrs(key)
        a.mtime = mtime
        self.bucket.attrs[key] = a

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        # "Permission check is not done rigorously" — existence only.
        yield from self._cpu()
        yield from self._head(path)
        return True

    # -- links / ACLs ----------------------------------------------------------------------------

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        yield from self._cpu()
        key = key_of(linkpath)
        yield from self.store.put(key, target.encode(), src=self.node)
        self.bucket.attrs[key] = FileAttrs(
            FileType.SYMLINK, 0o777, creds.uid if creds else 0,
            creds.gid if creds else 0, self.sim.now, symlink_target=target)

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key = key_of(path)
        a = self.bucket.attrs.get(key)
        if a is None or not a.symlink_target:
            raise InvalidArgument(path, "not a symlink")
        yield from self.store.head(key, src=self.node)
        return a.symlink_target

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        yield self.sim.timeout(0)
        raise UnsupportedOperation(path, "s3fs does not support POSIX ACLs")

    def setfacl(self, creds: Credentials, path: str, acl) -> SimGen:
        yield self.sim.timeout(0)
        raise UnsupportedOperation(path, "s3fs does not support POSIX ACLs")

    # -- durability helpers ---------------------------------------------------------------------------

    def sync(self) -> SimGen:
        for key in list(self._staged):
            yield from self._flush_key(key)

    def drop_caches(self) -> SimGen:
        yield from self.sync()
        self._staged.clear()
