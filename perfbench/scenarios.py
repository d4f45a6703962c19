"""The three benchmark workloads and their correctness checks.

Each :class:`Scenario` builds the default ArkFS configuration through
``repro.bench.harness.build("arkfs", ...)``, drives one of the program's
public workloads through :class:`~probes.VfsProbe` mounts, and checks what
came back. Every process is closed loop: it issues its next VFS call only
when the previous one returned.

The seed reaches every generated input: the run directory's name, the
number of inode numbers the file system has already handed out (which
moves every object of the run to other OSDs), and, for ``archive``, the
image sizes of every process's dataset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import BENCH_OBS, NET_50G, build
from repro.core import fsck
from repro.objectstore import EBS_GP_1GBS, LocalDisk
from repro.objectstore.profiles import KiB, MiB
from repro.posix import ROOT_CREDS
from repro.sim.engine import Simulator
from repro.workloads import (
    BLOCK,
    WorkloadRunner,
    archive_from_disk,
    archive_to_disk,
    extract_in_fs,
    fio_seq,
    mdtest_hard,
    mscoco_like,
    run_phase,
)

import counters
from probes import PhaseClock, VfsProbe, VfsStats

__all__ = ["SCENARIOS", "Scenario"]

#: Inode numbers the seed may age the allocator by (see counters).
_MAX_AGE = 256

#: Simulated seconds the cluster idles after the last phase so journal
#: checkpoints land before fsck scans the store.
_QUIESCE_S = 3.0


@dataclass(frozen=True)
class Sizes:
    clients: int
    procs: int
    cache: int
    files: int = 0          # mdtest-hard: files per proc
    dirs: int = 0           # mdtest-hard: shared directories
    file_size: int = 0      # fio-seq: bytes per proc per round
    block: int = 128 * KiB  # fio-seq request size
    rounds: int = 0         # fio-seq: write/read/unlink rounds
    images: int = 0         # archive: images per proc
    image_kb: float = 50.0  # archive: mean image size


class Scenario:
    """One workload on one freshly built cluster."""

    name = ""
    phase_names: Tuple[str, ...] = ()
    sizes: Dict[str, Sizes] = {}

    def __init__(self, seed: int, scale: str = "full"):
        self.size = self.sizes[scale]
        rng = random.Random(seed)
        self.workdir = f"/run.{rng.getrandbits(32):08x}"
        self.age = rng.randrange(_MAX_AGE)
        self.rng = rng
        self.errors: List[str] = []
        self.phases: List[Tuple[str, float]] = []   # (name, sim seconds)
        self.ingest: Optional[Tuple[int, int]] = None

    # -- set-up (timed as setup_s) -----------------------------------------

    def setup(self) -> None:
        s = self.size
        self.sim = sim = Simulator()
        self.cluster, self.mounts = build("arkfs", sim, n_clients=s.clients,
                                          net=NET_50G, cache_capacity=s.cache)
        counters.age_allocator(self.cluster, self.age)
        self.clock = PhaseClock(sim, self._on_boundary)
        self.stats = VfsStats()
        self.probes = [VfsProbe(m, self.clock, self.stats)
                       for m in self.mounts]
        self.disks = []
        self.mkdirs([(self.mounts[0], self.workdir)])
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific untimed set-up."""

    def mkdirs(self, targets) -> None:
        """Create ``[(mount, path), ...]`` concurrently, untimed, through
        the real mounts so no probe counts them."""
        def gen(mount, path):
            yield from mount.mkdir(ROOT_CREDS, path)

        sim = self.sim
        run_phase(sim, [sim.process(gen(m, p)) for m, p in targets])

    def _on_boundary(self, index: int) -> None:
        if index == 2:  # the ingest phase just ended
            self.ingest = (counters.stored_bytes(self.cluster),
                           self.stats.bytes_written)

    # -- the measured section ---------------------------------------------

    def run(self) -> None:
        raise NotImplementedError

    # -- checks (untimed) --------------------------------------------------

    def verify(self) -> List[str]:
        """Content checks, phase bookkeeping, then fsck of the final state."""
        errors = list(self.errors) + list(self.stats.errors)
        errors += self.check_content()
        if len(self.clock.starts) != len(self.phases):
            errors.append(f"saw {len(self.clock.starts)} phase starts for "
                          f"{len(self.phases)} phases")
        sim = self.sim
        sim.run(until=sim.now + _QUIESCE_S)
        report = sim.run_process(fsck(self.cluster.prt))
        if not report.clean:
            errors.append(report.summary())
        return errors

    def check_content(self) -> List[str]:
        return []

    def close(self) -> None:
        """Let the cluster go: the harness keeps every build's
        observability (and through it the whole simulation) until reset."""
        BENCH_OBS.reset()

    # -- shared helpers ------------------------------------------------------

    def runner(self) -> WorkloadRunner:
        return WorkloadRunner(self.sim, list(self.cluster.clients),
                              list(self.probes))


class MdtestHard(Scenario):
    """Fig. 5 shape: small files spread over directories every client
    touches, so clients forward ops to another client's directory leader."""

    name = "mdtest-hard"
    phase_names = ("WRITE", "STAT", "READ", "DELETE")
    sizes = {
        "full": Sizes(clients=4, procs=16, cache=96 * MiB, files=100,
                      dirs=8),
        "tiny": Sizes(clients=2, procs=4, cache=96 * MiB, files=5, dirs=2),
    }

    def prepare(self) -> None:
        self.written: Dict[str, bytes] = {}
        self.verified: Dict[str, int] = {}
        self.stats.on_write = self._on_write
        self.stats.check_read = self._check_read

    def _on_write(self, path, pos, data) -> None:
        self.written[path] = data  # one write per file

    def _check_read(self, path, pos, data) -> Optional[str]:
        want = self.written.get(path, b"")[pos:pos + len(data)]
        if data != want:
            return f"{path}: read {len(data)} B at {pos} differ from written"
        self.verified[path] = self.verified.get(path, 0) + len(data)
        return None

    def run(self) -> None:
        s = self.size
        result = mdtest_hard(self.sim, self.probes, n_procs=s.procs,
                             files_per_proc=s.files, n_dirs=s.dirs,
                             base=f"{self.workdir}/mdtest-hard")
        self.phases = [(n, result.elapsed[n]) for n in self.phase_names]
        for name, n in result.errors.items():
            if n:
                self.errors.append(f"mdtest {name}: {n} errors")

    def check_content(self) -> List[str]:
        n_files = self.size.procs * self.size.files
        short = [p for p, data in self.written.items()
                 if self.verified.get(p) != len(data)]
        if len(self.written) != n_files or short:
            return [f"mdtest READ verified {n_files - len(short)} of "
                    f"{n_files} files ({len(self.written)} written)"]
        return []


class FioSeq(Scenario):
    """Fig. 6(a) shape: sequential streams larger than the client cache."""

    name = "fio-seq"
    phase_names = ("WRITE", "READ", "DELETE")
    sizes = {
        "full": Sizes(clients=2, procs=4, cache=96 * MiB,
                      file_size=64 * MiB, rounds=5),
        "tiny": Sizes(clients=2, procs=4, cache=96 * MiB,
                      file_size=1 * MiB, rounds=2),
    }

    def prepare(self) -> None:
        self.pattern: Dict[str, bytes] = {}
        self.verified = 0
        self.stats.on_write = self._on_write
        self.stats.check_read = self._check_read

    def _on_write(self, path, pos, data) -> None:
        self.pattern.setdefault(path, data)

    def _check_read(self, path, pos, data) -> Optional[str]:
        block = self.pattern.get(path)
        if block is None:
            return f"{path}: read from a file never written"
        off = pos % len(block)  # fio reads block-aligned, at most a block
        if data != block[off:off + len(data)]:
            return f"{path}: read {len(data)} B at {pos} break the pattern"
        self.verified += len(data)
        return None

    def run(self) -> None:
        s = self.size
        for k in range(s.rounds):
            base = f"{self.workdir}/fio.{k}"
            r = fio_seq(self.sim, self.probes, n_procs=s.procs,
                        file_size=s.file_size, block_size=s.block, base=base)
            d = self.runner().phase(
                "DELETE", [self._unlink(p, f"{base}/job{p}.dat")
                           for p in range(s.procs)])
            self.phases += [("WRITE", r.write_elapsed),
                            ("READ", r.read_elapsed),
                            ("DELETE", d.elapsed)]

    def _unlink(self, p: int, path: str):
        mount = self.probes[p % len(self.probes)]

        def factory():
            yield from mount.unlink(ROOT_CREDS, path)
        return factory

    def check_content(self) -> List[str]:
        s = self.size
        want = s.rounds * s.procs * s.file_size
        if self.verified != want:
            return [f"fio READ verified {self.verified} of {want} B"]
        return []


class Archive(Scenario):
    """Table II shape: tar from EBS into ArkFS, extract into per-category
    directories, tar the tree back onto EBS."""

    name = "archive"
    phase_names = ("ARCHIVE", "EXTRACT", "UNARCHIVE")
    sizes = {
        "full": Sizes(clients=2, procs=8, cache=512 * MiB, images=300),
        "tiny": Sizes(clients=2, procs=2, cache=512 * MiB, images=12),
    }

    def prepare(self) -> None:
        s = self.size
        sim = self.sim
        self.disks = [LocalDisk(sim, EBS_GP_1GBS, name=f"ebs{n}")
                      for n in range(s.clients)]
        self.datasets = [mscoco_like(s.images, seed=self.rng.getrandbits(32),
                                     mean_kb=s.image_kb)
                         for _p in range(s.procs)]
        self.members: Dict[str, object] = {}
        for p, ds in enumerate(self.datasets):
            for im in ds:
                path = f"{self._dir(p)}/extracted/{im.category}/{im.name}"
                self.members[path] = im
        self.verified: Dict[str, int] = {}
        self.stats.check_read = self._check_read
        self.mkdirs([(self.mounts[p % len(self.mounts)], self._dir(p))
                     for p in range(s.procs)])

    def _dir(self, p: int) -> str:
        return f"{self.workdir}/proc{p}"

    def _check_read(self, path, pos, data) -> Optional[str]:
        if path.endswith("/dataset.tar"):
            return None  # its bytes come back as the members checked below
        image = self.members.get(path)
        if image is None:
            return f"{path}: read of a file not in the dataset"
        if data != image.content()[pos:pos + len(data)]:
            return f"{path}: {len(data)} B at {pos} differ from the dataset"
        self.verified[path] = self.verified.get(path, 0) + len(data)
        return None

    def run(self) -> None:
        s = self.size
        runner = self.runner()
        steps = {
            "ARCHIVE": lambda m, disk, p: archive_from_disk(
                m, ROOT_CREDS, disk, self.datasets[p],
                f"{self._dir(p)}/dataset.tar"),
            "EXTRACT": lambda m, disk, p: extract_in_fs(
                m, ROOT_CREDS, f"{self._dir(p)}/dataset.tar",
                f"{self._dir(p)}/extracted"),
            "UNARCHIVE": lambda m, disk, p: archive_to_disk(
                m, ROOT_CREDS, f"{self._dir(p)}/extracted", disk),
        }
        self.returned: Dict[str, List[int]] = {}
        written0 = sum(d.bytes_written for d in self.disks)
        for name, step in steps.items():
            out = self.returned[name] = [0] * s.procs
            r = runner.phase(name, [self._proc(step, p, out)
                                    for p in range(s.procs)])
            self.phases.append((name, r.elapsed))
        self.ebs_written = sum(d.bytes_written for d in self.disks) - written0

    def _proc(self, step, p: int, out: List[int]):
        def gen():
            out[p] = yield from step(self.probes[p % len(self.probes)],
                                     self.disks[p % len(self.disks)], p)
        return gen

    def check_content(self) -> List[str]:
        errors = []
        tar_bytes, extracted, unarchived = (
            self.returned[n] for n in self.phase_names)
        for p, ds in enumerate(self.datasets):
            members = sum(BLOCK + -(-im.size // BLOCK) * BLOCK for im in ds)
            tar_size = members + 2 * BLOCK
            tree_size = tar_size + BLOCK * len({im.category for im in ds})
            if tar_bytes[p] != tar_size:
                errors.append(f"proc{p}: tar holds {tar_bytes[p]} B, "
                              f"ustar size of the dataset is {tar_size} B")
            if extracted[p] != len(ds):
                errors.append(f"proc{p}: extracted {extracted[p]} of "
                              f"{len(ds)} members")
            if unarchived[p] != tree_size:
                errors.append(f"proc{p}: UNARCHIVE wrote {unarchived[p]}"
                              f" B, the extracted tree's tar is {tree_size} B")
        if self.ebs_written != sum(unarchived):
            errors.append(f"EBS received {self.ebs_written} B, UNARCHIVE "
                          f"counted {sum(unarchived)} B")
        short = [p for p, im in self.members.items()
                 if self.verified.get(p) != im.size]
        if short:
            errors.append(f"{len(short)} of {len(self.members)} extracted "
                          f"members were not read back whole, e.g. "
                          f"{short[0]}")
        return errors


SCENARIOS = {cls.name: cls for cls in (MdtestHard, FioSeq, Archive)}
