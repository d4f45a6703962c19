"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from scenarios import SCENARIOS, Archive  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "5",
           "--seconds", "1", "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(SCENARIOS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _bench("--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    table = PER_LAYER if trace == "1" else END_TO_END
    expected = {f"{w}.{name}": unit for w in run.WORKLOADS
                for name, unit in table.items()}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_same_seed_gives_identical_simulated_metrics():
    runs = [run.run_child("archive", 9, 0.1, 0, "tiny",
                          time.monotonic() + 300) for _ in range(2)]
    assert runs[0]["sim"] == runs[1]["sim"]
    assert runs[0]["errors"] == []


def test_seed_reaches_the_archive_dataset():
    def sizes(seed):
        sc = Archive(seed, "tiny")
        sc.setup()
        sc.close()
        return sc.workdir, [[im.size for im in ds] for ds in sc.datasets]

    assert sizes(3) == sizes(3)
    assert sizes(3)[0] != sizes(4)[0]
    assert sizes(3)[1] != sizes(4)[1]


def _flip_last_byte(mount, when=lambda: True):
    read = mount.read

    def corrupt(*args, **kwargs):
        data = yield from read(*args, **kwargs)
        if data and when():
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        return data

    mount.read = corrupt


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_a_wrong_byte_fails_the_run(workload):
    sc = SCENARIOS[workload](2, "tiny")
    sc.setup()
    # archive: corrupt only the member reads of UNARCHIVE, past the tar.
    _flip_last_byte(sc.mounts[0], lambda: len(sc.clock.starts) >= 3
                    if workload == "archive" else True)
    sc.run()
    errors = sc.verify()
    sc.close()
    assert any("differ" in e or "pattern" in e for e in errors), errors


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "archive", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
