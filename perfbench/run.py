"""ArkFS benchmark: simulated and host metrics on three archive workloads.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mdtest-hard --seed 7 --seconds 20 \\
        --trace 1

Each workload runs in a fresh interpreter (``child.py``). With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
an untraced and a traced run are made, their simulated end-to-end metrics
must agree exactly, and the result holds the per-layer metrics plus
``host.tracing_overhead``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is non-zero when any check fails. ``perfbench/README.md`` defines every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mdtest-hard", "fio-seq", "archive")

#: Child interpreters must finish inside the 180 s a run is allowed.
_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: str, deadline: float) -> dict:
    env = dict(os.environ)
    # ImageSpec.content() fills each image from hash(); pin the hash salt
    # so one seed gives the same bytes in every process. Simulated time
    # does not depend on it.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: no result within {timeout:.0f} s"
                          ) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict) -> dict:
    values = dict(res["sim"])
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        values[key] = res[key]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str, deadline: float):
    """One workload's result: (errors, attempted, failed, metrics)."""
    base = run_child(workload, seed, seconds, 0, scale, deadline)
    errors = list(base["errors"])
    attempted, failed = base["attempted"], base["failed"]
    if not trace:
        return errors, attempted, failed, end_to_end(base)
    traced = run_child(workload, seed, seconds, 1, scale, deadline)
    errors += traced["errors"]
    attempted += traced["attempted"]
    failed += traced["failed"]
    if traced["sim"] != base["sim"]:
        errors.append(f"tracing moved simulated metrics: untraced "
                      f"{base['sim']}, traced {traced['sim']}")
    layers = dict(traced["layers"])
    layers["host.wall_raw_s"] = base["wall_raw_s"]
    layers["host.speed_factor"] = base["speed_factor"]
    layers["host.tracing_overhead"] = traced["wall_raw_s"] / base["wall_raw_s"]
    missing = sorted(PER_LAYER.keys() - layers.keys())
    if missing:
        raise ChildFailed(f"{workload}: traced run lacks {missing}")
    return errors, attempted, failed, {
        k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="ArkFS benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long sizes for the self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write("run.py: no src/repro next to perfbench/; run it "
                         "from a checkout of the repository\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    errors, attempted, failed, metrics = [], 0, 0, {}
    for name in names:
        try:
            errs, att, fail, mets = measure(
                name, args.seed, args.seconds, args.trace, args.scale,
                time.monotonic() + _DEADLINE_S)
        except ChildFailed as exc:
            sys.stderr.write(f"run.py: {exc}\n")
            return 1
        errors += [f"{name}: {e}" for e in errs]
        attempted += att
        failed += fail
        if len(names) == 1:
            metrics = mets
        else:
            metrics.update({f"{name}.{k}": v for k, v in mets.items()})
        print(f"== {name} (seed {args.seed}, fail_ratio "
              f"{fail / att if att else 0.0:.6f})")
        for k, v in mets.items():
            print(f"  {k:<42} {v['value']:>16.6g} {v['unit']}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
