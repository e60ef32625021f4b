"""Benchmark entry point: one workload, one result line.

    python3 bench/run.py --workload trap_cpu --seed 1 --seconds 30 --trace 0

Workloads (see README.md): trap_cpu, game24_http, game24_cached. Each runs
in processes of its own (``bench/workload.py``). With ``--trace 0`` the
set-up is measured SETUP_REPEATS times, each in a fresh process from its
start until it is ready to time its first episode, and ``setup_s`` is the
median, scaled like the workload's times by the median host-speed scale of
its timed episodes (see hostspeed.py); the last of those processes then runs
the timed episodes. With ``--trace 1`` one process sets up once and reports
the per-layer metrics.

Every metric is printed by name with its unit, then the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
WORKLOADS = ("trap_cpu", "game24_http", "game24_cached")
NEEDED = (ROOT / "src" / "tout" / "__init__.py", ROOT / "datasets" / "game24.csv")


def start_workload(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start one workload process; return it with its time to ``ready``."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not get ready: {line.strip()!r}")
    return proc, ready_s


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the workload ran past its deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the workload exited with code {proc.returncode}")
    return out


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        proc, ready_s = start_workload(args, setup_only=True)
        finish(proc, deadline)
        setups.append(ready_s)
    proc, ready_s = start_workload(args, setup_only=False)
    setups.append(ready_s)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RuntimeError("the workload printed no result")
    result = json.loads(lines[-1])
    scale = result.pop("host_scale")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups) * scale, "unit": "s"}
        result["notes"]["setup_s"] = (
            "median of " + ", ".join(f"{s:.3f}" for s in setups) + f" s unscaled, times {scale:.3f}"
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in NEEDED if not path.exists()]
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    notes = result.pop("notes")
    for name, metric in sorted(result["metrics"].items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print("correct = {correct}, attempted = {attempted}, failed = {failed}".format(**result))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
