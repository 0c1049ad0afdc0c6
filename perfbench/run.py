"""Benchmark entry point: runs one workload (or all of them) and prints
the result as the last line of standard output.

    python3 perfbench/run.py --workload oracle-n9 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  This process never imports
``meandric``: it pins the environment, starts the workload process
(``perfbench/workload.py``) a few times to time set-up, lets the last
one run the timed operations, and assembles the JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sample-n2000", "uniform-n4", "oracle-n9", "formula-n1e5")

# Workload processes started per run only to time set-up; the process that
# runs the operations adds one more set-up sample.
SETUP_PROBES = 2

# One thread for every native library, a fixed string hash so that dict and
# set layouts do not differ between processes, no bytecode files written (so
# every start compiles the same sources and nothing is written outside
# .bench_out), and no inherited worker count.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

HERE = Path(__file__).resolve().parent


def _environment(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MEANDRIC_WORKERS"}
    env.update(PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(argv: list[str], env: dict[str, str], root: Path) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it with its set-up time, measured
    from the start request to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.stdout.read()
        proc.wait()
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, elapsed


def run_workload(name: str, seed: int, seconds: int, trace: int, root: Path) -> dict:
    env = _environment(root)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        probe, elapsed = _start([*argv, "--probe"], env, root)
        probe.stdout.read()
        if probe.wait() != 0:
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
        setups.append(elapsed)
    proc, elapsed = _start(argv, env, root)
    setups.append(elapsed)
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    if not trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    report["setupSamples"] = setups
    out = root / ".bench_out" / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps({"result": result, "run": report}, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    root = Path.cwd()
    if not (root / "src" / "meandric" / "__init__.py").is_file():
        print("perfbench: run from the root of a meandric checkout (src/meandric not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
