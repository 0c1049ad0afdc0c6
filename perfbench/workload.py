"""The workload process: import ``meandric``, then run whole rounds of one
workload's operations for the requested number of seconds.

Started by ``perfbench/run.py``.  It prints ``ready`` just before its first
timed operation (with ``--probe`` it exits there: that run only times
set-up) and a JSON report as its last line.

Every request of an operation runs in a child forked from this process
right after import, one child at a time, so each starts in the state of a
fresh ``meandric`` process: nothing an earlier request cached (the
oracle's enumerated matchings and occurrence masks, the cached shape
constants) is there.  The child times the request, then checks its
outputs with tracing off, and sends the figures back through a pipe.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pickle
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

import meandric
from meandric import cli, meanders, sampling, verify

import checks
import tracing

SIMPLE_LOOP = "supp=1,2;up=1-2;lo=1-2"
OUT = Path(".bench_out")


@dataclass(frozen=True)
class Request:
    """One call into ``meandric``: ``run`` is timed, ``check`` is not and
    returns a list of problems.  ``run`` returns None when the request
    failed (a CLI exit code other than 0)."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _cli(argv: list[str]) -> Callable[[], object]:
    def run():
        return True if cli.main(argv) == 0 else None

    return run


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def sample_round(rng: random.Random) -> list[Request]:
    """``meandric sample`` at n=2000 with 2048 samples, a fresh seed per
    operation, the per-sample CSV and no gate."""
    n, samples, seed = 2000, 2048, rng.getrandbits(63)
    positions = rng.sample(range(samples), 3)
    out, csv_path = OUT / "sample.json", OUT / "sample.csv"
    argv = ["sample", "--n", str(n), "--samples", str(samples), "--shape", SIMPLE_LOOP,
            "--seed", str(seed), "--workers", "1", "--csv", str(csv_path), "--out", str(out)]

    def check(_):
        loop = meanders.simple_loop()
        traced = {p: meanders.count_shape(sampling.sample_system(n, p, seed), loop) for p in positions}
        return checks.check_sample(json.loads(_read(out)), _read(csv_path), n, samples, traced)

    return [Request(_cli(argv), check)]


def uniform_round(rng: random.Random) -> list[Request]:
    """``sampling.matching_uniformity(4, 50_000, seed)``, a fresh seed per
    operation."""
    n, draws, seed = 4, 50_000, rng.getrandbits(63)

    def check(report):
        return checks.check_uniformity(list(report.counts), draws, n, report.p_value)

    return [Request(lambda: sampling.matching_uniformity(n, draws, seed), check)]


def oracle_round(rng: random.Random) -> list[Request]:
    """``meandric moments`` by complete enumeration at n=9 (simple loop,
    r=3) with the distribution CSV.  The input does not depend on the seed."""
    n, r = 9, 3
    out, csv_path = OUT / "oracle.json", OUT / "oracle.csv"
    argv = ["moments", "--mode", "exact,formula", "--n", str(n), "--r", str(r), "--shape", SIMPLE_LOOP,
            "--size-cap", str(n), "--distribution-csv", str(csv_path), "--out", str(out)]

    def check(_):
        return checks.check_oracle(json.loads(_read(out)), _read(csv_path), n, r, SIMPLE_LOOP)

    return [Request(_cli(argv), check)]


def formula_round(rng: random.Random) -> list[Request]:
    """``meandric moments`` in closed form and asymptotics at n=10**5,
    r=50, once for the simple loop and once for ``verify.STRONG_L6``.  The
    inputs do not depend on the seed."""
    n, r = 100_000, 50
    requests = []
    for i, shape in enumerate((SIMPLE_LOOP, verify.STRONG_L6)):
        out = OUT / f"formula{i}.json"
        argv = ["moments", "--mode", "formula,asymptotic", "--n", str(n), "--r", str(r),
                "--shape", shape, "--out", str(out)]
        requests.append(Request(
            _cli(argv),
            lambda _, out=out, shape=shape: checks.check_formula(json.loads(_read(out)), n, r, shape),
        ))
    return requests


# name: (function making one round of requests, units of work per operation)
WORKLOADS = {
    "sample-n2000": (sample_round, 2048),  # systems summarised
    "uniform-n4": (uniform_round, 50_000),  # matchings drawn
    "oracle-n9": (oracle_round, checks.catalan(9) ** 2),  # systems enumerated
    "formula-n1e5": (formula_round, 2),  # moment requests answered
}


def _child(request: Request, trace: bool, wfd: int) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    value = request.run()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.active = False
    try:
        problems = [] if value is None else request.check(value)
    except Exception as exc:  # a malformed output is a wrong output
        problems = [f"check raised {exc!r}"]
    message = {
        "elapsed": elapsed,
        "failed": value is None,
        "problems": problems,
        "spans": tracer.spans if tracer else [],
    }
    with os.fdopen(wfd, "wb") as fh:
        pickle.dump(message, fh)


def run_request(request: Request, trace: bool) -> dict:
    """Run one request in a forked child; a child that dies or raises
    counts as a failed request."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            _child(request, trace, wfd)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"elapsed": 0.0, "failed": True, "problems": [], "spans": []}
    return pickle.loads(data)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "meandric": meandric.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    make_round, units = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    OUT.mkdir(exist_ok=True)
    print("ready", flush=True)
    if args.probe:
        return 0

    start = time.perf_counter()
    ops = []
    while not ops or time.perf_counter() - start < args.seconds:
        results = [run_request(req, bool(args.trace)) for req in make_round(rng)]
        ops.append({
            "elapsed": sum(r["elapsed"] for r in results),
            "failed": any(r["failed"] for r in results),
            "problems": [p for r in results for p in r["problems"]],
            "requests": results,
        })
    done = [op for op in ops if not op["failed"]]
    if not done:
        print(f"every one of {len(ops)} operations failed", file=sys.stderr)
        return 1
    problems = [p for op in done for p in op["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    times = [op["elapsed"] for op in done]
    if args.trace:
        metrics = _layer_report(done)
        _write_spans(ops, args)
    else:
        metrics = {
            "work_per_s": {"value": units * len(done) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    env = environment()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": metrics,
        "environment": env,
        "opSeconds": [op["elapsed"] for op in ops],
    }))
    return 0


def _layer_report(ops: list[dict]) -> dict:
    """Median over operations of each per-layer figure, summed over the
    requests of an operation, plus the traced operation time."""
    per_op = []
    for op in ops:
        figures = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
        for request in op["requests"]:
            for name, value in tracing.layer_metrics(request["spans"]).items():
                figures[name] += value
        per_op.append(figures)
    metrics = {
        name: {"value": statistics.median(f[name] for f in per_op), "unit": unit}
        for name, unit in tracing.LAYER_METRICS.items()
    }
    metrics["trace.op_p50_s"] = {"value": statistics.median(op["elapsed"] for op in ops), "unit": "s"}
    return metrics


def _write_spans(ops: list[dict], args) -> None:
    """All spans of the run, one CSV row each: operation, request, span id,
    parent id, name, start and end in seconds."""
    path = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("op,request,span,parent,name,start,end\n")
        for k, op in enumerate(ops):
            for j, request in enumerate(op["requests"]):
                for span_id, parent, name, start, end in request["spans"]:
                    fh.write(f"{k},{j},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


if __name__ == "__main__":
    raise SystemExit(main())
