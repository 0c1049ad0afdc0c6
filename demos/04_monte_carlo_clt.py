#!/usr/bin/env python3
"""Monte Carlo verification of the central limit theorem for shape counts.

The sampler is exactly uniform (rotation trick on a random step multiset)
and counter-based: every draw is a pure function of (seed, position), so
runs are reproducible and parallel workers cannot perturb results.  The
standardized count of a fixed shape should drift toward a standard
normal as n grows; the gates quantify that at fixed n.
"""

import math
import time

from meandric import (
    ExperimentConfig,
    clt_parameters,
    evaluate_gates,
    matching_uniformity,
    run_experiment,
    simple_loop,
)

SEED = 20260810
WORKERS = 4

print("=== Exact uniformity of the matching sampler (n = 4) ===")
report = matching_uniformity(4, 100_000, seed=1, worker_count=WORKERS)
print(f"  chi-square over all 14 matchings: {report.statistic:.2f}, p = {report.p_value:.3f}")

print()
print("=== One experiment at n = 1000 ===")
t0 = time.time()
cfg = ExperimentConfig(n=1000, sample_count=10_000, shape=simple_loop(), seed=SEED, worker_count=WORKERS)
summary = run_experiment(cfg)
params = clt_parameters(simple_loop())
print(f"  {cfg.sample_count} samples in {time.time() - t0:.1f}s")
print(f"  mean/n      {summary.mean / cfg.n:.6f}   predicted {float(params.mean):.6f}")
print(f"  var/(n s2)  {summary.variance / summary.predicted_variance:.4f}")
print(f"  skewness    {summary.skewness:+.4f}")
print(f"  normality   {summary.ad_statistic:.3f} (raw, lattice-inflated: {summary.ad_statistic_raw:.3f})")
gates = evaluate_gates(summary, "full")
for check in gates.checks:
    print(f"    gate {check.name:15s} {'PASS' if check.passed else 'FAIL'}  ({check.requirement})")

print()
print("=== Drift toward the limit across n ===")
summaries = [
    run_experiment(
        ExperimentConfig(n=n, sample_count=6000, shape=simple_loop(), seed=3, worker_count=WORKERS)
    )
    for n in (200, 800, 3200)
]
print(f"  {'n':>6} {'std.mean':>10} {'var.ratio':>10} {'skew':>8} {'ex.kurt':>8}")
for s in summaries:
    std_mean = (s.mean - s.predicted_mean) / math.sqrt(s.predicted_variance)
    print(
        f"  {s.n:>6} {std_mean:>10.4f} {s.variance / s.predicted_variance:>10.4f} "
        f"{s.skewness:>8.4f} {s.excess_kurtosis:>8.4f}"
    )
print("  (skewness shrinks like 1/sqrt(n))")
