import concurrent.futures
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, ndtr
from scipy.stats import chi2

import meandric
from meandric import sampling
from meandric.combinatorics import (
    NonCrossingMatching,
    _matching_from_heights,
    _rotated_heights,
    catalan,
)
from meandric.errors import MeandricError
from meandric.meanders import MeandricSystem, count_shape, parse_shape, simple_loop
from meandric.sampling import (
    LOWER_STREAM,
    UPPER_STREAM,
    ExperimentConfig,
    anderson_darling_statistic,
    chi_square_uniformity,
    evaluate_gates,
    matching_uniformity,
    run_experiment,
    sample_matching,
    sample_system,
    samples_array,
    samples_csv,
)
from meandric.sampling import _count_rows, _experiment_chunk, _height_rows
from meandric.verify import WEAK_L5


def test_size_one_is_deterministic():
    for position in range(10):
        assert sample_matching(1, position, seed=9).arcs() == ((1, 2),)


def test_purity_contract():
    a = sample_matching(40, 1234, seed=77)
    b = sample_matching(40, 1234, seed=77)
    assert a == b
    assert sample_matching(40, 1235, seed=77) != a
    assert sample_matching(40, 1234, seed=78) != a
    assert sample_matching(40, 1234, seed=77, stream=LOWER_STREAM) != a


def test_streams_differ():
    system = sample_system(30, 5, seed=4)
    assert system.upper == sample_matching(30, 5, 4, UPPER_STREAM)
    assert system.lower == sample_matching(30, 5, 4, LOWER_STREAM)


def test_sampled_counts_match_tracing(weak_l5):
    cfg = ExperimentConfig(n=9, sample_count=300, shape=simple_loop(), seed=21)
    xs = samples_array(cfg)
    for position in range(0, 300, 7):
        system = sample_system(9, position, seed=21)
        assert xs[position] == count_shape(system, simple_loop())


def test_uniformity_small_sizes():
    for n, draws in [(2, 4000), (3, 20000), (4, 50000)]:
        report = matching_uniformity(n, draws, seed=1)
        assert sum(report.counts) == draws
        assert len(report.counts) == catalan(n)
        assert report.p_value > 0.001


def test_upper_lower_independence():
    # Indicator of the arc (1, 2) above and below: the empirical
    # correlation of independent draws stays within 4 standard errors.
    draws = 4000
    hits_up = hits_lo = hits_both = 0
    for position in range(draws):
        system = sample_system(5, position, seed=6)
        up = system.upper.partner[1] == 2
        lo = system.lower.partner[1] == 2
        hits_up += up
        hits_lo += lo
        hits_both += up and lo
    p_up, p_lo = hits_up / draws, hits_lo / draws
    corr = hits_both / draws - p_up * p_lo
    scale = math.sqrt(p_up * (1 - p_up) * p_lo * (1 - p_lo) / draws)
    assert abs(corr) < 4 * scale


def test_chi_square_uniformity_edge():
    stat, p = chi_square_uniformity([100, 100, 100])
    assert stat == 0 and p == 1.0


@pytest.mark.parametrize(
    "counts,message",
    [
        ([], "counts must hold at least one bin, got none"),
        ([0, 0, 0], "counts must add up to more than 0, got 3 empty bins"),
    ],
    ids=["no-bins", "zero-total"],
)
def test_chi_square_refuses_degenerate_counts(counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chi_square_uniformity(counts)


def test_chi_square_p_value_is_chi2_survival():
    # The p-value comes from finite sums, not from scipy, so it agrees with
    # ``chi2.sf`` to rounding rather than bit for bit.
    for n, draws in [(2, 4000), (3, 20000), (4, 50000)]:
        report = matching_uniformity(n, draws, seed=1)
        assert report.p_value == pytest.approx(chi2.sf(report.statistic, catalan(n) - 1), rel=1e-12)
    rng = np.random.default_rng(3)
    for counts in rng.integers(50, 150, size=(200, 7)):
        stat, p = chi_square_uniformity(counts)
        assert p == pytest.approx(chi2.sf(stat, 6), rel=1e-12)


@pytest.mark.parametrize("x", [1e-300, 1e-8, 0.3, 1.0, 2.5, 17.0, 123.4, 1400.0])
def test_chdtrc_low_orders_are_closed_forms(x):
    assert sampling._chdtrc(1, x) == math.erfc(math.sqrt(x / 2))
    assert sampling._chdtrc(2, x) == math.exp(-x / 2)


def test_chdtrc_matches_scipy():
    # Up to df = catalan(10) - 1, the uniformity test at n = 10.
    for df in [*range(1, 41), 99, 100, 429, 1430, 4861, 16795]:
        for x in [1e-6, 0.5, 1.0, 10.0, 100.0, 1000.0, *(df * f for f in (0.01, 0.1, 0.5, 0.9, 1, 1.1, 1.5, 2, 3, 5))]:
            expected = chdtrc(df, x)
            if expected >= 1e-300:
                assert sampling._chdtrc(df, x) == pytest.approx(expected, rel=1e-10), (df, x)


def test_ndtr_matches_scipy():
    z = np.linspace(-8, 8, 16001)
    np.testing.assert_allclose(sampling._ndtr(z), ndtr(z), rtol=1e-13, atol=0)


def test_anderson_darling_matches_a_scipy_reference(monkeypatch):
    rng = np.random.default_rng(11)
    samples = [rng.standard_normal(rng.integers(8, 2049)) for _ in range(100)]
    samples += [rng.poisson(rng.uniform(0.5, 300), rng.integers(8, 2049)) + rng.random() for _ in range(100)]
    ours = [anderson_darling_statistic(v) for v in samples]
    monkeypatch.setattr(sampling, "_ndtr", ndtr)
    for value, statistic in zip(samples, ours):
        assert statistic == pytest.approx(anderson_darling_statistic(value), rel=1e-10)


@pytest.mark.parametrize(
    "values,message",
    [
        ([], "values must hold at least 2 numbers, got 0"),
        ([1.5], "values must hold at least 2 numbers, got 1"),
        ([3, 3, 3], "values have zero variance: all 3 are 3.0"),
    ],
    ids=["empty", "one", "constant"],
)
def test_anderson_darling_refuses_degenerate_values(values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        anderson_darling_statistic(values)


def test_anderson_darling_discriminates():
    rng = np.random.default_rng(0)
    normal = rng.standard_normal(4000)
    assert anderson_darling_statistic(normal) < 1.035
    exponential = rng.exponential(size=4000)
    assert anderson_darling_statistic(exponential) > 10


def test_seeds_outside_64_bits_rejected(loop1):
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, sample_count=10, shape=loop1, seed=seed)
        with pytest.raises(ValueError):
            sample_matching(4, 0, seed)
        with pytest.raises(ValueError):
            matching_uniformity(2, 10, seed)
    assert sample_matching(6, 3, 2**64 - 1) != sample_matching(6, 3, 0)


def test_experiment_config_validation(weak_l5, monkeypatch):
    with pytest.raises(MeandricError):
        ExperimentConfig(n=4, sample_count=10, shape=weak_l5, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, sample_count=0, shape=simple_loop(), seed=0)
    # A walk of 2n + 1 >= 2**31 steps would wrap the 32-bit heights; sizes
    # are refused before anything is drawn.
    monkeypatch.setattr(sampling, "_height_rows", None)  # a draw would fail with TypeError
    for n, message in [(0, "n must be >= 1"), (-5, "n must be >= 1"), (2**30, r"n must be below 2\*\*30")]:
        with pytest.raises(ValueError, match=f"{message}, got {n}"):
            ExperimentConfig(n=n, sample_count=10, shape=simple_loop(), seed=0)
        with pytest.raises(ValueError, match=f"{message}, got {n}"):
            sample_matching(n, 0, 0)
    assert ExperimentConfig(n=2**30 - 1, sample_count=10, shape=simple_loop(), seed=0).n == 2**30 - 1


def test_experiment_config_refuses_positions_beyond_the_key():
    # Positions take the low 60 bits of a Philox key, so at most 2**60
    # samples; a larger count is refused when the config is built, before
    # any chunk is planned.  Only configs are built here: a count this
    # large must never reach the sampler.
    assert ExperimentConfig(n=4, sample_count=2**60, shape=simple_loop(), seed=0).sample_count == 2**60
    with pytest.raises(ValueError, match=f"^position {2**60} out of range$"):
        ExperimentConfig(n=4, sample_count=2**60 + 1, shape=simple_loop(), seed=0)
    # The seed is still checked first, with the same message.
    with pytest.raises(ValueError, match=r"^seed -1 outside \[0, 2\*\*64\)$"):
        ExperimentConfig(n=4, sample_count=2**61, shape=simple_loop(), seed=-1)


def test_uniformity_needs_draws():
    for draws in (0, -1):
        with pytest.raises(ValueError, match=f"draws must be >= 1, got {draws}"):
            matching_uniformity(3, draws, seed=1)


def test_uniformity_refuses_what_it_cannot_test(monkeypatch):
    # A size with one outcome leaves the chi-square nothing to compare, and
    # a worker count below 1 runs nothing; both are refused before a draw.
    monkeypatch.setattr(sampling, "_height_rows", None)  # a draw would fail with TypeError
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
            matching_uniformity(n, 10, seed=1)
    with pytest.raises(ValueError, match=r"n must be below 2\*\*30"):
        matching_uniformity(2**30, 10, seed=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="worker_count must be >= 1"):
            matching_uniformity(3, 10, seed=1, worker_count=workers)
        cfg = ExperimentConfig(n=4, sample_count=10, shape=simple_loop(), seed=0, worker_count=workers)
        with pytest.raises(ValueError, match="worker_count must be >= 1"):
            samples_array(cfg)


def test_uniformity_refuses_non_dyck_codes(monkeypatch):
    # Heights 0,-1,0,1,0 step down first: their code 0b0110 is no Dyck
    # path of size 2, so it must not be counted as a neighbouring outcome.
    rows = np.array([[0, -1, 0, 1, 0], [0, 1, 0, 1, 0]])
    monkeypatch.setattr(sampling, "_height_rows", lambda n, seed, stream, lo, hi: rows[: hi - lo])
    with pytest.raises(MeandricError, match="1 of 2 draws are Dyck paths of size 2"):
        matching_uniformity(2, 2, seed=1)


@pytest.mark.parametrize("bad", [[0, -1, -2, -3, -4], [0, 1, 0, -1, -2], [0, -1, -2, -1, -2], [0, 1, 2, 1, 2]])
def test_uniformity_refuses_codes_outside_the_outcomes(monkeypatch, bad):
    # Codes 0, 1 and 4 fall below or between the size-2 outcomes 3 and 5,
    # code 11 above them; none is counted as a neighbouring outcome.
    rows = np.array([bad, [0, 1, 2, 1, 0]])
    monkeypatch.setattr(sampling, "_height_rows", lambda n, seed, stream, lo, hi: rows[: hi - lo])
    with pytest.raises(MeandricError, match="1 of 2 draws are Dyck paths of size 2"):
        matching_uniformity(2, 2, seed=1)


def test_uniformity_memory_grows_with_the_outcomes():
    # Binning by code would take 4**n int64 bins per chunk (384 MiB at peak
    # for n = 12); the outcomes number catalan(12) = 208012.  Their codes
    # taken as a bool @ int64 product peaked at 54.4 MiB; ORing the step
    # columns into the codes peaked at 26.6 MiB, the peak of
    # ``_dyck_walks(12)`` when it copied its rows at every step, and peaks
    # at 16.3 MiB with the walks filled by rank (tracemalloc, numpy 2.4.6).
    tracemalloc.start()
    try:
        matching_uniformity(12, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_run_experiment_summary(loop1):
    cfg = ExperimentConfig(n=400, sample_count=3000, shape=loop1, seed=15)
    summary = run_experiment(cfg)
    assert sum(c for _, c in summary.histogram) == 3000
    assert summary.variance >= 0
    assert abs(summary.mean / 400 - 0.125) < 0.01
    assert summary.predicted_mean == 400 * 0.125
    doc = summary.to_json_dict()
    assert doc["samples"] == 3000
    assert doc["adStatistic"] == summary.ad_statistic


def test_worker_pool_is_capped_by_chunks_and_cores(loop1, monkeypatch):
    # A stand-in pool records its size and maps serially: no process starts.
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(
        n=20, sample_count=3 * sampling._CHUNK, shape=loop1, seed=5, worker_count=10**6
    )
    serial = samples_array(replace(cfg, worker_count=1))
    for cores, expected in ((64, [3]), (2, [2]), (None, [])):
        opened.clear()
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: cores)
        assert np.array_equal(samples_array(cfg), serial)
        assert opened == expected


def test_worker_invariance(loop1):
    base = None
    for workers in (1, 2, 4):
        cfg = ExperimentConfig(n=300, sample_count=2500, shape=loop1, seed=8, worker_count=workers)
        doc = run_experiment(cfg).to_json_dict()
        if base is None:
            base = doc
        else:
            assert doc == base


def test_gates_profiles(loop1):
    cfg = ExperimentConfig(n=500, sample_count=4000, shape=loop1, seed=11)
    summary = run_experiment(cfg)
    meanvar = evaluate_gates(summary, "meanvar")
    assert [c.name for c in meanvar.checks] == ["mean-rate", "variance-ratio"]
    full = evaluate_gates(summary, "full")
    assert [c.name for c in full.checks] == [
        "mean-rate",
        "variance-ratio",
        "skewness",
        "normality",
    ]
    with pytest.raises(ValueError):
        evaluate_gates(summary, "everything")


def test_samples_csv(loop1):
    cfg = ExperimentConfig(n=5, sample_count=4, shape=loop1, seed=2)
    text = samples_csv(samples_array(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == "position,x"
    assert len(lines) == 5
    assert all(line.split(",")[0] == str(i) for i, line in enumerate(lines[1:]))


def test_predictions_hold_for_all_small_shapes():
    # Every shape of half-length <= 2 at n = 2000: empirical mean rate
    # within 5 standard errors of the predicted coefficient, variance
    # within 3 relative standard errors of the variance estimator.
    # (The finite-size mean bias is below 2 standard errors at this
    # sample count, measured exactly beforehand.)
    from meandric.meanders import enumerate_shapes

    for shape in [simple_loop()] + enumerate_shapes(2):
        cfg = ExperimentConfig(n=2000, sample_count=8000, shape=shape, seed=14, worker_count=4)
        summary = run_experiment(cfg)
        assert abs(summary.z_mean) < 5, (shape, summary.z_mean)
        assert abs(summary.z_variance) < 3, (shape, summary.z_variance)


def test_clt_report_drift(loop1):
    # The standardized moments drift toward the normal law as n grows.
    summaries = [
        run_experiment(
            ExperimentConfig(n=n, sample_count=6000, shape=loop1, seed=3, worker_count=4)
        )
        for n in (200, 800, 3200)
    ]
    skews = [abs(s.skewness) for s in summaries]
    assert skews[0] > skews[1] > skews[2]
    assert skews[2] < 0.06
    assert summaries[-1].ad_statistic < 1.035
    assert all(abs(s.variance / s.predicted_variance - 1) < 0.1 for s in summaries)


# ---------------------------------------------------------------------------
# The block kernel against the stream's definition and against tracing
# ---------------------------------------------------------------------------


def reference_partner(n, seed, stream, position):
    """The stream drawn one matching at a time, as it is defined: a new
    generator for the position's key, the walk rotated to start after its
    first minimum, and arcs paired with a stack."""
    key = (seed << 64) | (stream << 60) | position
    perm = np.random.Generator(np.random.Philox(key=key)).permutation(2 * n + 1)
    walk = [1 if v < n else -1 for v in perm]
    heights = list(itertools.accumulate(walk))
    pivot = heights.index(min(heights))
    steps = (walk[pivot + 1 :] + walk[: pivot + 1])[: 2 * n]
    partner, stack = [0] * (2 * n), []
    for i, step in enumerate(steps):
        if step == 1:
            stack.append(i)
        else:
            j = stack.pop()
            partner[i], partner[j] = j, i
    return partner


def path_heights(partner):
    """Dyck path heights of a matching given as 0-based partners: a
    vertex that opens its arc is an up-step."""
    steps = np.where(partner > np.arange(partner.size), 1, -1)
    return np.concatenate([[0], np.cumsum(steps)])


STREAMS = [UPPER_STREAM, LOWER_STREAM]
seeds = st.integers(0, 2**64 - 1)
positions = st.integers(0, 2**60 - 8)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), seeds, positions, st.sampled_from(STREAMS), st.integers(1, 6))
def test_kernel_rows_are_the_stream(n, seed, position, stream, rows):
    heights = _height_rows(n, seed, stream, position, position + rows)
    assert heights.shape == (rows, 2 * n + 1)
    for k, row in enumerate(heights):
        partner = reference_partner(n, seed, stream, position + k)
        NonCrossingMatching((0, *(v + 1 for v in partner)))  # raises unless non-crossing
        assert row.tolist() == path_heights(np.array(partner)).tolist()


@pytest.mark.parametrize("n", [2000, 16384])  # masked rejection over 12 and 15 bits
@pytest.mark.parametrize(
    "seed,stream,position",
    [(0, UPPER_STREAM, 0), (2**64 - 1, LOWER_STREAM, 2**60 - 2), (0x9E3779B97F4A7C15, LOWER_STREAM, 123456789)],
    ids=["origin", "last-keys", "mid"],
)
def test_kernel_rows_are_the_stream_at_large_widths(n, seed, stream, position):
    # The kernel shuffles through the legacy RandomState; the stream is
    # defined by Generator.permutation.  Rows this wide take many Philox
    # blocks.  Should a numpy release make Generator draw differently, this
    # fails while the golden digests, drawn through the kernel, still pass.
    heights = _height_rows(n, seed, stream, position, position + 2)
    for k, row in enumerate(heights):
        assert row.tolist() == path_heights(np.array(reference_partner(n, seed, stream, position + k))).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), seeds, positions, st.sampled_from(STREAMS), st.integers(1, 6))
def test_kernel_heights_are_dyck_paths_of_the_stream(n, seed, position, stream, rows):
    heights = _height_rows(n, seed, stream, position, position + rows)
    assert heights.shape == (rows, 2 * n + 1)
    assert (heights[:, 0] == 0).all() and (heights[:, -1] == 0).all() and (heights >= 0).all()
    assert (np.abs(np.diff(heights, axis=1)) == 1).all()
    for k, row in enumerate(heights):
        partner = np.array(sample_matching(n, position + k, seed, stream).partner[1:]) - 1
        assert row.tolist() == path_heights(partner).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), seeds, positions)
def test_kernel_counts_match_tracing(n, seed, position):
    counts = _experiment_chunk((n, simple_loop(), seed, position, position + 4))
    for k, x in enumerate(counts):
        assert x == count_shape(sample_system(n, position + k, seed), simple_loop())


@pytest.mark.parametrize("n", [16383, 16384])  # the longest 16-bit walk, the shortest 32-bit
def test_extreme_walks_rotate_and_pair_as_rainbow(n):
    # All up-steps first, or all down-steps first: the walk reaches height
    # n or -(n + 1), the extremes of its prefix sums, and both rotate to
    # the rainbow's path and pair as a rainbow.
    rainbow = tuple(range(2 * n, 0, -1))
    tent = np.minimum(np.arange(2 * n + 1), np.arange(2 * n + 1)[::-1])
    for up in ([True] * n + [False] * (n + 1), [False] * (n + 1) + [True] * n):
        heights = _rotated_heights(np.array([up]))
        assert heights.dtype == (np.int16 if 2 * n + 1 < 2**15 else np.int32)
        assert np.array_equal(heights[0], tent)
        assert _matching_from_heights(heights[0].tolist()).partner[1:] == rainbow


# Two copies of the weak example at offsets 1 and 7, completed at n=8.
WEAK_PAIR_UP = [(1, 6), (2, 5), (3, 4), (9, 10), (7, 12), (8, 11), (13, 14), (15, 16)]
WEAK_PAIR_LO = [(1, 2), (5, 10), (6, 9), (7, 8), (3, 4), (11, 16), (12, 15), (13, 14)]


def _with_weak_pair(left, right, arcs):
    """0-based partners of ``left``, then the planted block, then ``right``."""
    block = np.empty(16, dtype=np.int64)
    for a, b in arcs:
        block[a - 1], block[b - 1] = b - 1, a - 1
    offset = left.size
    return np.concatenate([left, block + offset, right + offset + 16])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), seeds, positions)
def test_kernel_counts_weak_shape_match_tracing(n_left, n_right, seed, position):
    weak = parse_shape(WEAK_L5)

    def planted(stream, arcs):
        left, right = (
            np.array(sample_matching(n, at, seed, stream).partner[1:]) - 1
            if n
            else np.empty(0, dtype=np.int64)
            for n, at in ((n_left, position), (n_right, position + 1))
        )
        return _with_weak_pair(left, right, arcs)

    up, lo = planted(UPPER_STREAM, WEAK_PAIR_UP), planted(LOWER_STREAM, WEAK_PAIR_LO)
    system = MeandricSystem(
        NonCrossingMatching((0, *(up + 1).tolist())), NonCrossingMatching((0, *(lo + 1).tolist()))
    )
    count = _count_rows(path_heights(up)[None, :], path_heights(lo)[None, :], weak)[0]
    assert count == count_shape(system, weak)
    assert count >= 2


# ---------------------------------------------------------------------------
# Re-keying: every draw starts where a new generator for its key starts
# ---------------------------------------------------------------------------


def new_generator_rows(n, seed, stream, start, stop):
    """Heights of positions [start, stop), each drawn by a generator built
    for its key, so nothing carries over between draws."""
    up = []
    for position in range(start, stop):
        key = sampling._philox_key(seed, stream, position)
        up.append(np.random.Generator(np.random.Philox(key=key)).permutation(2 * n + 1) < n)
    return _rotated_heights(np.array(up))


def plain(value):
    """A bit generator's state with its arrays as lists."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("previous_n,pending_half", [(1, 1), (3, 0), (40, 0)])
def test_rekeying_forgets_the_previous_draw(previous_n, pending_half):
    # The previous draw leaves a part-used buffer behind, and at n = 1 also
    # the unused half of a 64-bit word.
    _height_rows(previous_n, 5, UPPER_STREAM, 3, 4)
    state = sampling._philox().bitgen.state
    assert state["buffer_pos"] < 4 and state["state"]["counter"][0] > 0
    assert state["has_uint32"] == pending_half
    for n, seed, position in [(5, 2**64 - 1, 123), (1, 0, 0), (40, 31, 2**60 - 4)]:
        rows = _height_rows(n, seed, UPPER_STREAM, position, position + 3)
        expected = new_generator_rows(n, seed, UPPER_STREAM, position, position + 3)
        assert rows.tolist() == expected.tolist()


def test_threads_draw_what_one_thread_draws_in_turn():
    # Each thread keeps its own generator; sizes differ so that the states
    # they leave behind differ too.
    jobs = [(1, 5, UPPER_STREAM, 0, 3000), (4, 5, UPPER_STREAM, 3000, 6000),
            (7, 2**64 - 1, LOWER_STREAM, 0, 2000), (40, 9, UPPER_STREAM, 10, 400)]
    in_turn = [_height_rows(*job).tolist() for job in jobs]
    start = threading.Barrier(len(jobs))

    def draw(job):
        start.wait(timeout=60)
        return [_height_rows(*job).tolist() for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-block
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            results = list(pool.map(draw, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for rows, repeats in zip(in_turn, results):
        assert all(again == rows for again in repeats)


FIRST_DRAWS = {
    "sample_matching": "list(sample_matching(6, 17, 3).partner)",
    "samples_array": "samples_array(ExperimentConfig(5, 40, simple_loop(), 9)).tolist()",
}


@pytest.mark.parametrize("first", list(FIRST_DRAWS))
def test_a_fresh_process_builds_its_generator_at_the_first_draw(first):
    # numpy.random loads at the first draw, not at import, and that draw and
    # the next, which reuses the generator, are those of this process.
    order = [first, *(name for name in FIRST_DRAWS if name != first)]
    code = (
        "import json, sys\n"
        "from meandric import simple_loop\n"
        "from meandric.sampling import ExperimentConfig, sample_matching, samples_array\n"
        "loaded = ['numpy.random' in sys.modules]\n"
        f"draws = [{', '.join(FIRST_DRAWS[name] for name in order)}]\n"
        "loaded.append('numpy.random' in sys.modules)\n"
        "print(json.dumps([loaded, draws]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(meandric.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded, draws = json.loads(out.stdout)
    assert loaded == [False, True]
    assert draws == [eval(FIRST_DRAWS[name]) for name in order]


def test_fresh_state_is_a_new_generators_state_in_plain_ints():
    fresh = sampling._Philox().fresh
    assert fresh == plain(np.random.Philox(key=0).state)
    words = [*fresh["state"]["counter"], *fresh["state"]["key"], *fresh["buffer"]]
    assert all(type(w) is int for w in words)
