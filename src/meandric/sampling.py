"""Exactly uniform sampling of meandric systems and Monte Carlo checks.

Sampling recipe: draw a uniformly random arrangement of n up-steps and
n + 1 down-steps, rotate it to start just after the first minimum of its
prefix-sum walk (the unique rotation whose proper prefixes never go
negative), and drop the final down-step.  The result is an exactly
uniform Dyck path, which the stack bijection turns into an exactly
uniform non-crossing matching.  The block kernel keeps each walk as a row
of the heights of its rotated path and finds a shape's arcs on them
(:func:`meandric.meanders.arcs_at`), so counting never pairs the steps;
only :func:`sample_matching`, whose result is a matching, does, by
passing its row to :func:`meandric.combinatorics._matching_from_heights`.

Everything is driven by counter-based (keyed Philox) randomness, so each
draw is a pure function of ``(seed, stream, position)``: parallel workers
need no shared state and results cannot depend on scheduling.  Each thread
owns one generator, built at its first draw, so importing the package
loads no ``numpy.random``.

Summary statistics are accumulated in exact integer arithmetic (central
moments by their definition) and converted to floats once at the end, which
makes summaries bit-identical for a fixed seed regardless of the worker count.

The gates need two special functions, the normal CDF for the
Anderson-Darling statistic and the chi-square tail for the uniformity
test; both are written on the standard library's ``math`` (``erfc``,
``lgamma``, ``fsum``), so the package needs numpy alone at run time.
The uniformity test bins each draw by the rank of its Dyck path among all
``catalan(n)`` of them.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .analysis import clt_parameters
from .combinatorics import (
    NonCrossingMatching,
    _bit_codes,
    _dyck_walks,
    _matching_from_heights,
    _rotated_heights,
    enumerate_matchings,  # noqa: F401  (perfbench/tracing.py wraps this global)
)
from .errors import MeandricError
from .meanders import MeandricSystem, Shape, arcs_at, format_shape

__all__ = [
    "UPPER_STREAM",
    "LOWER_STREAM",
    "sample_matching",
    "sample_system",
    "ExperimentConfig",
    "SampleSummary",
    "run_experiment",
    "summarize_samples",
    "samples_array",
    "samples_csv",
    "anderson_darling_statistic",
    "chi_square_uniformity",
    "UniformityReport",
    "matching_uniformity",
    "GateCheck",
    "GateReport",
    "GATE_PROFILES",
    "evaluate_gates",
]

UPPER_STREAM = 0
LOWER_STREAM = 1
_DITHER_STREAM = 2

_CHUNK = 1024
# Walk steps per block of draws.  The kernel's working arrays take about 16
# bytes per step, half of it the int64 shuffle row, so a block takes about
# 1 MiB.  Rows are keyed by position, so the block size changes no draw.  At
# n = 2000 (16 rows per block) ``_experiment_chunk`` took 201 us per system,
# against 223 us at 1 << 14 and 224 us at 1 << 17 (median of 6 runs of 256
# systems; 2 cores, Python 3.11.7, numpy 2.4.6).
_BLOCK_CELLS = 1 << 16

# The normality gate's level, and its critical value for the size-adjusted
# statistic with mean and variance estimated from the sample.
_AD_LEVEL = 0.01
_AD_CRITICAL = 1.035

GATE_PROFILES = ("meanvar", "full")


def _philox_key(seed: int, stream: int, position: int) -> int:
    """128-bit Philox key from (seed, stream, position)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    if not 0 <= position < 1 << 60:
        raise ValueError(f"position {position} out of range")
    if not 0 <= stream < 16:
        raise ValueError(f"stream {stream} out of range")
    return (seed << 64) | (stream << 60) | position


class _Philox:
    """A Philox bit generator re-keyed for every draw; each thread gets its
    own from :func:`_philox`, built at the thread's first draw, so a
    process that never samples never loads ``numpy.random`` (about
    2.6 MiB and 9 ms at import).

    ``fresh`` is the state of a new generator: zero counter, empty buffer.
    Writing a key into it and assigning it puts the generator exactly where
    ``Philox(key=key)`` starts, at a fraction of the cost of building one,
    so no draw depends on the draws before it.

    numpy reports the counter, key and buffer as uint64 arrays, and its
    state setter converts their numpy scalars one at a time; ``fresh``
    holds them as lists of plain ints, which it reads about three times as
    fast.

    ``shuffle`` is the legacy ``RandomState.shuffle`` over the same bit
    generator.  It runs the same Fisher-Yates loop with the same bounded
    draws as ``Generator.shuffle``, so the walks are the same bytes, but
    it spends less per call outside the loop; and numpy keeps the legacy
    stream frozen (NEP 19).  At n = 4 (2 cores, Python 3.11.7, numpy
    2.4.6) a draw costs about 1.7 us: 0.45 us to reset the state, 0.95 us
    in the legacy shuffle (1.3 us in ``Generator.shuffle``), 0.03 us of
    loop and 0.2 us for the block's heights and codes.
    """

    def __init__(self) -> None:
        self.bitgen = np.random.Philox(key=0)
        self.shuffle = np.random.RandomState(self.bitgen).shuffle
        fresh = self.bitgen.state
        fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self.fresh = fresh
        self.key = fresh["state"]["key"]  # 64-bit words, low word first


_THREAD = threading.local()


def _philox() -> _Philox:
    """The calling thread's generator, built at its first call."""
    try:
        return _THREAD.philox
    except AttributeError:
        _THREAD.philox = philox = _Philox()
        return philox


def _blocks(n: int, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Split positions [start, stop) into blocks of about ``_BLOCK_CELLS``
    walk steps."""
    step = max(1, _BLOCK_CELLS // (2 * n + 1))
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _check_size(n: int) -> None:
    """Refuse a size the kernel cannot draw: its heights are at most
    32-bit, so a walk of 2n + 1 steps must stay below 2**31."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if 2 * n + 1 >= 1 << 31:
        raise ValueError(f"n must be below 2**30, got {n}")


def _height_rows(n: int, seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """Dyck path heights of the matchings at positions [start, stop) of one
    (seed, stream), one ``2n + 1`` row each (see ``_rotated_heights``).

    Each walk is drawn as ``RandomState(Philox(key)).shuffle(arange(2n +
    1))`` for its position's key, its entries below n marking the up-steps.
    The stream is defined as ``Generator(Philox(key)).permutation(2n + 1)``;
    the tests pin the two equal, at widths up to 32769, where one walk takes
    many Philox blocks.
    """
    high, low = divmod(_philox_key(seed, stream, start), 1 << 64)
    _philox_key(seed, stream, stop - 1)  # low + k must stay a valid key
    width = 2 * n + 1
    perm = np.empty((stop - start, width), dtype=np.int64)
    perm[:] = np.arange(width)
    philox = _philox()
    key, fresh, bitgen, shuffle = philox.key, philox.fresh, philox.bitgen, philox.shuffle
    key[1] = high
    for k, row in zip(range(low, low + stop - start), perm):
        key[0] = k
        bitgen.state = fresh
        shuffle(row)
    return _rotated_heights(perm < n)


def sample_matching(n: int, position: int, seed: int, stream: int = UPPER_STREAM) -> NonCrossingMatching:
    """Exactly uniform non-crossing matching of [2n]; a pure function of
    (seed, stream, position)."""
    _check_size(n)
    return _matching_from_heights(_height_rows(n, seed, stream, position, position + 1)[0].tolist())


def sample_system(n: int, position: int, seed: int) -> MeandricSystem:
    """Uniform meandric system: independent upper and lower matchings
    drawn from separate sub-streams of the same position."""
    return MeandricSystem(
        sample_matching(n, position, seed, UPPER_STREAM),
        sample_matching(n, position, seed, LOWER_STREAM),
    )


def _count_rows(up: np.ndarray, lo: np.ndarray, shape: Shape) -> np.ndarray:
    """Occurrences of the shape in each system of a block, given as rows of
    upper and lower Dyck path heights."""
    width = up.shape[1] - 2 * shape.half_length
    hits = arcs_at(up, shape.upper, width) & arcs_at(lo, shape.lower, width)
    return np.count_nonzero(hits, axis=1)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo run: count a shape in ``sample_count`` uniform
    systems of size n at the given seed.  At least two samples are needed
    for the sample variance."""

    n: int
    sample_count: int
    shape: Shape
    seed: int
    worker_count: int = 1

    def __post_init__(self) -> None:
        _check_size(self.n)
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")
        _philox_key(self.seed, UPPER_STREAM, self.sample_count - 1)
        if self.shape.half_length > self.n:
            raise MeandricError(
                f"shape of half-length {self.shape.half_length} cannot fit in a size-{self.n} system"
            )


def _experiment_chunk(args: tuple[int, Shape, int, int, int]) -> np.ndarray:
    n, shape, seed, start, stop = args
    out = np.empty(stop - start, dtype=np.int64)
    for lo, hi in _blocks(n, start, stop):
        out[lo - start : hi - start] = _count_rows(
            _height_rows(n, seed, UPPER_STREAM, lo, hi),
            _height_rows(n, seed, LOWER_STREAM, lo, hi),
            shape,
        )
    return out


def _run_chunks(worker, args_list: list, worker_count: int) -> list:
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    # The pool starts all its processes at the first submit, so more than
    # one per chunk or per core would only idle.
    workers = min(worker_count, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in args_list]
    # Imported only here, where a pool starts: it loads multiprocessing,
    # socket, subprocess and logging, which no serial run needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args_list, chunksize=1))


@dataclass(frozen=True)
class SampleSummary:
    """Statistics of one experiment, with the CLT predictions alongside.

    Standardized sample moments use population central moments; the
    normality statistic is reported twice, once on the raw standardized
    counts and once after adding a uniform(-1/2, 1/2) dither that removes
    the integer-lattice artifact (the counts live on a lattice whose
    spacing does not shrink with the sample size, which inflates any
    continuous-distribution test; the dithered statistic is the one
    gates should use).  The skewness, the excess kurtosis and the raw
    statistic are None when all counts are equal: they divide by a zero
    variance there.
    """

    n: int
    sample_count: int
    seed: int
    shape_text: str
    histogram: tuple[tuple[int, int], ...]
    mean: float
    variance: float
    skewness: float | None
    excess_kurtosis: float | None
    predicted_mean: float
    predicted_variance: float
    z_mean: float
    z_variance: float
    ad_statistic: float
    ad_statistic_raw: float | None
    ad_pass: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.sample_count,
            "seed": self.seed,
            "shape": self.shape_text,
            "histogram": {str(x): c for x, c in self.histogram},
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excessKurtosis": self.excess_kurtosis,
            "predictedMean": self.predicted_mean,
            "predictedVariance": self.predicted_variance,
            "zMean": self.z_mean,
            "zVariance": self.z_variance,
            "adStatistic": self.ad_statistic,
            "adStatisticRaw": self.ad_statistic_raw,
            "adLevel": _AD_LEVEL,
            "adCritical": _AD_CRITICAL,
            "adPass": self.ad_pass,
        }


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry, ``0.5 * erfc(-z / sqrt(2))``."""
    return np.array([0.5 * math.erfc(t) for t in (-z / math.sqrt(2)).tolist()])


def anderson_darling_statistic(values: np.ndarray) -> float:
    """Size-adjusted normality statistic with estimated mean/variance.
    Fewer than 2 values, or values that are all equal, raise ValueError."""
    x = np.sort(np.asarray(values, dtype=float))
    count = x.size
    if count < 2:
        raise ValueError(f"values must hold at least 2 numbers, got {count}")
    if x[0] == x[-1]:
        raise ValueError(f"values have zero variance: all {count} are {x[0]}")
    z = (x - x.mean()) / x.std(ddof=1)
    cdf = np.clip(_ndtr(z), 1e-15, 1 - 1e-15)
    i = np.arange(1, count + 1)
    a2 = -count - np.mean((2 * i - 1) * (np.log(cdf) + np.log1p(-cdf[::-1])))
    return float(a2 * (1 + 0.75 / count + 2.25 / count**2))


def _central_moments(histogram: Sequence[tuple[int, int]], total: int) -> tuple[Fraction, ...]:
    """Exact population mean and central moments m2..m4 from an integer
    histogram, by their definition in integers: with ``s1 = sum(c * x)``,
    ``m_k = sum(c * (total * x - s1)**k) / total**(k + 1)``."""
    s1 = sum(c * x for x, c in histogram)
    deviations = [(c, total * x - s1) for x, c in histogram]
    return Fraction(s1, total), *(
        Fraction(sum(c * d**k for c, d in deviations), total ** (k + 1)) for k in (2, 3, 4)
    )


def run_experiment(cfg: ExperimentConfig) -> SampleSummary:
    """Run the experiment and summarize against the CLT prediction.

    The result depends only on (n, sample_count, shape, seed): work is
    split into fixed-size position chunks merged in position order, and
    statistics come from exact integer accumulators.
    """
    return summarize_samples(cfg, samples_array(cfg))


def summarize_samples(cfg: ExperimentConfig, xs: np.ndarray) -> SampleSummary:
    """Summary of the shape counts ``samples_array(cfg)`` against the CLT
    prediction, for callers that also keep the counts."""
    values, counts = np.unique(xs, return_counts=True)
    histogram = tuple((int(v), int(c)) for v, c in zip(values, counts))
    total = cfg.sample_count

    mean, m2, m3, m4 = _central_moments(histogram, total)
    variance = m2 * total / (total - 1)
    skew = float(m3) / float(m2) ** 1.5 if m2 > 0 else None
    exkurt = float(m4) / float(m2) ** 2 - 3 if m2 > 0 else None

    params = clt_parameters(cfg.shape)
    pred_mean = cfg.n * params.mean
    pred_var = cfg.n * params.variance
    z_mean = (float(mean) - float(pred_mean)) / math.sqrt(float(pred_var) / total)
    z_var = (float(variance) - float(pred_var)) / (float(pred_var) * math.sqrt(2 / (total - 1)))

    sorted_values = np.repeat(values, counts).astype(float)
    gen = np.random.Generator(np.random.Philox(key=_philox_key(cfg.seed, _DITHER_STREAM, 0)))
    dithered = sorted_values + gen.random(total) - 0.5
    ad = anderson_darling_statistic(dithered)
    ad_raw = anderson_darling_statistic(sorted_values) if m2 > 0 else None

    return SampleSummary(
        n=cfg.n,
        sample_count=cfg.sample_count,
        seed=cfg.seed,
        shape_text=format_shape(cfg.shape),
        histogram=histogram,
        mean=float(mean),
        variance=float(variance),
        skewness=skew,
        excess_kurtosis=exkurt,
        predicted_mean=float(pred_mean),
        predicted_variance=float(pred_var),
        z_mean=z_mean,
        z_variance=z_var,
        ad_statistic=ad,
        ad_statistic_raw=ad_raw,
        ad_pass=ad < _AD_CRITICAL,
    )


def samples_array(cfg: ExperimentConfig) -> np.ndarray:
    """Shape counts for positions 0..sample_count-1, in position order."""
    chunks = [
        (cfg.n, cfg.shape, cfg.seed, start, min(start + _CHUNK, cfg.sample_count))
        for start in range(0, cfg.sample_count, _CHUNK)
    ]
    parts = _run_chunks(_experiment_chunk, chunks, cfg.worker_count)
    return np.concatenate(parts)


def samples_csv(xs: np.ndarray) -> str:
    """Per-sample CSV: one (position, count) row per draw."""
    lines = ["position,x"]
    lines += [f"{i},{int(x)}" for i, x in enumerate(xs)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Uniformity check
# ---------------------------------------------------------------------------


def _chdtrc(df: int, x: float) -> float:
    """Chi-square survival function ``Q(df / 2, x / 2)`` for a whole
    number of degrees of freedom, by the finite sums of the regularized
    upper incomplete gamma function at integer and half-integer order
    (DLMF §8.4)."""
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    if df % 2 == 0:
        return math.fsum(math.exp(j * log_y - y - math.lgamma(j + 1)) for j in range(df // 2))
    return math.erfc(math.sqrt(y)) + math.fsum(
        math.exp((j + 0.5) * log_y - y - math.lgamma(j + 1.5)) for j in range(df // 2)
    )


def chi_square_uniformity(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform law.  No bins,
    or counts that add up to 0, raise ValueError."""
    c = np.asarray(counts, dtype=float)
    if c.size == 0:
        raise ValueError("counts must hold at least one bin, got none")
    total = c.sum()
    if total == 0:
        raise ValueError(f"counts must add up to more than 0, got {c.size} empty bins")
    expected = total / c.size
    stat = float(((c - expected) ** 2 / expected).sum())
    return stat, _chdtrc(c.size - 1, stat)


@dataclass(frozen=True)
class UniformityReport:
    n: int
    draws: int
    seed: int
    counts: tuple[int, ...]
    statistic: float
    p_value: float


def _dyck_codes(heights: np.ndarray) -> np.ndarray:
    """One integer per row of 2n + 1 Dyck path heights: bit 2n - 1 - t is
    set when step t goes down, so the codes of ``_dyck_walks(n)`` ascend."""
    return _bit_codes((heights[:, 1:] < heights[:, :-1])[:, ::-1])


def _uniformity_chunk(args: tuple[int, int, int, int, np.ndarray]) -> np.ndarray:
    """Counts of a chunk's draws by the rank of their code among the
    sorted ``outcomes``; a code that is none of them is not counted."""
    n, seed, start, stop, outcomes = args
    out = np.zeros(outcomes.size, dtype=np.int64)
    for lo, hi in _blocks(n, start, stop):
        drawn = _dyck_codes(_height_rows(n, seed, UPPER_STREAM, lo, hi))
        rank = np.searchsorted(outcomes, drawn)
        hit = outcomes[np.minimum(rank, outcomes.size - 1)] == drawn
        out += np.bincount(rank[hit], minlength=out.size)
    return out


def matching_uniformity(n: int, draws: int, seed: int, worker_count: int = 1) -> UniformityReport:
    """Draw matchings and chi-square the observed counts over all
    ``catalan(n)`` outcomes against exact uniformity.  A drawn path that
    is no Dyck path of size n raises :class:`MeandricError`."""
    if n < 2:  # one outcome leaves the chi-square nothing to compare
        raise ValueError(f"n must be >= 2, got {n}")
    _check_size(n)
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    outcomes = _dyck_codes(_dyck_walks(n))
    chunk = 50_000
    chunks = [(n, seed, start, min(start + chunk, draws), outcomes) for start in range(0, draws, chunk)]
    parts = _run_chunks(_uniformity_chunk, chunks, worker_count)
    counts = np.sum(parts, axis=0)
    if counts.sum() != draws:
        raise MeandricError(f"{counts.sum()} of {draws} draws are Dyck paths of size {n}")
    stat, p = chi_square_uniformity(counts)
    return UniformityReport(
        n=n, draws=draws, seed=seed, counts=tuple(int(c) for c in counts), statistic=stat, p_value=p
    )


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateCheck:
    name: str
    value: float | None
    requirement: str
    passed: bool


@dataclass(frozen=True)
class GateReport:
    checks: tuple[GateCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "value": c.value, "requirement": c.requirement, "pass": c.passed}
                for c in self.checks
            ],
            "pass": self.all_pass,
        }


def evaluate_gates(summary: SampleSummary, profile: str = "full") -> GateReport:
    """Statistical gates on a summary.

    ``meanvar``: per-vertex mean within 0.002 absolute of the predicted
    coefficient, and variance within 5 percent of the prediction.
    ``full`` adds the skewness bound 0.1, which an undefined skewness
    fails, and the normality gate at the 1% level.
    """
    if profile not in GATE_PROFILES:
        raise ValueError(f"unknown gate profile {profile!r}")
    mean_dev = abs(summary.mean - summary.predicted_mean) / summary.n
    var_ratio = summary.variance / summary.predicted_variance
    checks = [
        GateCheck("mean-rate", mean_dev, "|mean - predicted| / n < 0.002", mean_dev < 0.002),
        GateCheck("variance-ratio", var_ratio, "in [0.95, 1.05]", 0.95 <= var_ratio <= 1.05),
    ]
    if profile == "full":
        skew = summary.skewness
        checks.append(GateCheck("skewness", skew, "|skewness| < 0.1", skew is not None and abs(skew) < 0.1))
        checks.append(
            GateCheck(
                "normality",
                summary.ad_statistic,
                f"dithered statistic < {_AD_CRITICAL} ({_AD_LEVEL:.0%} level)",
                summary.ad_pass,
            )
        )
    return GateReport(tuple(checks))
