"""Acceptance checks, shared by the CLI ``verify`` subcommand and the
pytest acceptance suite.

Each check returns ``(ok, detail)``.  The ``small`` suite covers the
exact identities at half-length <= 2 up to n=7 and the fast numeric
consistency checks; ``full`` takes the exact identities to n=10 (and to
n=12 at half-length <= 3) and adds the size-10 weak-shape checks, the
half-length-3 scan, the sampler gates, and the tightness profile.  Every
exact identity goes through one sweep, which enumerates each (n, shape)
law once for all its orders.  The growth-inequality scan is also the
check of the CLT hypothesis: it builds every shape's CLT parameters,
which refuse a variance coefficient that is not positive.

The tightness check evaluates each shape at the size where
``n * mean_coefficient / half_length`` takes one fixed value, because
the doubling ratio depends on n only through that product (see
:func:`check_tightness`).  A fixed n instead measures the shape's mean
coefficient: at ``r = floor(0.1 sqrt(n))`` the weak example's minimal
ratio tends to about 3.05e-4 for every n.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from .analysis import (
    _catalan_quotient,
    _disjoint_factorial_moment,
    _log_fraction,
    clt_parameters,
    factorial_moment_strong,
    log_factorial_moment_asymptotic,
    shape_constants,
    tightness_profile,
)
from .meanders import Shape, enumerate_shapes, parse_shape, simple_loop
from .oracle import (
    _factorial_moment,
    block_spectrum,
    exact_distribution,
    exact_factorial_moment,
    exact_pair_probability,
)
from .sampling import (
    ExperimentConfig,
    evaluate_gates,
    matching_uniformity,
    run_experiment,
)

__all__ = [
    "STRONG_L6",
    "WEAK_L5",
    "DEFAULT_SEED",
    "SUITES",
    "run_suite",
]

# A strong shape of half-length 6 with nontrivial bounded faces, the weak
# shape of half-length 5 whose copies can overlap at offset 7, and its mirror
# image, the only other weak shape up to half-length 5 (pinned, since
# enumerating half-length 5 at import would cost every process 0.015 s).
STRONG_L6 = "supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7"
WEAK_L5 = "supp=1,2,5,6,9,10;up=1-6,2-5,9-10;lo=1-2,5-10,6-9"
_WEAK_L5_MIRROR = "supp=1,2,5,6,9,10;up=1-2,5-10,6-9;lo=1-6,2-5,9-10"

DEFAULT_SEED = 20260810
SUITES = ("small", "full")
UNIFORMITY_SEED = 1
WEAK_GATE_SEED = 1

# ``n * mean_coefficient / half_length`` at which the tightness doubling is
# checked: the simple loop's value at n = 10**4.
TIGHTNESS_SCALE = 1250


def _shapes_up_to(ell_max: int) -> list[Shape]:
    return [shape for ell in range(1, ell_max + 1) for shape in enumerate_shapes(ell)]


def _closed_form_mismatch(shapes: list[Shape], orders: tuple[int, ...], n_max: int) -> str | None:
    """Where an enumerated factorial moment first differs from
    :func:`factorial_moment_strong` for n up to ``n_max``, or None.  n runs
    outermost, and each (n, shape) law is enumerated once for all ``orders``."""
    for n in range(1, n_max + 1):
        for shape in shapes:
            law = exact_distribution(n, shape, size_cap=n_max)
            for r in orders:
                exact = _factorial_moment(law, n, r)
                formula = factorial_moment_strong(n, r, shape)
                if exact != formula:
                    return f"mismatch at n={n} r={r} ell={shape.half_length}: {exact} != {formula}"
    return None


def check_strong_moment_identity(n_max: int = 7, ell_max: int = 2) -> tuple[bool, str]:
    """Enumerated factorial moments equal the strong-shape closed form,
    as exact rationals, for r in 1..3 and all n up to ``n_max``, over the
    strong shapes of half-length <= ``ell_max`` and ``STRONG_L6``."""
    shapes = [s for s in _shapes_up_to(ell_max) if shape_constants(s).is_strong]
    shapes.append(parse_shape(STRONG_L6))
    mismatch = _closed_form_mismatch(shapes, (1, 2, 3), n_max)
    return mismatch is None, mismatch or (
        f"{3 * n_max * len(shapes)} exact identities over {len(shapes)} strong shapes"
    )


def check_strong_l6_constants() -> tuple[bool, str]:
    """The half-length-6 example shape has face weight 10 and open pair
    counts (1, 0)."""
    c = shape_constants(parse_shape(STRONG_L6))
    ok = c.face_weight == 10 and (c.open_pairs_upper, c.open_pairs_lower) == (1, 0) and c.is_strong
    return ok, (
        f"face_weight={c.face_weight} open=({c.open_pairs_upper},{c.open_pairs_lower}) "
        f"strong={c.is_strong}"
    )


def check_simple_loop_parameters() -> tuple[bool, str]:
    """The simple loop's CLT coefficients are exactly 1/8 and 13/128."""
    p = clt_parameters(simple_loop())
    ok = p.mean == Fraction(1, 8) and p.variance == Fraction(13, 128)
    return ok, f"mean={p.mean} variance={p.variance}"


def check_first_moment_all_shapes(n_max: int = 7) -> tuple[bool, str]:
    """The enumerated first moment equals the closed form exactly, for n
    up to ``n_max``, over every shape of half-length <= 2 (all strong) and
    the two weak shapes of half-length 5, whose single copies never overlap."""
    shapes = [*_shapes_up_to(2), parse_shape(WEAK_L5), parse_shape(_WEAK_L5_MIRROR)]
    mismatch = _closed_form_mismatch(shapes, (1,), n_max)
    return mismatch is None, mismatch or f"{n_max * len(shapes)} first-moment identities"


def check_weak_shape_structure() -> tuple[bool, str]:
    """The weak example shape: classified weak with offset 7; at n=10
    its pair probability at offset 7 is positive and equals the closed
    form exactly (the equality is enforced inside exact_pair_probability);
    the enumerated second moment respects the disjoint-tuple lower bound;
    and the block spectrum sums to the moment.  n=10 is the first size
    where two disjoint copies fit, so the bound is positive there
    (1/35263202 against the moment 129/141052808); at n=8 it is 0."""
    n = 10
    shape = parse_shape(WEAK_L5)
    c = shape_constants(shape)
    if c.is_strong or [o.offset for o in c.overlaps] != [7]:
        return False, f"expected weak with overlap offsets [7], got {[o.offset for o in c.overlaps]}"
    pair = exact_pair_probability(n, 7, shape, size_cap=n)
    if pair <= 0:
        return False, f"pair probability at n={n} offset=7 is {pair}"
    moment = exact_factorial_moment(n, 2, shape, size_cap=n)
    bound = _disjoint_factorial_moment(n, 2, shape)
    if moment < bound:
        return False, f"moment {moment} below bound {bound}"
    spectrum = block_spectrum(n, 2, shape, size_cap=n)
    if sum(spectrum.values(), Fraction(0)) * 2 != moment:
        return False, "block spectrum does not sum to the factorial moment"
    return True, f"n={n}: pair probability {pair}, second moment {moment} >= bound {bound}"


def check_growth_inequality(ell_max: int = 3) -> tuple[bool, str]:
    """Exact big-integer inequality: face_weight * (4*ell - 1) is below
    the normalizer 4**(2*ell - open_upper - open_lower), for every shape
    of half-length up to ``ell_max``; with it, the open pair counts stay
    below ell, and the CLT mean and variance coefficients are positive.
    :func:`shape_constants` checks the first two and
    :func:`clt_parameters` the last; each raises
    :class:`ShapeInvariantError` for a shape that breaks one.  The
    positive variance is the Gao-Wormald hypothesis ``1 + mu_n s_n > 0``:
    ``mu_n s_n`` is exactly ``variance / mean - 1`` at every n."""
    shapes = _shapes_up_to(ell_max)
    for shape in shapes:
        clt_parameters(shape)
    return True, f"{len(shapes)} shapes checked up to half-length {ell_max}"


def check_asymptotic_consistency() -> tuple[bool, str]:
    """Log-scale agreement at n=10**6, r=1000: the log of the exact
    strong-shape moment stays within 0.01 of its asymptotic form for every
    strong shape of half-length <= 2, and the exact Catalan ratio matches
    the dyadic decay 4**-r to the same tolerance."""
    n, r = 10**6, 1000
    worst = 0.0
    for shape in _shapes_up_to(2):
        if not shape_constants(shape).is_strong:
            continue
        gap = abs(
            _log_fraction(factorial_moment_strong(n, r, shape))
            - log_factorial_moment_asymptotic(n, r, shape)
        )
        worst = max(worst, gap)
    ratio_gap = abs(_log_fraction(_catalan_quotient(n - r, n)) + 2 * r * math.log(2))
    worst = max(worst, ratio_gap)
    return worst < 0.01, f"worst log gap {worst:.3e} (catalan ratio gap {ratio_gap:.3e})"


def check_sampler_uniformity(worker_count: int = 1) -> tuple[bool, str]:
    """Chi-square of 10**6 draws at n=4 over all 14 matchings: p > 0.001."""
    report = matching_uniformity(4, 10**6, seed=UNIFORMITY_SEED, worker_count=worker_count)
    return report.p_value > 0.001, f"chi2={report.statistic:.2f} p={report.p_value:.4f}"


def check_worker_invariance() -> tuple[bool, str]:
    """Summaries are bit-identical across worker counts for a fixed seed."""
    cfgs = [
        ExperimentConfig(n=300, sample_count=4000, shape=simple_loop(), seed=DEFAULT_SEED, worker_count=w)
        for w in (1, 2, 4)
    ]
    payloads = [run_experiment(c).to_json_dict() for c in cfgs]
    ok = payloads[0] == payloads[1] == payloads[2]
    return ok, "identical summaries for workers 1, 2, 4" if ok else "summaries differ"


def check_clt_gates(worker_count: int = 1) -> tuple[bool, str]:
    """Monte Carlo gates: the simple loop at n=2000 passes the mean,
    variance, skewness, and normality gates with 20000 samples; the weak
    example shape at n=4000 passes the mean and variance gates against
    its exact coefficients (which include the overlap correction)."""
    strong = run_experiment(
        ExperimentConfig(
            n=2000,
            sample_count=20000,
            shape=simple_loop(),
            seed=DEFAULT_SEED,
            worker_count=worker_count,
        )
    )
    g1 = evaluate_gates(strong, "full")
    weak = run_experiment(
        ExperimentConfig(
            n=4000,
            sample_count=20000,
            shape=parse_shape(WEAK_L5),
            seed=WEAK_GATE_SEED,
            worker_count=worker_count,
        )
    )
    g2 = evaluate_gates(weak, "meanvar")
    detail = (
        f"strong: {[(c.name, round(c.value, 4)) for c in g1.checks]}; "
        f"weak: {[(c.name, round(c.value, 4)) for c in g2.checks]}"
    )
    return g1.all_pass and g2.all_pass, detail


def tightness_window(shape: Shape) -> tuple[int, int]:
    """The size n and moment order r at which the tightness doubling is
    checked for ``shape``.

    n is the smallest size with ``n * mean / ell >= TIGHTNESS_SCALE``, and
    ``r = isqrt(8/100 * n * mean / ell)``.  For the simple loop (mean 1/8,
    ell 1) this is n = 10**4 with ``r = floor(0.1 sqrt(n)) = 10``.
    """
    scale = clt_parameters(shape).mean / shape.half_length
    n = math.ceil(TIGHTNESS_SCALE / scale)
    return n, math.isqrt(math.floor(Fraction(8, 100) * n * scale))


def check_tightness(shape_text: str | None = None) -> tuple[bool, str]:
    """Doubling of the tightness bound terms, ``B_{u+1} >= 2 B_u`` for
    every u < r, in exact arithmetic at :func:`tightness_window`.

    At leading order ``B_{u+1} / B_u = n mean (r-u) / (2 ell u (u+1))``,
    smallest at u = r-1, where it is about ``n mean / (2 ell r (r-1))``.
    For a given r the ratio depends on n only through ``n mean / ell``,
    and the moment order the criterion needs, about ``sqrt(n mean)``, is
    also set by ``n mean`` rather than by n.  The window ``r**2 <= 8/100 *
    n mean / ell`` keeps the leading-order ratio at or above 1/0.16 = 6.25
    for every shape.  A shape-blind window ``r = floor(0.1 sqrt(n))``
    instead leaves it near ``mean / (0.02 ell)``: 6.25 for the simple loop
    but about 3.05e-4 for the weak example (mean 1/32768, ell 5) at every
    n.
    """
    shape = simple_loop() if shape_text is None else parse_shape(shape_text)
    n, r = tightness_window(shape)
    profile = tightness_profile(n, r, shape)
    ok = profile.min_ratio is not None and profile.min_ratio >= 2
    ratio = float(profile.min_ratio) if profile.min_ratio is not None else float("nan")
    return ok, f"min ratio {ratio:.4g} at n={n} r={r}"


def run_suite(suite: str, worker_count: int = 1) -> list[tuple[str, bool, str]]:
    """Run the named suite; returns (check, ok, detail) triples.  The
    exact identities run to n=7 in the small suite and to n=10 in the
    full one, which also takes them to n=12 over every strong shape of
    half-length <= 3.  Each check also prints one line with its wall
    seconds, which stay out of the results.  An unknown suite raises
    ValueError before any check runs."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected {' or '.join(SUITES)}")
    n_max = 7 if suite == "small" else 10
    small = [
        ("strong-moment-identity", lambda: check_strong_moment_identity(n_max=n_max)),
        ("strong-l6-constants", check_strong_l6_constants),
        ("simple-loop-parameters", check_simple_loop_parameters),
        ("first-moment-all-shapes", lambda: check_first_moment_all_shapes(n_max=n_max)),
        ("growth-inequality", lambda: check_growth_inequality(ell_max=2)),
        ("asymptotic-consistency", check_asymptotic_consistency),
    ]
    full_extra = [
        ("closed-form-identity-n12", lambda: check_strong_moment_identity(n_max=12, ell_max=3)),
        ("weak-shape-structure", check_weak_shape_structure),
        ("growth-inequality-l3", lambda: check_growth_inequality(ell_max=3)),
        (
            "sampler-uniformity",
            lambda: check_sampler_uniformity(worker_count=worker_count),
        ),
        ("worker-invariance", check_worker_invariance),
        ("clt-gates", lambda: check_clt_gates(worker_count=worker_count)),
        ("tightness-simple-loop", check_tightness),
        ("tightness-weak-example", lambda: check_tightness(WEAK_L5)),
    ]
    checks = small if suite == "small" else small + full_extra
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        results.append((name, ok, detail))
        seconds = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({seconds:.2f} s)")
    return results
