"""Acceptance checks, shared by the CLI ``verify`` subcommand and the
pytest acceptance suite.

Each check returns ``(ok, detail)``.  The ``small`` suite covers the
exact identities at half-length <= 2 up to n=7 and the fast numeric
consistency checks; ``full`` takes the exact identities to n=10 and adds
the size-10 weak-shape checks, the half-length-3 scans, the sampler
gates, and the tightness profile.

The tightness check evaluates each shape at the size where
``n * mean_coefficient / half_length`` takes one fixed value, because
the doubling ratio depends on n only through that product (see
:func:`check_tightness`).  A fixed n instead measures the shape's mean
coefficient: at ``r = floor(0.1 sqrt(n))`` the weak example's minimal
ratio tends to about 3.05e-4 for every n.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .analysis import (
    clt_hypothesis_check,
    clt_parameters,
    disjoint_moment_term,
    factorial_moment_strong,
    log_factorial_moment_asymptotic,
    log_factorial_moment_strong,
    shape_constants,
    tightness_profile,
)
from .combinatorics import log_catalan
from .meanders import Shape, enumerate_shapes, parse_shape, simple_loop
from .oracle import block_spectrum, exact_factorial_moment, exact_pair_probability
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
    "run_suite",
]

# A strong shape of half-length 6 with nontrivial bounded faces, and the
# weak shape of half-length 5 whose copies can overlap at offset 7.
STRONG_L6 = "supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7"
WEAK_L5 = "supp=1,2,5,6,9,10;up=1-6,2-5,9-10;lo=1-2,5-10,6-9"

DEFAULT_SEED = 20260810
UNIFORMITY_SEED = 1
WEAK_GATE_SEED = 1

# ``n * mean_coefficient / half_length`` at which the tightness doubling is
# checked: the simple loop's value at n = 10**4.
TIGHTNESS_SCALE = 1250


def _shapes_up_to(ell_max: int) -> list[Shape]:
    out: list[Shape] = []
    for ell in range(1, ell_max + 1):
        out.extend(enumerate_shapes(ell))
    return out


def check_strong_moment_identity(n_max: int = 7, include_l6: bool = True) -> tuple[bool, str]:
    """Enumerated factorial moments equal the strong-shape closed form,
    as exact rationals, for r in 1..3 and all n up to ``n_max``."""
    shapes = [s for s in _shapes_up_to(2) if shape_constants(s).is_strong]
    if include_l6:
        shapes.append(parse_shape(STRONG_L6))
    cases = 0
    for n in range(1, n_max + 1):  # n outermost: each size is enumerated once
        for shape in shapes:
            for r in (1, 2, 3):
                exact = exact_factorial_moment(n, r, shape, size_cap=n_max)
                formula = factorial_moment_strong(n, r, shape)
                if exact != formula:
                    return False, (
                        f"mismatch at n={n} r={r} ell={shape.half_length}: "
                        f"{exact} != {formula}"
                    )
                cases += 1
    return True, f"{cases} exact identities over {len(shapes)} strong shapes"


def check_strong_l6_constants() -> tuple[bool, str]:
    """The half-length-6 example shape has face weight 10 and open pair
    counts (1, 0)."""
    c = shape_constants(parse_shape(STRONG_L6))
    ok = (
        c.face_weight == 10
        and c.open_pairs_upper == 1
        and c.open_pairs_lower == 0
        and c.is_strong
    )
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
    """For every shape of half-length <= 2, weak or strong, the enumerated
    first moment equals the disjoint-copy count term exactly."""
    cases = 0
    for n in range(1, n_max + 1):
        for shape in _shapes_up_to(2):
            exact = exact_factorial_moment(n, 1, shape, size_cap=n_max)
            term = disjoint_moment_term(n, 1, shape)
            if exact != term:
                return False, f"mismatch at n={n} ell={shape.half_length}: {exact} != {term}"
            cases += 1
    return True, f"{cases} first-moment identities"


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
    bound = 2 * disjoint_moment_term(n, 2, shape)
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
    below ell."""
    count = 0
    for shape in _shapes_up_to(ell_max):
        c = shape_constants(shape)
        if c.open_pairs_upper + c.open_pairs_lower > c.half_length - 1:
            return False, f"open pairs exceed ell-1 for {shape}"
        if c.face_weight * (4 * c.half_length - 1) >= 4**c.denominator_power:
            return False, f"growth inequality fails for {shape}"
        count += 1
    return True, f"{count} shapes checked up to half-length {ell_max}"


def check_asymptotic_consistency(n: int = 10**6, r: int = 1000) -> tuple[bool, str]:
    """Log-scale agreement at n=10**6, r=1000: the exact strong-shape
    moment (evaluated by log-gamma) stays within 0.01 of its asymptotic
    form for every strong shape of half-length <= 2, and the Catalan
    ratio matches the dyadic decay 4**-r to the same tolerance."""
    worst = 0.0
    for shape in _shapes_up_to(2):
        if not shape_constants(shape).is_strong:
            continue
        gap = abs(
            log_factorial_moment_strong(n, r, shape)
            - log_factorial_moment_asymptotic(n, r, shape)
        )
        worst = max(worst, gap)
    ratio_gap = abs(log_catalan(n - r) - log_catalan(n) + 2 * r * math.log(2))
    worst = max(worst, ratio_gap)
    return worst < 0.01, f"worst log gap {worst:.3e} (catalan ratio gap {ratio_gap:.3e})"


def check_hypotheses_all_shapes(ell_max: int = 3, n: int = 10**6) -> tuple[bool, str]:
    """The moment-criterion hypotheses hold for every shape of
    half-length <= ell_max at large n (mean scale linear in n, exclusion
    scale 1/n)."""
    for shape in _shapes_up_to(ell_max):
        params = clt_parameters(shape)
        c = shape_constants(shape)
        mu_n = Fraction(n) * params.mean
        corr = sum((o.correction for o in c.overlaps), Fraction(0))
        s_n = Fraction(-(4 * c.half_length - 1) + 2 * corr, 2 * n)
        if not clt_hypothesis_check(mu_n, s_n).all_pass:
            return False, f"hypothesis fails for {shape}"
    return True, f"all shapes up to half-length {ell_max}"


def check_sampler_uniformity(
    draws: int = 1_000_000, seed: int = UNIFORMITY_SEED, worker_count: int = 1
) -> tuple[bool, str]:
    """Chi-square of 10**6 draws at n=4 over all 14 matchings: p > 0.001."""
    report = matching_uniformity(4, draws, seed=seed, worker_count=worker_count)
    return report.p_value > 0.001, f"chi2={report.statistic:.2f} p={report.p_value:.4f}"


def check_worker_invariance(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Summaries are bit-identical across worker counts for a fixed seed."""
    cfgs = [
        ExperimentConfig(n=300, sample_count=4000, shape=simple_loop(), seed=seed, worker_count=w)
        for w in (1, 2, 4)
    ]
    payloads = [run_experiment(c).to_json_dict() for c in cfgs]
    ok = payloads[0] == payloads[1] == payloads[2]
    return ok, "identical summaries for workers 1, 2, 4" if ok else "summaries differ"


def check_clt_gates(
    strong_seed: int = DEFAULT_SEED, weak_seed: int = WEAK_GATE_SEED, worker_count: int = 1
) -> tuple[bool, str]:
    """Monte Carlo gates: the simple loop at n=2000 passes the mean,
    variance, skewness, and normality gates with 20000 samples; the weak
    example shape at n=4000 passes the mean and variance gates against
    its exact coefficients (which include the overlap correction)."""
    strong = run_experiment(
        ExperimentConfig(
            n=2000,
            sample_count=20000,
            shape=simple_loop(),
            seed=strong_seed,
            worker_count=worker_count,
        )
    )
    g1 = evaluate_gates(strong, "full")
    weak = run_experiment(
        ExperimentConfig(
            n=4000,
            sample_count=20000,
            shape=parse_shape(WEAK_L5),
            seed=weak_seed,
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


def run_suite(suite: str, worker_count: int = 1, echo: bool = False) -> list[tuple[str, bool, str]]:
    """Run the named suite; returns (check, ok, detail) triples.  The
    exact identities run to n=7 in the small suite and to n=10 in the
    full one."""
    n_max = 7 if suite == "small" else 10
    small = [
        ("strong-moment-identity", lambda: check_strong_moment_identity(n_max=n_max)),
        ("strong-l6-constants", check_strong_l6_constants),
        ("simple-loop-parameters", check_simple_loop_parameters),
        ("first-moment-all-shapes", lambda: check_first_moment_all_shapes(n_max=n_max)),
        ("growth-inequality", lambda: check_growth_inequality(ell_max=2)),
        ("asymptotic-consistency", check_asymptotic_consistency),
        ("hypothesis-checks", lambda: check_hypotheses_all_shapes(ell_max=2)),
    ]
    full_extra = [
        ("weak-shape-structure", check_weak_shape_structure),
        ("growth-inequality-l3", lambda: check_growth_inequality(ell_max=3)),
        ("hypothesis-checks-l3", lambda: check_hypotheses_all_shapes(ell_max=3)),
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
        ok, detail = fn()
        results.append((name, ok, detail))
        if echo:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
