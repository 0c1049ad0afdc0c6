"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines, or just
``pytest`` (the prints surface on failure).  Criteria 1-7 and 10 call
their checks in :mod:`meandric.verify`, so pytest and ``meandric verify``
judge them the same way.  Criterion 10 checks the tightness doubling at
a size normalised by shape; its docstring derives the rule.
"""

from meandric import verify
from meandric.meanders import parse_shape, simple_loop
from meandric.sampling import (
    ExperimentConfig,
    evaluate_gates,
    matching_uniformity,
    run_experiment,
)

WORKERS = 4


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[AC-{num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_strong_moment_identity():
    # Exact rational equality, zero tolerance: enumerated factorial
    # moments match the strong-shape product formula for r in 1..3,
    # n <= 10, over all strong shapes of half-length <= 2 plus the
    # half-length-6 example.
    ok, detail = verify.check_strong_moment_identity(n_max=10, include_l6=True)
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_02_l6_constants():
    ok, detail = verify.check_strong_l6_constants()
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_03_simple_loop_parameters():
    ok, detail = verify.check_simple_loop_parameters()
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_04_first_moment_identity():
    ok, detail = verify.check_first_moment_all_shapes(n_max=10)
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_05_weak_shape_structure():
    ok, detail = verify.check_weak_shape_structure()
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_growth_inequality():
    ok, detail = verify.check_growth_inequality(ell_max=3)
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_asymptotic_consistency():
    ok, detail = verify.check_asymptotic_consistency(n=10**6, r=1000)
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_08_sampler_uniformity():
    report = matching_uniformity(4, 1_000_000, seed=verify.UNIFORMITY_SEED, worker_count=WORKERS)
    ok_p = report.p_value > 0.001
    ok_workers, detail_workers = verify.check_worker_invariance()
    ok = ok_p and ok_workers
    _report(8, ok, f"chi2 p={report.p_value:.4f}; {detail_workers}")
    assert ok_p, f"uniformity p-value {report.p_value}"
    assert ok_workers, detail_workers


def test_criterion_09_clt_gates():
    strong = run_experiment(
        ExperimentConfig(
            n=2000,
            sample_count=20000,
            shape=simple_loop(),
            seed=verify.DEFAULT_SEED,
            worker_count=WORKERS,
        )
    )
    gates_strong = evaluate_gates(strong, "full")
    weak = run_experiment(
        ExperimentConfig(
            n=4000,
            sample_count=20000,
            shape=parse_shape(verify.WEAK_L5),
            seed=verify.WEAK_GATE_SEED,
            worker_count=WORKERS,
        )
    )
    gates_weak = evaluate_gates(weak, "meanvar")
    ok = gates_strong.all_pass and gates_weak.all_pass
    detail = "; ".join(
        f"{c.name}={c.value:.4g}" for c in gates_strong.checks + gates_weak.checks
    )
    _report(9, ok, detail)
    assert gates_strong.all_pass, gates_strong.to_json_dict()
    assert gates_weak.all_pass, gates_weak.to_json_dict()


def test_criterion_10_tightness_doubling():
    """Consecutive tightness bound terms at least double, in exact
    arithmetic, for the simple loop and for the weak example.

    The bound terms are ``B_u = C(r-1, u-1) (2 ell)**(r-u) F_u`` with F_u
    the disjoint-copy term.  At leading order ``F_{u+1} / F_u = n mean /
    (u+1)``, so ``B_{u+1} / B_u = n mean (r-u) / (2 ell u (u+1))``, which
    is smallest at u = r-1: about ``n mean / (2 ell r (r-1))``.  Doubling
    there needs ``r (r-1) <= n mean / (4 ell)``.  For a given r the ratio
    depends on n only through ``n mean / ell``, and the moment order the
    criterion needs grows like ``sqrt(n mean)``.

    Rule: ``r = isqrt(8/100 * n mean / ell)``, which for the simple loop
    (mean 1/8, ell 1) is exactly ``floor(0.1 sqrt(n))``, and each shape is
    taken at the n where ``n mean / ell = 1250``, the simple loop's value
    at n = 10**4.  There the leading-order ratio is at least 1/0.16 =
    6.25.  The simple loop stays at n = 10**4, r = 10; the weak example
    (mean 1/32768, ell 5) moves to n = 2.048 * 10**8, r = 10.  With the
    shape-blind ``r = floor(0.1 sqrt(n))`` its ratio would tend to
    ``mean / (0.02 ell)``, about 3.05e-4, at every n.
    """
    shapes = (simple_loop(), parse_shape(verify.WEAK_L5))
    assert [verify.tightness_window(s) for s in shapes] == [(10**4, 10), (204_800_000, 10)]
    results = [verify.check_tightness(), verify.check_tightness(verify.WEAK_L5)]
    detail = "; ".join(f"ell={s.half_length}: {d}" for s, (_, d) in zip(shapes, results))
    _report(10, all(ok for ok, _ in results), detail)
    for shape, (ok, d) in zip(shapes, results):
        assert ok, f"doubling fails for the half-length-{shape.half_length} shape: {d}"
