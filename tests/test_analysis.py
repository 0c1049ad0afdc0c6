import dataclasses
import math
from fractions import Fraction

import pytest

from meandric import analysis, verify
from meandric.analysis import (
    closed_form_pair_probability,
    clt_hypothesis_check,
    clt_parameters,
    constants_report,
    disjoint_moment_term,
    face_decomposition,
    factorial_moment_strong,
    log_factorial_moment_asymptotic,
    shape_constants,
    tightness_profile,
)
from meandric.combinatorics import catalan
from meandric.errors import InvalidShapeError, ShapeInvariantError, WeakShapeError
from meandric.meanders import enumerate_shapes, simple_loop
from meandric.oracle import exact_factorial_moment


def all_shapes(ell_max):
    return [s for ell in range(1, ell_max + 1) for s in enumerate_shapes(ell)]


def joint_faces(shape, offset):
    """Faces of two copies at 1 and ``offset``, or None when no system
    holds both: they share a vertex, cross, or leave an odd bounded face."""
    shift = offset - 1
    if set(shape.support) & {v + shift for v in shape.support}:
        return None
    try:
        decomp = face_decomposition([(shape, 1), (shape, offset)])
    except InvalidShapeError:
        return None
    if any(count % 2 for count in decomp.bounded_counts()):
        return None
    return decomp


# ---------------------------------------------------------------------------
# Face decomposition
# ---------------------------------------------------------------------------


def test_simple_loop_faces(loop1):
    decomp = face_decomposition(loop1)
    assert decomp.upper == () and decomp.lower == ()
    assert decomp.open_upper == 0 and decomp.open_lower == 0


def test_strong_l6_faces(strong_l6):
    decomp = face_decomposition(strong_l6)
    assert dict(decomp.upper) == {(1, 4): 2, (7, 12): 4}
    assert dict(decomp.lower) == {(4, 7): 2, (1, 12): 6}
    assert decomp.open_upper == 2 and decomp.open_lower == 0


def test_weak_l5_pair_faces(weak_l5):
    # Two copies at offsets 1 and 7: the bounded faces each hold one free
    # run of two, and each unbounded face picks up the other run.  These
    # open counts are pinned by enumeration: the closed-form pair
    # probability matches brute force at n=9 only with (2, 2).
    decomp = joint_faces(weak_l5, 7)
    assert decomp is not None
    assert dict(decomp.upper) == {(2, 5): 2}
    assert dict(decomp.lower) == {(12, 15): 2}
    assert decomp.open_upper == 2 and decomp.open_lower == 2


def reference_faces(placement):
    """The face decomposition of placed copies, or the prefix of the error
    it raises, from the definitions: each free vertex belongs to the
    shortest arc enclosing it, and two arcs cross when they interleave."""
    upper, lower, support = [], [], []
    for shape, offset in placement:
        shift = offset - 1
        upper += [(a + shift, b + shift) for a, b in shape.upper]
        lower += [(a + shift, b + shift) for a, b in shape.lower]
        support += [v + shift for v in shape.support]
    if len(set(support)) != len(support):
        return "support:"
    for arcs in (upper, lower):
        if any(a < c < b < d for a, b in arcs for c, d in arcs):
            return "crossing:"
    free = [v for v in range(min(support), max(support) + 1) if v not in support]

    def faces(arcs):
        counts, open_count = {}, 0
        for v in free:
            enclosing = [(a, b) for a, b in arcs if a < v < b]
            if enclosing:
                arc = min(enclosing, key=lambda ab: ab[1] - ab[0])
                counts[arc] = counts.get(arc, 0) + 1
            else:
                open_count += 1
        return tuple(sorted(counts.items())), open_count

    (up, open_up), (lo, open_lo) = faces(upper), faces(lower)
    return analysis.FaceDecomposition(up, lo, open_up, open_lo)


def test_face_counts_partition_free_vertices(strong_l6, weak_l5):
    for shape in all_shapes(4) + [strong_l6, weak_l5]:
        decomp = face_decomposition(shape)
        free = shape.support[-1] - len(shape.support)
        assert sum(c for _, c in decomp.upper) + decomp.open_upper == free
        assert sum(c for _, c in decomp.lower) + decomp.open_lower == free
        # One, two and three copies; the third sits just right of the second.
        ell = shape.half_length
        placements = [[(shape, 1)]]
        for offset in range(2, 2 * ell + 4):
            placements.append([(shape, 1), (shape, offset)])
            placements.append([(shape, 1), (shape, offset), (shape, 2 * ell + offset)])
        for placement in placements:
            try:
                got = face_decomposition(placement)
            except InvalidShapeError as exc:
                got = str(exc).split()[0]
            assert got == reference_faces(placement), placement


def test_face_decomposition_rejects_crossing(loop1, weak_l5):
    with pytest.raises(InvalidShapeError):
        face_decomposition([(weak_l5, 1), (weak_l5, 3)])  # arcs cross
    with pytest.raises(InvalidShapeError):
        face_decomposition([(loop1, 1), (loop1, 2)])  # shared vertex


# ---------------------------------------------------------------------------
# Shape constants and overlaps
# ---------------------------------------------------------------------------


def test_simple_loop_constants(loop1):
    c = shape_constants(loop1)
    assert (c.face_weight, c.open_pairs_upper, c.open_pairs_lower) == (1, 0, 0)
    assert c.is_strong and c.half_length == 1


def test_strong_l6_constants(strong_l6):
    c = shape_constants(strong_l6)
    assert (c.face_weight, c.open_pairs_upper, c.open_pairs_lower) == (10, 1, 0)
    assert c.is_strong and c.half_length == 6


def test_weak_l5_constants(weak_l5):
    c = shape_constants(weak_l5)
    assert (c.face_weight, c.open_pairs_upper, c.open_pairs_lower) == (1, 1, 1)
    assert not c.is_strong
    (info,) = c.overlaps
    assert info.offset == 7
    assert info.base_size == 16
    assert info.face_weight == 1
    assert (info.open_free_upper, info.open_free_lower) == (2, 2)
    assert info.correction == 16


# shape_constants is cached, so the invariant tests call the uncached
# function under __wrapped__.


def test_open_pairs_bound_is_checked(loop1, monkeypatch):
    decomp = face_decomposition(loop1)
    widened = dataclasses.replace(decomp, open_upper=decomp.open_upper + 2)
    monkeypatch.setattr(analysis, "face_decomposition", lambda shape: widened)
    with pytest.raises(ShapeInvariantError, match="1 \\+ 0 open pairs exceed half-length - 1 = 0"):
        shape_constants.__wrapped__(loop1)


def test_face_weight_bound_is_checked(loop1, monkeypatch):
    # The simple loop's normalizer is 4**2 = 16; a face weight of 6 gives 18.
    monkeypatch.setattr(analysis, "_face_weight", lambda decomp: 6)
    with pytest.raises(ShapeInvariantError, match="face weight 6 times 3 is not below 4\\*\\*2"):
        shape_constants.__wrapped__(loop1)


def test_clt_positivity_is_checked(loop1, monkeypatch):
    empty = dataclasses.replace(shape_constants(loop1), face_weight=0)
    monkeypatch.setattr(analysis, "shape_constants", lambda shape: empty)
    with pytest.raises(ShapeInvariantError, match="must both be positive"):
        clt_parameters(loop1)
    # The growth-inequality scan builds every shape's CLT parameters, so it
    # is the verify check of the positive variance.
    with pytest.raises(ShapeInvariantError, match="must both be positive"):
        verify.check_growth_inequality(ell_max=1)


def test_all_half_length_2_shapes_are_strong():
    assert all(shape_constants(s).is_strong for s in enumerate_shapes(2))


def test_no_weak_shapes_below_half_length_4():
    # Frozen observation: overlapping copies need room for one copy's
    # arcs to nest inside the other's; the scan finds none up to 3.
    assert [s for s in all_shapes(3) if not shape_constants(s).is_strong] == []


def test_overlap_corrections_positive():
    shapes = all_shapes(3)
    for shape in shapes:
        for info in shape_constants(shape).overlaps:
            assert info.correction > 0


def test_growth_inequality_exact():
    for shape in all_shapes(3):
        c = shape_constants(shape)
        assert c.open_pairs_upper + c.open_pairs_lower <= c.half_length - 1
        assert c.face_weight * (4 * c.half_length - 1) < 4**c.denominator_power


# ---------------------------------------------------------------------------
# Moment formulas
# ---------------------------------------------------------------------------


def test_disjoint_moment_term_values(loop1, strong_l6, weak_l5):
    assert disjoint_moment_term(4, 1, loop1) == Fraction(25, 28)
    # All loops simple: exactly one system realizes n disjoint copies.
    for n in (2, 3, 5):
        assert disjoint_moment_term(n, n, loop1) == Fraction(1, catalan(n) ** 2)
    assert disjoint_moment_term(7, 1, strong_l6) == Fraction(
        3 * 10 * catalan(2) * catalan(1), catalan(7) ** 2
    )
    assert disjoint_moment_term(4, 0, loop1) == 1
    assert disjoint_moment_term(4, 5, loop1) == 0
    # The weak example (ell 5, face weight 1, open pairs (1, 1)) written
    # out as the full-Catalan quotient.
    n = 10**4
    for u in range(1, 11):
        i = n - 5 * u + u
        expected = Fraction(math.comb(2 * n - 10 * u + u, u) * catalan(i) ** 2, catalan(n) ** 2)
        assert disjoint_moment_term(n, u, weak_l5) == expected


def test_factorial_moment_strong_values(loop1):
    assert factorial_moment_strong(4, 1, loop1) == Fraction(25, 28)
    assert factorial_moment_strong(5, 2, loop1) == Fraction(50, 63)
    assert factorial_moment_strong(5, 0, loop1) == 1


def test_factorial_moment_strong_simple_loop_closed_form(loop1):
    # For the simple loop the general formula collapses to
    # (2n - r)_r * catalan(n-r)**2 / catalan(n)**2.
    for n in range(1, 9):
        for r in range(0, 5):
            expected = (
                Fraction(
                    math.perm(2 * n - r, r) * catalan(max(n - r, 0)) ** 2,
                    catalan(n) ** 2,
                )
                if n - r >= 0
                else Fraction(0)
            )
            assert factorial_moment_strong(n, r, loop1) == expected


def test_factorial_moment_equals_scaled_disjoint_term(strong_l6):
    # factorial_moment_strong is r! * disjoint_moment_term, which telescopes
    # Catalan quotients; the reference divides full Catalan numbers:
    # (slots)_r * W**r * catalan(i_up) * catalan(i_lo) / catalan(n)**2.
    shapes = [s for s in all_shapes(2) if shape_constants(s).is_strong] + [strong_l6]
    for shape in shapes:
        c = shape_constants(shape)
        ell = c.half_length
        for n in list(range(1, 9)) + [10**4]:
            for r in range(0, 4):
                slots = 2 * n - 2 * r * ell + r
                i_up = n - r * ell + r * c.open_pairs_upper
                i_lo = n - r * ell + r * c.open_pairs_lower
                if slots < r or i_up < 0 or i_lo < 0:
                    expected = Fraction(0)
                else:
                    expected = Fraction(
                        math.perm(slots, r)
                        * c.face_weight**r
                        * catalan(i_up)
                        * catalan(i_lo),
                        catalan(n) ** 2,
                    )
                assert factorial_moment_strong(n, r, shape) == expected


def test_factorial_moment_rejects_weak(weak_l5):
    # No r-tuple of copies can overlap at r <= 1, so the closed form holds
    # for a weak shape there; from r = 2 it is refused.
    for n in range(5, 9):
        for r in (0, 1):
            assert factorial_moment_strong(n, r, weak_l5) == exact_factorial_moment(n, r, weak_l5)
    with pytest.raises(WeakShapeError, match="weak at offsets \\[7\\]"):
        factorial_moment_strong(8, 2, weak_l5)


def test_pair_probability_against_full_catalan(strong_l6, weak_l5):
    # The reference divides full Catalan numbers: the bounded faces of the
    # joint placement give one Catalan factor each, and the unbounded ones
    # one each, with the index shifted by the open free-vertex count.
    def reference(n, offset, shape):
        base_size = 2 * shape.half_length + offset - 1
        decomp = joint_faces(shape, offset)
        if base_size > 2 * n or decomp is None:
            return Fraction(0)
        i_up = n - (base_size - decomp.open_upper) // 2
        i_lo = n - (base_size - decomp.open_lower) // 2
        if i_up < 0 or i_lo < 0:
            return Fraction(0)
        weight = math.prod(catalan(count // 2) for count in decomp.bounded_counts())
        return Fraction(weight * catalan(i_up) * catalan(i_lo), catalan(n) ** 2)

    cases = positive = 0
    for shape in all_shapes(3) + [strong_l6, weak_l5]:
        for offset in range(2, 2 * shape.half_length + 7):
            for n in range(1, 13):
                value = closed_form_pair_probability(n, offset, shape)
                assert value == reference(n, offset, shape)
                cases += 1
                positive += value > 0
    assert positive > 0 and cases > positive
    # Far beyond the oracle's sizes.
    assert closed_form_pair_probability(10**4, 7, weak_l5) == reference(10**4, 7, weak_l5) > 0
    # An offset below 2 is refused whether or not the pair fits.
    for n in (1, 5):
        with pytest.raises(ValueError, match="offset must be >= 2, got 0"):
            closed_form_pair_probability(n, 0, weak_l5)


# ---------------------------------------------------------------------------
# CLT parameters and hypothesis checks
# ---------------------------------------------------------------------------


def test_clt_parameters_values(loop1, strong_l6, weak_l5):
    p = clt_parameters(loop1)
    assert (p.mean, p.variance) == (Fraction(1, 8), Fraction(13, 128))
    assert clt_parameters(strong_l6).mean == Fraction(20, 4**11)
    pw = clt_parameters(weak_l5)
    assert pw.mean == Fraction(1, 32768)
    assert pw.variance == Fraction(1, 32768) * (1 + Fraction(13, 65536))


def test_variance_positive_all_shapes():
    for shape in all_shapes(3):
        assert clt_parameters(shape).variance > 0


def test_strong_variance_two_expressions_agree():
    # With no overlaps the variance coefficient reduces to
    # mean * (1 - W (4 ell - 1) / 4**e); both forms must agree exactly.
    for shape in all_shapes(3):
        c = shape_constants(shape)
        if not c.is_strong:
            continue
        p = clt_parameters(shape)
        scale = Fraction(c.face_weight, 4**c.denominator_power)
        assert p.variance == p.mean * (1 - scale * (4 * c.half_length - 1))


def test_hypothesis_check(loop1):
    n = 10**6
    report = clt_hypothesis_check(Fraction(n, 8), Fraction(-3, 2 * n))
    assert report.all_pass
    assert abs(report.product + 3 / 16) < 1e-12
    assert abs(report.sigma - math.sqrt(13 * n / 128)) < 1e-6
    assert not clt_hypothesis_check(1.0, -1.0).all_pass
    with pytest.raises(ValueError):
        clt_hypothesis_check(0.0, 1.0)


def test_hypothesis_check_all_shapes():
    n = 10**6
    for shape in all_shapes(3):
        c = shape_constants(shape)
        mu_n = n * clt_parameters(shape).mean
        s_n = Fraction(-(4 * c.half_length - 1) + 2 * c.correction_sum, 2 * n)
        assert clt_hypothesis_check(mu_n, s_n).all_pass


# ---------------------------------------------------------------------------
# Asymptotics and tightness
# ---------------------------------------------------------------------------


def test_asymptotic_log_moment_simple_loop(loop1):
    # Known closed form: r * log(n/8) - 3 r**2 / (4n).
    n, r = 10**6, 1000
    expected = r * math.log(n / 8) - 3 * r * r / (4 * n)
    assert abs(log_factorial_moment_asymptotic(n, r, loop1) - expected) < 1e-9
    assert log_factorial_moment_asymptotic(n, 0, loop1) == 0.0


@pytest.mark.parametrize("n,r", [(0, 3), (0, 0), (-2, 1)])
def test_asymptotic_log_moment_refuses_n_below_1(loop1, n, r):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        log_factorial_moment_asymptotic(n, r, loop1)


@pytest.mark.parametrize("n,r", [(5, 10**200), (10**600, 10**308)], ids=["r-squared-overflows", "infinite"])
def test_asymptotic_log_moment_beyond_the_float_range_is_refused(loop1, n, r):
    # r * r / (4 n) overflows float division; r * lead rounds to infinity.
    with pytest.raises(ValueError, match=f"^the asymptotic log moment at n={n}, r={r} is beyond the float range$"):
        log_factorial_moment_asymptotic(n, r, loop1)


def test_asymptotic_close_to_exact_log(loop1):
    n, r = 10**6, 1000
    exact = factorial_moment_strong(n, r, loop1)
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    assert abs(log_exact - log_factorial_moment_asymptotic(n, r, loop1)) < 0.01


def test_tightness_profile_basics(loop1):
    profile = tightness_profile(400, 5, loop1)
    # The last term is the disjoint-copies term itself.
    assert profile.terms[-1][1] == disjoint_moment_term(400, 5, loop1)
    assert profile.min_ratio is not None and profile.min_ratio > 0
    with pytest.raises(ValueError):
        tightness_profile(10, 5, loop1)


def test_tightness_doubling_simple_loop(loop1):
    profile = tightness_profile(10**4, 10, loop1)
    assert profile.min_ratio is not None and profile.min_ratio >= 2


def test_tightness_weak_example_small_ratio(weak_l5):
    # At the shape-blind window r = floor(0.1 sqrt(n)) the minimal ratio
    # is about n * mean / (2 ell r (r-1)), which tends to mean / (0.02 ell),
    # about 3.05e-4 for this shape (mean 1/32768, ell 5), at every n: a
    # larger n does not bring doubling.  The acceptance criterion therefore
    # uses a window normalised by n * mean / ell.
    profile = tightness_profile(10**4, 10, weak_l5)
    assert profile.min_ratio is not None
    assert profile.min_ratio < Fraction(1, 100)


def test_constants_report_schema(weak_l5):
    report = constants_report(weak_l5)
    assert set(report) == {
        "shape",
        "ell",
        "K",
        "cPlus",
        "cMinus",
        "strong",
        "overlaps",
        "mu",
        "sigma2",
    }
    assert report["K"] == "1"
    assert report["strong"] is False
    (overlap,) = report["overlaps"]
    assert overlap == {
        "i": 7,
        "twoEllI": 16,
        "KI": "1",
        "twoCPlusI": 2,
        "twoCMinusI": 2,
        "bI": {"num": "16", "den": "1"},
    }
    assert report["mu"] == {"num": "1", "den": "32768"}
