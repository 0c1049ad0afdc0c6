from collections import Counter
from fractions import Fraction

import pytest

from meandric.analysis import disjoint_moment_term, shape_constants
from meandric.combinatorics import catalan
from meandric.errors import CapExceededError
from meandric.meanders import count_shape, enumerate_shapes, simple_loop
from meandric.oracle import (
    block_spectrum,
    closed_form_pair_probability,
    distribution_csv,
    enumerate_systems,
    exact_distribution,
    exact_factorial_moment,
    exact_pair_probability,
    moment_report,
)


def test_enumerate_systems_order_and_count():
    systems = list(enumerate_systems(2))
    assert len(systems) == 4
    # Outer loop: upper matching; enumeration starts at the nested one.
    assert systems[0].upper.arcs() == ((1, 4), (2, 3))
    assert systems[0].lower.arcs() == ((1, 4), (2, 3))
    assert systems[1].upper.arcs() == ((1, 4), (2, 3))
    assert systems[1].lower.arcs() == ((1, 2), (3, 4))


def test_distribution_examples(loop1):
    assert exact_distribution(1, loop1) == {1: 1}
    assert exact_distribution(2, loop1) == {0: 2, 1: 1, 2: 1}
    d4 = exact_distribution(4, loop1)
    assert sum(d4.values()) == catalan(4) ** 2 == 196


def test_distribution_shape_too_large(weak_l5):
    assert exact_distribution(3, weak_l5) == {0: catalan(3) ** 2}


def test_distribution_against_tracing(weak_l5):
    # The weak example at n=6 has 3 positions and halves of three arcs.
    cases = [(n, shape) for n in (1, 2, 3, 4) for shape in enumerate_shapes(1) + enumerate_shapes(2)]
    for n, shape in cases + [(6, weak_l5)]:
        brute = Counter()
        for system in enumerate_systems(n):
            brute[count_shape(system, shape)] += 1
        assert dict(brute) == exact_distribution(n, shape)


def test_distribution_csv(loop1):
    text = distribution_csv(exact_distribution(2, loop1))
    assert text == "x,count\n0,2\n1,1\n2,1\n"


def test_size_cap():
    with pytest.raises(CapExceededError):
        exact_distribution(9, simple_loop())
    with pytest.raises(CapExceededError):
        list(enumerate_systems(9))


def test_first_moment_identity_all_shapes():
    # Single copies cannot overlap, so the enumerated first moment equals
    # the disjoint-copies term for weak and strong shapes alike.
    shapes = enumerate_shapes(1) + enumerate_shapes(2)
    for n in range(1, 7):
        for shape in shapes:
            assert exact_factorial_moment(n, 1, shape) == disjoint_moment_term(n, 1, shape)


def test_moment_examples(loop1):
    assert exact_factorial_moment(4, 1, loop1) == Fraction(25, 28)
    assert exact_factorial_moment(5, 2, loop1) == Fraction(50, 63)
    assert exact_factorial_moment(2, 1, loop1) == Fraction(3, 4)


def test_pair_probability_vertex_collision(loop1):
    assert exact_pair_probability(4, 2, loop1) == 0


def test_pair_probability_weak_example(weak_l5):
    value = exact_pair_probability(8, 7, weak_l5)
    assert value == Fraction(1, catalan(8) ** 2)
    assert closed_form_pair_probability(8, 7, weak_l5) == value
    # n=9 separates the open-face counts of the joint placement: each
    # unbounded face holds 2 free base vertices plus the 2 vertices
    # beyond the base, giving catalan(2)**2 completions.
    assert exact_pair_probability(9, 7, weak_l5, size_cap=9) == Fraction(4, catalan(9) ** 2)


def test_pair_probability_strong_shapes_vanish():
    for shape in enumerate_shapes(1) + enumerate_shapes(2):
        assert shape_constants(shape).is_strong
        ell = shape.half_length
        for offset in range(2, 2 * ell + 1):
            n = 6
            if 2 * ell + offset - 1 > 2 * n:
                continue
            assert exact_pair_probability(n, offset, shape) == 0


def test_pair_probability_nonoverlapping_closed_form(loop1, weak_l5):
    # Beyond the overlap range the joint placement is two detached
    # copies; the closed form must still match enumeration exactly.
    assert exact_pair_probability(5, 3, loop1) == closed_form_pair_probability(5, 3, loop1)
    assert exact_pair_probability(8, 12, loop1) > 0
    for offset in (2, 3, 4, 5, 6, 8, 9):
        if 10 + offset - 1 <= 16:
            exact_pair_probability(8, offset, weak_l5)  # cross-check runs inside


def test_block_spectrum_strong_mass_at_r(loop1):
    for n in (4, 5):
        for r in (1, 2, 3):
            spectrum = block_spectrum(n, r, loop1)
            total = sum(spectrum.values(), Fraction(0))
            assert total == exact_factorial_moment(n, r, loop1) / __import__("math").factorial(r)
            # strong shape: only fully separated tuples contribute
            assert set(spectrum) <= {r}


def test_block_spectrum_weak_example(weak_l5):
    spectrum = block_spectrum(8, 2, weak_l5)
    # No room for two detached copies at n=8, so the disjoint term is 0
    # and the whole mass sits in one block.
    assert disjoint_moment_term(8, 2, weak_l5) == 0
    assert spectrum == {1: Fraction(1, catalan(8) ** 2)}
    assert sum(spectrum.values(), Fraction(0)) * 2 == exact_factorial_moment(8, 2, weak_l5)


def test_moment_report(weak_l5, loop1):
    report = moment_report(8, 2, weak_l5)
    assert report.formula_moment is None
    assert report.exact_moment >= report.lower_bound
    doc = report.to_json_dict()
    assert doc["formulaMoment"] is None
    assert doc["exactMoment"] == {"num": "1", "den": "1022450"}

    report2 = moment_report(5, 2, loop1)
    assert report2.formula_moment == report2.exact_moment == Fraction(50, 63)
