"""The exact-identity sweep behind AC-01 and AC-04: each (n, shape) law is
enumerated once for every order, a mismatch is reported with its place,
and AC-04's weak shapes are the weak shapes of half-length 5."""

import pytest

from meandric import verify
from meandric.analysis import shape_constants
from meandric.meanders import enumerate_shapes, format_shape


def _count_laws(monkeypatch):
    laws = []
    enumerate_law = verify.exact_distribution

    def counted(n, shape, size_cap):
        laws.append((n, format_shape(shape)))
        return enumerate_law(n, shape, size_cap=size_cap)

    monkeypatch.setattr(verify, "exact_distribution", counted)
    return laws


@pytest.mark.parametrize(
    "check,laws,detail",
    [
        (verify.check_strong_moment_identity, 50, "150 exact identities over 5 strong shapes"),
        (verify.check_first_moment_all_shapes, 60, "60 first-moment identities"),
    ],
    ids=["AC-01", "AC-04"],
)
def test_each_law_is_enumerated_once(monkeypatch, check, laws, detail):
    # 10 sizes x 5 shapes for AC-01, whose three orders share each law;
    # 10 sizes x 6 shapes for AC-04.
    enumerated = _count_laws(monkeypatch)
    assert check(n_max=10) == (True, detail)
    assert len(enumerated) == len(set(enumerated)) == laws


def test_first_moment_check_covers_both_weak_shapes_of_half_length_5(monkeypatch):
    weak = {format_shape(s) for s in enumerate_shapes(5) if not shape_constants(s).is_strong}
    assert weak == {verify.WEAK_L5, verify._WEAK_L5_MIRROR}
    enumerated = _count_laws(monkeypatch)
    assert verify.check_first_moment_all_shapes(n_max=7)[0]
    assert weak <= {text for _, text in enumerated}


@pytest.mark.parametrize(
    "check,r,detail",
    [
        (verify.check_strong_moment_identity, 3, "mismatch at n=4 r=3 ell=1: 15/49 != 64/49"),
        (verify.check_first_moment_all_shapes, 1, "mismatch at n=4 r=1 ell=1: 25/28 != 53/28"),
    ],
    ids=["AC-01", "AC-04"],
)
def test_a_closed_form_off_by_one_fails_at_its_place(monkeypatch, check, r, detail):
    formula = verify.factorial_moment_strong

    def skewed(n, order, shape):
        return formula(n, order, shape) + (1 if (n, order) == (4, r) else 0)

    monkeypatch.setattr(verify, "factorial_moment_strong", skewed)
    assert check(n_max=5) == (False, detail)
