import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandric.analysis import _catalan_quotient
from meandric.combinatorics import (
    DyckWord,
    NonCrossingMatching,
    catalan,
    dyck_to_matching,
    enumerate_dyck_words,
    enumerate_matchings,
    falling_factorial,
    matching_to_dyck,
)
from meandric.errors import InvalidDyckWordError, InvalidMatchingError


def test_catalan_small_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_matches_enumeration_at_8():
    assert sum(1 for _ in enumerate_matchings(8)) == catalan(8) == 1430


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(-1, 2) == 2  # plain product semantics
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


def test_falling_factorial_split_identity():
    # (2n)_{2r} = (2n)_r * (2n - r)_r, the rearrangement behind the
    # two equivalent forms of the simple-loop moment.
    n, r = 10, 3
    assert falling_factorial(2 * n, 2 * r) == falling_factorial(2 * n, r) * falling_factorial(
        2 * n - r, r
    )


def test_log_catalan_dyadic_decay():
    # The ratio catalan(n-r)/catalan(n) approaches 4**-r; at n=10**6,
    # r=1000 the log gap is about 1.5e-3, inside the 0.01 budget.
    n, r = 10**6, 1000
    ratio = _catalan_quotient(n - r, n)
    gap = math.log(ratio.numerator) - math.log(ratio.denominator) + 2 * r * math.log(2)
    assert abs(gap) < 0.01


def test_dyck_word_text_forms():
    w = DyckWord.from_text("UUDD")
    assert w.steps == (1, 1, -1, -1)
    assert w.to_text() == "UUDD"
    with pytest.raises(InvalidDyckWordError):
        DyckWord.from_text("UDX")
    with pytest.raises(InvalidDyckWordError):
        DyckWord.from_text("DU")
    with pytest.raises(InvalidDyckWordError):
        DyckWord.from_text("UDD")


def test_dyck_to_matching_examples():
    assert dyck_to_matching(DyckWord.from_text("UD")).arcs() == ((1, 2),)
    # Stack discipline forces nesting for UUDD.
    assert dyck_to_matching(DyckWord.from_text("UUDD")).arcs() == ((1, 4), (2, 3))


def test_enumeration_counts_and_first_word():
    assert [sum(1 for _ in enumerate_dyck_words(n)) for n in range(7)] == [
        1,
        1,
        2,
        5,
        14,
        42,
        132,
    ]
    words = list(enumerate_dyck_words(3))
    # Ascending lexicographic with U before D: fully nested word first.
    assert words[0].to_text() == "UUUDDD"
    assert words[-1].to_text() == "UDUDUD"
    assert words == sorted(words, key=lambda w: w.steps, reverse=True)


def _brute_force_words(n):
    """Dyck words with n up-steps, filtered from all 2**(2n) step sequences
    taken in lexicographic order with +1 before -1."""
    words = []
    for steps in itertools.product((1, -1), repeat=2 * n):
        heights = list(itertools.accumulate(steps, initial=0))
        if min(heights) >= 0 and heights[-1] == 0:
            words.append(DyckWord(steps))
    return words


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_brute_force(n):
    words = _brute_force_words(n)
    matchings = [dyck_to_matching(w) for w in words]
    assert len(words) == catalan(n)
    assert list(enumerate_dyck_words(n)) == words
    assert list(enumerate_matchings(n)) == matchings


def test_matching_round_trip_exhaustive():
    for n in range(1, 7):
        for word in enumerate_dyck_words(n):
            assert matching_to_dyck(dyck_to_matching(word)) == word


def test_matchings_unique_and_sized():
    seen = set()
    for m in enumerate_matchings(4):
        assert m.size == 4
        assert m.partner not in seen
        seen.add(m.partner)
    assert len(seen) == 14


def test_matching_text_forms():
    m = NonCrossingMatching.from_text("1-4,2-3")
    assert m.to_text() == "1-4,2-3"
    assert NonCrossingMatching.from_text("2-3,1-4") == m
    with pytest.raises(InvalidMatchingError):
        NonCrossingMatching.from_text("1-2,2-3")
    with pytest.raises(InvalidMatchingError):
        NonCrossingMatching.from_text("1-3,2-4")  # crossing


def test_matching_validation():
    with pytest.raises(InvalidMatchingError):
        NonCrossingMatching((0, 1, 2))  # fixed point at 1
    with pytest.raises(InvalidMatchingError):
        NonCrossingMatching((0, 3, 4, 1, 2))  # crossing 1-3, 2-4


@settings(max_examples=60)
@given(st.integers(2, 6), st.data())
def test_planted_crossing_rejected(n, data):
    matchings = list(enumerate_matchings(n))
    m = data.draw(st.sampled_from(matchings))
    arcs = list(m.arcs())
    i = data.draw(st.integers(0, len(arcs) - 2))
    j = data.draw(st.integers(i + 1, len(arcs) - 1))
    (a, b), (c, d) = arcs[i], arcs[j]
    # Rewire two arcs into an interleaved pair: disjoint arcs a<b<c<d
    # become (a,c),(b,d); nested arcs a<c<d<b become (a,d),(c,b).
    if b < c:
        arcs[i], arcs[j] = (a, c), (b, d)
    else:
        arcs[i], arcs[j] = (a, d), (c, b)
    with pytest.raises(InvalidMatchingError):
        NonCrossingMatching.from_arcs(arcs)
