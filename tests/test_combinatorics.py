import hashlib
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandric.analysis import _catalan_quotient
from meandric.combinatorics import (
    NonCrossingMatching,
    _dyck_walks,
    _matching_from_heights,
    catalan,
    enumerate_matchings,
)
from meandric.errors import InvalidMatchingError


def test_catalan_small_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_matches_enumeration_at_8():
    assert sum(1 for _ in enumerate_matchings(8)) == catalan(8) == 1430


def test_log_catalan_dyadic_decay():
    # The ratio catalan(n-r)/catalan(n) approaches 4**-r; at n=10**6,
    # r=1000 the log gap is about 1.5e-3, inside the 0.01 budget.
    n, r = 10**6, 1000
    ratio = _catalan_quotient(n - r, n)
    gap = math.log(ratio.numerator) - math.log(ratio.denominator) + 2 * r * math.log(2)
    assert abs(gap) < 0.01


def path_heights(matching):
    """Dyck path heights of a matching: a vertex that opens its arc is an
    up-step."""
    steps = [1 if w > v else -1 for v, w in enumerate(matching.partner) if v]
    return list(itertools.accumulate(steps, initial=0))


def test_matching_from_heights_examples():
    assert _matching_from_heights([0, 1, 0]).arcs() == ((1, 2),)
    # Stack discipline forces nesting for a path that climbs twice.
    assert _matching_from_heights([0, 1, 2, 1, 0]).arcs() == ((1, 4), (2, 3))


@pytest.mark.parametrize("row", [[0, 1, 0, -1, 0], [0, 1, 2, 1, 2]], ids=["dips-below-0", "ends-above-0"])
def test_matching_from_heights_refuses_non_dyck_rows(row):
    with pytest.raises(InvalidMatchingError):
        _matching_from_heights(row)


def test_enumeration_counts_and_order():
    assert [sum(1 for _ in enumerate_matchings(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    matchings = list(enumerate_matchings(3))
    # Steps in lexicographic order with up before down: rainbow first,
    # adjacent arcs last.
    assert matchings[0].to_text() == "1-6,2-5,3-4"
    assert matchings[-1].to_text() == "1-2,3-4,5-6"


def _brute_force_matchings(n):
    """Matchings of [2n] from the step sequences among all 2**(2n) that
    stay at or above 0 and end at 0, taken in lexicographic order with +1
    before -1, each paired here with a stack of open vertices."""
    matchings = []
    for steps in itertools.product((1, -1), repeat=2 * n):
        heights = list(itertools.accumulate(steps, initial=0))
        if min(heights) < 0 or heights[-1] != 0:
            continue
        partner = [0] * (2 * n + 1)
        opened = []
        for v, step in enumerate(steps, start=1):
            if step == 1:
                opened.append(v)
            else:
                u = opened.pop()
                partner[u], partner[v] = v, u
        matchings.append(NonCrossingMatching(tuple(partner)))
    return matchings


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_brute_force(n):
    matchings = _brute_force_matchings(n)
    assert len(matchings) == catalan(n)
    assert list(enumerate_matchings(n)) == matchings


# SHA-256 of ``_dyck_walks(n).tobytes()``, taken when the paths still grew
# as bit codes: the rows, their int16 type and their order are pinned past
# the brute-force test's n <= 8.
WALK_DIGESTS = [
    "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    "025fc246f13759c192cbbae2a68f2b59b6478f21b31a05d77483a87e417906dd",
    "69a6d8c083367119569bd11d431dea93e721882ecfae83637553a1885a74d098",
    "d9cfe83f88ae84abb06b0bc9971103885b9e7ad029871cbfad37d543c687dc9f",
    "2a23a8f72391eddf7340e006901371500a2069e36cf39337e3008cbb7d88e136",
    "71f939deaf79f3155b3e35d801301e7ca39571a2aaf8e436171f65744f191c51",
    "325fb85ef79ac6fb82174c4eab0bf77a2904c2f5807aa7134647d388fe8cef5e",
    "ed96666d041caeded0afcd4db60f2741cd0703c34bc46d671020ed41a81cc505",
    "b7176a3953d8cb1298b802c87ad42cf81385078560730344972c9e2d3343129a",
    "f2043a6759a9e97ce44d7b28ade90453b2304233545264570ff25295e0e76099",
    "559f934d2f36ef02ec5559a0954bf0d9397b1531c65faf86ac73ea8caf422f73",
    "87f22dec15027e93d7191a31f3cca405f1972416936093f20faaf0524481dee8",
    "804dfbac21729283d6e645bc3b933cb278bcaab0efb6c4976c03bd02546a39ed",
]


@pytest.mark.parametrize("n", range(13))
def test_dyck_walks_digest(n):
    walks = _dyck_walks(n)
    assert walks.shape == (catalan(n), 2 * n + 1)
    assert hashlib.sha256(walks.tobytes()).hexdigest() == WALK_DIGESTS[n]


def test_dyck_walks_memory():
    # The int16 result is 9.9 MiB at n = 12.  Growing the rows as int64
    # bit codes and decoding them peaked at 67.1 MiB, and growing the
    # heights by copying the rows at every step at 26.6 MiB.  Filling one
    # matrix by rank peaks at 13.0 MiB (tracemalloc, numpy 2.4.6).
    tracemalloc.start()
    try:
        _dyck_walks(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


def test_matching_round_trip_exhaustive():
    for n in range(1, 7):
        rows = _dyck_walks(n).tolist()
        for row, matching in zip(rows, enumerate_matchings(n), strict=True):
            assert _matching_from_heights(row) == matching
            assert path_heights(matching) == row


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
