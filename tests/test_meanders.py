import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandric.combinatorics import NonCrossingMatching, _dyck_walks, enumerate_matchings
from meandric.errors import CapExceededError, InvalidMatchingError, InvalidShapeError
from meandric.meanders import (
    Component,
    MeandricSystem,
    Shape,
    arcs_at,
    component_shape,
    components,
    count_shape,
    enumerate_shapes,
    format_shape,
    parse_shape,
    simple_loop,
)
from meandric.meanders import _supports
from meandric.oracle import enumerate_systems
from meandric.sampling import sample_system
from meandric.verify import STRONG_L6, WEAK_L5

ADJ4 = NonCrossingMatching.from_text("1-2,3-4")
NEST4 = NonCrossingMatching.from_text("1-4,2-3")


def adjacent_loops(n):
    return NonCrossingMatching.from_arcs([(2 * j - 1, 2 * j) for j in range(1, n + 1)])


def rainbow(n):
    return NonCrossingMatching.from_arcs([(j, 2 * n + 1 - j) for j in range(1, n + 1)])


def path_heights(matching):
    """Dyck path heights of a matching: a vertex that opens its arc is an
    up-step."""
    steps = [1 if w > v else -1 for v, w in enumerate(matching.partner) if v]
    return np.array(list(itertools.accumulate(steps, initial=0)))


def kernel_positions(system, shape):
    """Positions where ``arcs_at`` finds both halves of the shape."""
    up, lo = (path_heights(m)[None, :] for m in (system.upper, system.lower))
    width = 2 * system.size - 2 * shape.half_length + 1
    hits = arcs_at(up, shape.upper, width) & arcs_at(lo, shape.lower, width)
    return (np.flatnonzero(hits[0]) + 1).tolist()


def traced_positions(system, shape):
    """Leftmost vertices of the traced components of the given shape."""
    return [c.left for c in components(system) if component_shape(c, system) == shape]


def test_system_validation():
    with pytest.raises(InvalidMatchingError):
        MeandricSystem(ADJ4, NonCrossingMatching.from_text("1-2"))


def test_trace_single_pair():
    system = MeandricSystem(
        NonCrossingMatching.from_text("1-2"), NonCrossingMatching.from_text("1-2")
    )
    (comp,) = components(system)
    assert comp.support == (1, 2)
    assert comp.half_length == 1


def test_trace_connected_four():
    assert components(MeandricSystem(ADJ4, NEST4)) == [Component((1, 2, 3, 4))]


def test_trace_two_components():
    system = MeandricSystem(ADJ4, ADJ4)
    assert components(system) == [Component((1, 2)), Component((3, 4))]


def test_components_partition():
    for n in (2, 3):
        for system in enumerate_systems(n):
            supports = [c.support for c in components(system)]
            flat = sorted(v for s in supports for v in s)
            assert flat == list(range(1, 2 * n + 1))


def test_component_shape_translation():
    # A simple loop living on {3,4} normalizes to the simple loop.
    upper = NonCrossingMatching.from_arcs([(1, 2), (3, 4), (5, 6)])
    system = MeandricSystem(upper, upper)
    comp = components(system)[1]
    assert comp.support == (3, 4)
    assert component_shape(comp, system) == simple_loop()


def test_strong_l6_component_extraction(strong_l6):
    # Embed the half-length-6 shape at position 1 of a size-6 system and
    # fill its faces with simple loops.
    upper = NonCrossingMatching.from_arcs([(1, 4), (2, 3), (5, 6), (7, 12), (8, 9), (10, 11)])
    lower = NonCrossingMatching.from_arcs([(1, 12), (4, 7), (5, 6), (2, 3), (8, 9), (10, 11)])
    system = MeandricSystem(upper, lower)
    comp = components(system)[0]
    assert comp.support == (1, 4, 7, 12)
    assert component_shape(comp, system) == strong_l6
    assert count_shape(system, strong_l6) == 1
    assert count_shape(system, simple_loop()) == 4


def test_weak_l5_double_occurrence(weak_l5):
    # The two-copy picture at offsets 1 and 7, completed at n=8 (the
    # completion is unique: each leftover face holds one arc).
    upper = NonCrossingMatching.from_arcs(
        [(1, 6), (2, 5), (3, 4), (9, 10), (7, 12), (8, 11), (13, 14), (15, 16)]
    )
    lower = NonCrossingMatching.from_arcs(
        [(1, 2), (5, 10), (6, 9), (7, 8), (3, 4), (11, 16), (12, 15), (13, 14)]
    )
    system = MeandricSystem(upper, lower)
    assert count_shape(system, weak_l5) == 2
    assert kernel_positions(system, weak_l5) == traced_positions(system, weak_l5) == [1, 7]


def partner_hits(partners, arcs, width):
    """``arcs_at`` by its definition: rows of 0-based partners that pair
    ``a - 1 + i`` with ``b - 1 + i`` for every arc."""
    idx = np.arange(width)
    hits = np.ones((len(partners), width), dtype=bool)
    for a, b in arcs:
        hits &= partners[:, a - 1 : a - 1 + width] == idx + (b - 1)
    return hits


@pytest.mark.parametrize("n", range(1, 9))
def test_heights_kernel_is_the_partner_test(n):
    heights = _dyck_walks(n)
    partners = np.array([m.partner[1:] for m in enumerate_matchings(n)]) - 1
    shapes = [s for ell in (1, 2, 3) for s in enumerate_shapes(ell)]
    shapes += [parse_shape(WEAK_L5), parse_shape(STRONG_L6)]
    for shape in shapes:
        width = 2 * n - 2 * shape.half_length + 1
        if width < 1:
            continue
        for arcs in (shape.upper, shape.lower):
            assert np.array_equal(
                arcs_at(heights, arcs, width), partner_hits(partners, arcs, width)
            )


def test_arc_over_free_vertices_needs_the_path_above():
    # 1-4 over the free vertices 2 and 3: UDUD returns to height 0 at both
    # ends of the arc but touches it in between, so 1 pairs with 2, not 4.
    shape = parse_shape("supp=1,4;up=1-4;lo=1-4")
    assert not arcs_at(np.array([[0, 1, 0, 1, 0]]), shape.upper, 1).any()
    assert arcs_at(np.array([[0, 1, 2, 1, 0]]), shape.upper, 1).all()
    system = MeandricSystem(ADJ4, ADJ4)
    assert kernel_positions(system, shape) == traced_positions(system, shape) == []
    system = MeandricSystem(NEST4, NEST4)
    assert kernel_positions(system, shape) == traced_positions(system, shape) == [1]


def test_count_disjoint_simple_loops():
    for n in (1, 3, 5):
        m = adjacent_loops(n)
        assert count_shape(MeandricSystem(m, m), simple_loop()) == n


def test_count_rainbow_system():
    # Nested arcs above and below pair off level by level; the innermost
    # pair is adjacent, so exactly one simple loop occurs.
    for n in (2, 3, 5):
        m = rainbow(n)
        system = MeandricSystem(m, m)
        assert count_shape(system, simple_loop()) == 1
        assert len(components(system)) == n


def test_indicator_sums_to_count():
    shapes = enumerate_shapes(1) + enumerate_shapes(2)
    for system in enumerate_systems(3):
        for shape in shapes:
            positions = kernel_positions(system, shape)
            assert positions == traced_positions(system, shape)
            assert len(positions) == count_shape(system, shape)


def test_shape_counts_cover_components():
    # Each component has exactly one shape, so per-system shape counts
    # add up to the number of components.
    from collections import Counter

    for system in enumerate_systems(4):
        comps = components(system)
        tally = Counter(component_shape(c, system) for c in comps)
        assert sum(tally.values()) == len(comps)
        for shape, expected in tally.items():
            assert count_shape(system, shape) == expected


def test_translation_invariance():
    # Prepending a detached simple loop shifts every other component by 2
    # without changing extracted shapes.
    from collections import Counter

    for system in enumerate_systems(3):
        shifted_upper = NonCrossingMatching.from_arcs(
            [(1, 2)] + [(a + 2, b + 2) for a, b in system.upper.arcs()]
        )
        shifted_lower = NonCrossingMatching.from_arcs(
            [(1, 2)] + [(a + 2, b + 2) for a, b in system.lower.arcs()]
        )
        bigger = MeandricSystem(shifted_upper, shifted_lower)
        old = Counter(component_shape(c, system) for c in components(system))
        new = Counter(component_shape(c, bigger) for c in components(bigger))
        old[simple_loop()] += 1
        assert new == old


def test_enumerate_shapes_counts():
    assert len(enumerate_shapes(1)) == 1
    assert len(enumerate_shapes(2)) == 3
    assert len(enumerate_shapes(3)) == 15
    assert enumerate_shapes(2) == enumerate_shapes(2)  # deterministic
    with pytest.raises(CapExceededError):
        enumerate_shapes(6)
    assert len(enumerate_shapes(1, max_half_length=6)) == 1


# SHA-256 of the newline-joined ``format_shape`` list of each half-length,
# taken from the enumeration that sorted candidate supports and filtered
# every matching pair through ``Shape``.
SHAPE_DIGESTS = {
    4: (95, "fb4a8a366d21c3f1609228be419188b16a0ab2bff831c7f38e30c6279fe723fa"),
    5: (697, "1d6bcfa0e6b406f1a8450ce0eaa573e298dd14d05777a5ba7da46906105f2994"),
    6: (5673, "2629963c4e3138a4f74f432c47969b4d2d59b46946d6e42354d952327ffbde0f"),
}


@pytest.mark.parametrize("ell", sorted(SHAPE_DIGESTS))
def test_enumerate_shapes_digests(ell):
    shapes = enumerate_shapes(ell, max_half_length=ell)
    digest = hashlib.sha256("\n".join(map(format_shape, shapes)).encode()).hexdigest()
    assert (len(shapes), digest) == SHAPE_DIGESTS[ell]


def _candidate_supports(ell):
    """The supports by the candidate filter: both ends, k - 1 odd and k - 1
    even points between them, kept when every gap is odd (unordered)."""
    top = 2 * ell
    for k in range(1, ell + 1):
        for odd_pick in itertools.combinations(range(3, top, 2), k - 1):
            for even_pick in itertools.combinations(range(2, top, 2), k - 1):
                support = tuple(sorted((1,) + odd_pick + even_pick + (top,)))
                if all((b - a) % 2 == 1 for a, b in zip(support, support[1:])):
                    yield support


@pytest.mark.parametrize("ell", range(1, 10))
def test_supports_come_in_lexicographic_order(ell):
    supports = list(_supports(ell))
    assert all(a < b for a, b in zip(supports, supports[1:]))
    assert supports == sorted(_candidate_supports(ell))


@pytest.mark.parametrize("ell", [33, 40])
def test_impossible_half_length_is_refused_at_once(ell):
    # The first support, 1..2*ell, needs all catalan(ell) Dyck paths of size
    # ell: more rows than numpy can index, refused before any support past it.
    start = time.perf_counter()
    with pytest.raises(MemoryError, match=f"Dyck paths of size {ell} are too many"):
        enumerate_shapes(ell, max_half_length=ell)
    assert time.perf_counter() - start < 1


def test_enumerate_shapes_all_valid():
    for ell in (1, 2, 3):
        for shape in enumerate_shapes(ell):
            assert shape.half_length == ell
            # Constructor re-validation must agree.
            Shape(shape.support, shape.upper, shape.lower)


def test_shape_grammar_round_trip(weak_l5):
    text = "supp=1,2,5,6,9,10;up=1-6,2-5,9-10;lo=1-2,5-10,6-9"
    assert format_shape(weak_l5) == text
    assert parse_shape(text) == weak_l5


@pytest.mark.parametrize(
    "text, invariant",
    [
        ("supp=1,3,4,6;up=1-6,3-4;lo=1-6,3-4", "odd-gap"),
        ("supp=1,2,3,4;up=1-3,2-4;lo=1-2,3-4", "crossing"),
        ("supp=1,2,3,4;up=1-2,3-4;lo=1-2,3-4", "connectivity"),
        ("supp=2,3;up=2-3;lo=2-3", "support"),
        ("supp=1,2;up=1-2", "grammar"),
        ("supp=1,2;up=1-2;lo=1,2", "grammar"),
        ("supp=1,2;up=1-2;lo=1-2;foo=3", "grammar: unknown field 'foo'"),
        ("supp=1,2;up=1-2;lo=1-2;lo=1-2", "grammar: repeated field 'lo'"),
        ("supp=1,2,3,4;up=1-2;lo=1-2,3-4", "matching"),
    ],
)
def test_shape_grammar_diagnostics(text, invariant):
    with pytest.raises(InvalidShapeError) as err:
        parse_shape(text)
    assert str(err.value).startswith(invariant)


@pytest.mark.parametrize("half", ["upper", "lower"])
@pytest.mark.parametrize(
    "arcs",
    [
        ((1, 4), (2, 5)),  # an arc end outside the support
        ((1, 2), (2, 4)),  # a reused vertex
        ((1, 4),),  # uncovered support points
        ((2, 1), (3, 4)),  # a >= b
        ((2, 3), (1, 4)),  # unsorted arcs
    ],
    ids=["outside", "reused", "uncovered", "descending", "unsorted"],
)
def test_each_half_must_match_the_support(half, arcs):
    # Either half of this loop on 1..4 is valid; only ``half`` is broken.
    halves = {"upper": ((1, 4), (2, 3)), "lower": ((1, 2), (3, 4))}
    Shape((1, 2, 3, 4), **halves)
    with pytest.raises(InvalidShapeError, match=f"^matching: {half} "):
        Shape((1, 2, 3, 4), **(halves | {half: arcs}))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_count_matches_indicator_sum_on_random_systems(position, n):
    system = sample_system(n, position, seed=123)
    for shape in (simple_loop(), *enumerate_shapes(2)):
        positions = kernel_positions(system, shape)
        assert positions == traced_positions(system, shape)
        assert len(positions) == count_shape(system, shape)
