import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from meandric.analysis import disjoint_moment_term, factorial_moment_strong, shape_constants
from meandric.combinatorics import _bit_codes, _dyck_walks, catalan
from meandric import oracle, verify
from meandric.errors import CapExceededError, FormulaMismatchError, OracleInvariantError
from meandric.meanders import (
    Shape,
    arcs_at,
    component_shape,
    components,
    count_shape,
    enumerate_shapes,
    parse_shape,
    simple_loop,
)
from meandric.oracle import (
    MAX_MASK_WIDTH,
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
    # No copy of a half-length-5 shape fits, so there is one empty position set.
    for n in (1, 2, 3, 4):
        assert exact_distribution(n, weak_l5) == {0: catalan(n) ** 2}
        assert block_spectrum(n, 2, weak_l5) == {}


def test_distribution_against_tracing(weak_l5):
    # The weak example at n=6 has 3 positions and halves of three arcs.
    cases = [(n, shape) for n in (1, 2, 3, 4) for shape in enumerate_shapes(1) + enumerate_shapes(2)]
    for n, shape in cases + [(6, weak_l5)]:
        brute = Counter()
        for system in enumerate_systems(n):
            brute[count_shape(system, shape)] += 1
        assert dict(brute) == exact_distribution(n, shape)


def _mask_pair_reference(n, shape):
    """The distribution and the block spectra for r = 1..5 (as counts of
    systems), by the product over all (upper, lower) mask pairs and a loop
    over the r-subsets of each joint mask.  The masks are built here, bit
    ``i-1`` for a copy of the half at position i, apart from the oracle's
    star index."""
    walks, width = _dyck_walks(n), oracle._width(n, shape)
    up, lo = (Counter(_bit_codes(arcs_at(walks, half, width)).tolist()) for half in (shape.upper, shape.lower))
    joint = Counter()
    for up_mask, up_count in up.items():
        for lo_mask, lo_count in lo.items():
            joint[up_mask & lo_mask] += up_count * lo_count
    dist, spectra = Counter(), {r: Counter() for r in range(1, 6)}
    for mask, weight in joint.items():
        positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
        dist[len(positions)] += weight
        for r in range(1, 6):
            for subset in combinations(positions, r):
                gaps = [b - a for a, b in zip(subset, subset[1:])]
                spectra[r][1 + sum(g >= 2 * shape.half_length for g in gaps)] += weight
    return dict(dist), spectra


def test_oracle_against_mask_pairs(weak_l5, strong_l6):
    for shape in enumerate_shapes(1) + enumerate_shapes(2) + [weak_l5, strong_l6]:
        dist, spectra = _mask_pair_reference(8, shape)
        assert exact_distribution(8, shape) == dist
        for r in range(1, 6):
            expected = {u: Fraction(w, catalan(8) ** 2) for u, w in spectra[r].items()}
            assert block_spectrum(8, r, shape) == expected


def test_mask_width_cap(loop1):
    # n=12 is the largest simple-loop size within the width limit; n=13
    # is refused before any matching is enumerated.
    assert 2 * 12 - 1 == MAX_MASK_WIDTH
    with pytest.raises(
        CapExceededError,
        match="^size 13 needs 25 copy positions for a half-length-1 shape; the oracle stops at 23$",
    ):
        exact_distribution(13, loop1, size_cap=13)
    with pytest.raises(CapExceededError):
        block_spectrum(13, 2, loop1, size_cap=13)
    with pytest.raises(CapExceededError):
        exact_pair_probability(13, 3, loop1, size_cap=13)


def test_int64_count_limit_is_refused_before_any_walk(monkeypatch):
    # At n = 20 the half-length-9 shape has 23 copy positions, within the
    # width limit, but catalan(20) >= 2**31, so U[S] * L[S] could leave
    # int64; the refusal names that limit and builds no walks.
    monkeypatch.setattr(oracle, "_dyck_walks", lambda n: pytest.fail("walks built"))
    shape = parse_shape("supp=1,18;up=1-18;lo=1-18")
    assert oracle._width(20, shape) == MAX_MASK_WIDTH
    with pytest.raises(
        CapExceededError,
        match=r"^size 20 has catalan\(20\) >= 2\*\*31 matchings per half, too many "
        "systems to count in int64; the oracle stops at size 19$",
    ):
        exact_distribution(20, shape, size_cap=20)


def test_distribution_memory(loop1):
    # At n = 11 there are 2**21 position sets.  Int64 U and L with a third
    # array for U * L peaked at 49.1 MiB, the product formed in U at
    # 33.3 MiB, and one int32 array of 2**21 sums beside the int64 product
    # at 24.6 MiB.  Indexed by star blocks, the simple loop's sets take
    # 3**10 * 2 int64 entries (0.9 MiB) per array, and the enumeration
    # sets the peak at 4.97 MiB (tracemalloc, numpy 2.4.6).
    tracemalloc.start()
    try:
        exact_distribution(11, loop1, size_cap=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_cached_masks_distribution_memory(loop1):
    # At n = 10, with the masks cached, 2**19 int32 sums, their product and
    # its inversion in one array peaked at 2.33 MiB.  The star arrays hold
    # 3**9 * 2 int64 entries (0.3 MiB) each; with the sums cached, the
    # product, its inversion and the sizes peak at 0.79 MiB (tracemalloc,
    # numpy 2.4.6).
    oracle._superset_sums(10, loop1)
    tracemalloc.start()
    try:
        exact_distribution(10, loop1, size_cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 * 2**20


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("text", ["supp=1,2;up=1-2;lo=1-2", "supp=1,2,3,4;up=1-4,2-3;lo=1-2,3-4"])
def test_int32_and_int64_paths_meet(n, text):
    # n = 10 is the last size whose catalan(n)**2 fits int32, n = 11 the
    # first that does not; the second shape's halves differ.
    shape = parse_shape(text)
    assert sum(exact_distribution(n, shape, size_cap=n).values()) == catalan(n) ** 2
    for r in (1, 2, 3):
        assert exact_factorial_moment(n, r, shape, size_cap=n) == factorial_moment_strong(n, r, shape)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_fold_supersets_against_brute_force(dtype):
    # The star fold over blocks of k = 2, 3 and 4 positions, with and
    # without a short last block; it works in place, in the given dtype.
    rng = np.random.default_rng(3)
    for k, width in [(2, 0), (2, 1), (2, 6), (2, 7), (3, 9), (3, 11), (4, 10), (4, 12)]:
        size = int(np.prod(oracle._star_dims(k, width)))
        sets = np.arange(size)
        masks = oracle._star_masks(sets, k, width)
        # One-to-one onto sets of positions 1..width, at most one per block.
        assert len(np.unique(masks)) == size
        assert not (masks >> width).any()
        for start in range(0, width, k):
            assert np.bitwise_count(masks >> start & (1 << k) - 1).max() <= 1
        assert np.array_equal(oracle._star_sizes(k, width), np.bitwise_count(masks))
        counts = rng.integers(0, 1000, size).astype(dtype)
        expected = [int(counts[masks & m == m].sum()) for m in masks]
        folded = oracle._fold_supersets(counts.copy(), k, width, np.add)
        assert folded.dtype == dtype
        assert folded.tolist() == expected
        assert np.array_equal(oracle._fold_supersets(folded, k, width, np.subtract), counts)


def test_two_copies_in_one_block_raise(loop1, monkeypatch):
    # The simple loop's blocks hold two positions; the first matching gets
    # hits at both positions of the first block.
    def two_in_one_block(heights, arcs, width):
        hits = arcs_at(heights, arcs, width)
        hits[0, :2] = True
        return hits

    monkeypatch.setattr(oracle, "arcs_at", two_in_one_block)
    oracle._half_sums.cache_clear()
    with pytest.raises(OracleInvariantError, match="at most one copy"):
        exact_distribution(3, loop1)


def test_equal_halves_share_one_array(loop1):
    up, lo = oracle._superset_sums(6, loop1)
    assert up is lo
    assert not up.flags.writeable
    by_upper = {}
    for shape in enumerate_shapes(3):
        by_upper.setdefault((shape.upper, oracle._block_size(shape)), []).append(shape)
    first, second = next(group for group in by_upper.values() if len(group) > 1)[:2]
    assert oracle._superset_sums(6, first)[0] is oracle._superset_sums(6, second)[0]


def test_distinct_halves_build_their_walks_once(monkeypatch):
    builds = []

    def counted(n):
        builds.append(n)
        return _dyck_walks(n)

    monkeypatch.setattr(oracle, "_dyck_walks", counted)
    oracle._half_sums.cache_clear()
    shape = parse_shape("supp=1,2,3,4;up=1-4,2-3;lo=1-2,3-4")
    exact_distribution(5, shape)
    assert builds == [5]
    exact_distribution(5, shape)  # both halves cached: no walks at all
    assert builds == [5]


# A weak shape of half-length 7 with 13 positions at n = 12.
WEAK_L7 = "supp=1,2,7,8,13,14;up=1-8,2-7,13-14;lo=1-2,7-14,8-13"


def test_cache_holds_no_per_matching_array():
    # The cache keeps star arrays, sized by the width and the block size
    # alone: here 8 * 2 int64 entries per half.  Per-matching bitmasks of
    # the two halves, catalan(12) int64 each, retained 3.18 MiB.
    oracle._half_sums.cache_clear()
    tracemalloc.start()
    try:
        exact_distribution(12, parse_shape(WEAK_L7), size_cap=12)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * 2**20


def _swap(shape):
    """The shape with its halves exchanged."""
    return Shape(shape.support, shape.lower, shape.upper)


def _mirror(shape):
    """The shape reflected left to right, v -> 2 * half_length + 1 - v."""
    top = 2 * shape.half_length + 1

    def flip(arcs):
        return tuple(sorted((top - b, top - a) for a, b in arcs))

    return Shape(tuple(sorted(top - v for v in shape.support)), flip(shape.upper), flip(shape.lower))


def _images(shape):
    return [shape, _swap(shape), _mirror(shape), _swap(_mirror(shape))]


def test_dihedral_images_share_one_law():
    # Exchanging the half-planes, or reading the axis right to left, maps
    # systems one-to-one onto systems and copies onto copies, so the four
    # images of a shape have one law.  The mirror reverses every
    # left-to-right rule of the oracle: the heights arcs_at reads, the
    # order of the star blocks and their digits.
    for ell in (1, 2, 3):
        shapes = enumerate_shapes(ell)
        for shape in shapes:
            for n in (ell + 3, 9):
                law = exact_distribution(n, shape, size_cap=9)
                spectrum = block_spectrum(n, 2, shape, size_cap=9)
                for image in _images(shape)[1:]:
                    assert image in shapes
                    assert exact_distribution(n, image, size_cap=9) == law
                    assert block_spectrum(n, 2, image, size_cap=9) == spectrum


def test_weak_l5_images_share_one_law(weak_l5):
    assert _mirror(weak_l5) == parse_shape(verify._WEAK_L5_MIRROR)
    laws = [exact_distribution(10, image, size_cap=10) for image in _images(weak_l5)]
    assert all(law == laws[0] for law in laws)


def test_block_spectrum_widens_the_product(loop1):
    # At n = 12 U * L on one position reaches 3455793796, above 2**31, so
    # a product of the int32 halves left in int32 would wrap.
    spectrum = block_spectrum(12, 1, loop1, size_cap=12)
    assert sum(spectrum.values()) == factorial_moment_strong(12, 1, loop1)


def test_invariant_violation_raises(loop1, monkeypatch):
    up, lo = oracle._superset_sums(4, loop1)
    lo = lo.copy()
    lo[0] += 1  # one lower matching too many
    monkeypatch.setattr(oracle, "_superset_sums", lambda n, shape: (up, lo))
    with pytest.raises(OracleInvariantError, match="not a partition"):
        exact_distribution(4, loop1)


@pytest.mark.parametrize(
    "name,call,message",
    [
        (
            "closed_form_pair_probability",
            lambda s: exact_pair_probability(4, 3, s),
            "pair probability mismatch",
        ),
        ("_disjoint_factorial_moment", lambda s: moment_report(4, 1, s), "below disjoint-tuple bound"),
        ("factorial_moment_strong", lambda s: moment_report(4, 1, s), "strong-shape formula"),
    ],
    ids=["pair-probability", "exact-below-bound", "formula-not-exact"],
)
def test_formula_mismatch_raises(loop1, monkeypatch, name, call, message):
    # A closed form off its enumerated value is reported, never patched over.
    closed_form = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: closed_form(*args) + 1)
    with pytest.raises(FormulaMismatchError, match=message):
        call(loop1)


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


MEAN_COMPONENTS = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(47, 25), 4: Fraction(31, 14), 5: Fraction(53, 21)}


@pytest.mark.parametrize("n", sorted(MEAN_COMPONENTS))
def test_census_every_component_has_one_shape(n):
    # Each component of a system has exactly one shape, of half-length at
    # most n, so the shapes' mean counts add up to the mean number of
    # components, and to the mean number of components of each half-length.
    # A missing, repeated or wrongly refused shape breaks it, and so does a
    # wrong r = 1 closed form.
    systems, by_ell = 0, Counter()
    for system in enumerate_systems(n):
        systems += 1
        by_ell.update(component_shape(c, system).half_length for c in components(system))
    assert Fraction(sum(by_ell.values()), systems) == MEAN_COMPONENTS[n]
    for ell in range(1, n + 1):
        census = sum(disjoint_moment_term(n, 1, shape) for shape in enumerate_shapes(ell))
        assert census == Fraction(by_ell[ell], systems)


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


def test_block_spectrum_refuses_r_below_1(loop1):
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"r must be >= 1, got {r}"):
            block_spectrum(4, r, loop1)


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
