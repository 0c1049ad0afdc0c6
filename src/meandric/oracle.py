"""Brute-force ground truth over all systems of a given small size.

Every quantity here is obtained by complete enumeration of the
``catalan(n)**2`` meandric systems, kept exact end to end; no floating
point is used in this module.  These values are the reference that the
closed forms in :mod:`meandric.analysis` are tested against; the module
holds no closed form of its own (:func:`exact_pair_probability` checks its
count against :func:`meandric.analysis.closed_form_pair_probability`).

Performance note: whether a copy of a shape sits at position i factorizes
into an upper-matching condition and a lower-matching condition.  The
enumeration kernel of :mod:`meandric.combinatorics` builds the
``catalan(n) x (2n + 1)`` matrix of Dyck path heights of all matchings of
size n directly in numpy, with no Python object per matching and no
pairing of steps; :func:`meandric.meanders.arcs_at` tests each half of the
shape at every position of every matching in one vectorized pass, over
the ``width = 2n - 2 * half_length + 1`` positions.  Each half clashes
with its own translate at every offset up to its longest arc, so copies
start at least ``k = 1 + min(longest upper arc, longest lower arc)``
positions apart and a block of k consecutive positions holds at most
one.  A position set is indexed by one digit per block (0 for no copy, j
for the block's j-th position), over ``prod(block length + 1)`` entries:
for the simple loop 3**8 * 2 = 13,122 at n = 9, where a bitmask index
had 2**17, and 354,294 at n = 12 against 2**23.  Each matching's hits
are read straight into its star index, the matchings are counted per
index with ``np.bincount``, and each half is summed over supersets with
one strided ``np.add`` per block position.  The walks are built once for
both halves of a request and dropped after it.  The sums are cached per half
and block size, so shapes that share both share one array, and the cache
holds no array whose size grows with ``catalan(n)``.  ``U[S] * L[S]`` is
the number of systems with copies at every position of the set S.  Pair
probabilities and block spectra read that product directly; one superset
Moebius inversion, the same loop with ``np.subtract``, turns it into the
number of systems whose copies sit exactly at T, whose histogram by
``|T|`` is the distribution.  A factorial moment weights each count x by
``math.perm(x, r)``, 0 at once when r exceeds x.  No step loops over
matchings in Python.  All arrays are int64: every value counts systems,
at most ``catalan(n)**2``, and the guard ``catalan(n) < 2**31`` keeps
that within range.  For the simple loop in a fresh process (2 cores,
Python 3.11.7, numpy 2.4.6), a distribution takes about 0.003 s at n=9,
0.007 s at n=10, 0.022 s at n=11 and 0.09 s at n=12, enumeration
included.  A shape with over ``MAX_MASK_WIDTH`` copy positions is
refused, and so is any size from n = 20 on, where ``catalan(n) >= 2**31``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .analysis import (
    _disjoint_factorial_moment,
    closed_form_pair_probability,
    disjoint_moment_term,  # noqa: F401  (perfbench/tracing.py wraps this global)
    factorial_moment_strong,
    fraction_json,
    shape_constants,
)
from .combinatorics import _dyck_walks, catalan, enumerate_matchings
from .errors import CapExceededError, FormulaMismatchError, OracleInvariantError
from .meanders import MeandricSystem, Shape, arcs_at, format_shape

__all__ = [
    "DEFAULT_SIZE_CAP",
    "MAX_MASK_WIDTH",
    "enumerate_systems",
    "exact_distribution",
    "distribution_csv",
    "exact_factorial_moment",
    "exact_pair_probability",
    "block_spectrum",
    "MomentReport",
    "moment_report",
]

DEFAULT_SIZE_CAP = 8

# Most copy positions the oracle handles, the simple loop at n=12.  Its star
# arrays hold 3**11 * 2 int64 entries (2.7 MiB) each; the enumeration, not
# the fold, bounds the sizes beyond it (the walks of n = 14 take 155 MB).
MAX_MASK_WIDTH = 23

# Largest size whose system count a refusal spells out (catalan(20)**2 has 20
# digits); near n = 3600 the count passes the 4300 digits Python will print.
_COUNTED_SIZE = 20


def _check_cap(n: int, size_cap: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be >= 1, got {n}")
    if n > size_cap:
        count = f" ({catalan(n)**2} systems)" if n <= _COUNTED_SIZE else ""
        raise CapExceededError(f"size {n} above cap {size_cap}{count}", override="size_cap")


def enumerate_systems(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Iterator[MeandricSystem]:
    """All systems of size n: outer loop over the upper matching, inner
    loop over the lower, both in enumeration order."""
    _check_cap(n, size_cap)
    ms = tuple(enumerate_matchings(n))
    yield from (MeandricSystem(upper, lower) for upper in ms for lower in ms)


def _width(n: int, shape: Shape) -> int:
    """Number of positions at which a copy of the shape can start: none
    for a shape wider than the system."""
    return max(0, 2 * n - 2 * shape.half_length + 1)


def _block_size(shape: Shape) -> int:
    """Positions per star block: one more than the shorter of the two
    halves' longest arcs.  Each half clashes with its own translate at
    every offset up to its longest arc (the two copies cross, or share
    that arc's right end), so copies of the shape start at least this
    far apart, and a block of this many consecutive positions holds at
    most one."""
    return 1 + min(max(b - a for a, b in half) for half in (shape.upper, shape.lower))


def _star_dims(k: int, width: int) -> tuple[int, ...]:
    """Axis lengths of the star array over ``width`` positions in blocks
    of k, most significant first: the short last block, if any, then one
    axis of ``k + 1`` digits per full block.

    A position set with at most one position per block has the star
    index ``sum(digit_b * (k + 1)**b)``, where block b holds positions
    ``b*k + 1 .. b*k + k`` and its digit is 0 for none of them or j for
    the j-th."""
    full, last = divmod(width, k)
    return ((last + 1,) if last else ()) + (k + 1,) * full


def _star_masks(index: np.ndarray, k: int, width: int) -> np.ndarray:
    """The bitmask of each star index: bit ``i-1`` is set for position i."""
    bit = np.concatenate(([0], 1 << np.arange(k)))
    masks = np.zeros_like(index)
    for start in range(0, width, k):
        index, digits = np.divmod(index, k + 1)
        masks |= bit[digits] << start
    return masks


def _star_sizes(k: int, width: int) -> np.ndarray:
    """Number of positions of every star index: its nonzero digits.  Built
    from the least significant block up, each block's digit 0 keeping the
    sizes so far and each other digit adding one."""
    sizes = np.zeros(1, dtype=np.int8)
    for d in reversed(_star_dims(k, width)):
        sizes = np.concatenate([sizes] + [sizes + 1] * (d - 1))
    return sizes


@lru_cache(maxsize=1)
def _walks(n: int) -> np.ndarray:
    """One size's walks, for both halves of a request; :func:`_superset_sums` drops them."""
    return _dyck_walks(n)


@lru_cache(maxsize=128)
def _half_sums(n: int, arcs: tuple[tuple[int, int], ...], width: int, k: int) -> np.ndarray:
    """Superset sums of one half over the star index of position sets S
    (see :func:`_star_dims`): entry S counts the matchings of size n that
    hold the arcs translated to start at every position of S.

    Each matching's hits from :func:`arcs_at` are read into its star
    index one block at a time, the block's last hit setting its digit,
    so no digit carries into the next block.  An index never has more
    positions than its matching has hits, and has fewer exactly when two
    hits share a block: that is not a set of copies, so a shortfall in
    the total raises :class:`OracleInvariantError`.  The matchings are
    counted per index with ``np.bincount`` and summed over supersets.
    The array is read-only, since the cache shares it between shapes."""
    hits = arcs_at(_walks(n), arcs, width)
    index = np.zeros(len(hits), dtype=np.intp)
    digit = np.empty_like(index)
    for b, start in enumerate(range(0, width, k)):
        digit.fill(0)
        for j, column in enumerate(hits.T[start : start + k], 1):
            np.copyto(digit, j * (k + 1) ** b, where=column)
        index += digit
    sizes = _star_sizes(k, width)[index]
    if np.count_nonzero(hits) != sizes.sum():
        row = np.flatnonzero(np.count_nonzero(hits, axis=1) != sizes)[0]
        positions = (np.flatnonzero(hits[row]) + 1).tolist()
        raise OracleInvariantError(
            f"matching {row} of size {n} has copies at positions {positions}, not at most "
            f"one copy in each block of {k} of its {width} positions"
        )
    counts = np.bincount(index, minlength=math.prod(_star_dims(k, width)))
    _fold_supersets(counts, k, width, np.add)
    counts.flags.writeable = False
    return counts


def _superset_sums(n: int, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """``(U, L)``: the :func:`_half_sums` of the shape's upper arcs and of
    its lower arcs.  ``U[S]`` counts the upper matchings that hold the
    shape's upper arcs at every position of S, and ``L[S]`` the same for
    the lower.  So ``U[S] * L[S]`` counts the systems with copies at every
    position of S; a set with two positions in one block has none, and no
    index.  Both are int64 and read-only; shapes with an equal half and
    block size share its array, and a shape whose halves are equal gets
    one array twice."""
    width = _width(n, shape)
    if width > MAX_MASK_WIDTH:
        raise CapExceededError(
            f"size {n} needs {width} copy positions for a half-length-"
            f"{shape.half_length} shape; the oracle stops at {MAX_MASK_WIDTH}"
        )
    if catalan(n) >= 2**31:
        raise CapExceededError(
            f"size {n} has catalan({n}) >= 2**31 matchings per half, too many "
            "systems to count in int64; the oracle stops at size 19"
        )
    k = _block_size(shape)
    try:
        return _half_sums(n, shape.upper, width, k), _half_sums(n, shape.lower, width, k)
    finally:
        _walks.cache_clear()


def _fold_supersets(counts: np.ndarray, k: int, width: int, op: np.ufunc) -> np.ndarray:
    """For each block in turn, ``counts[S] = op(counts[S], counts[S + j])``
    for every S whose digit there is 0 and each of the block's digits j
    (``S + j`` has digit j there), in place: ``np.add`` sums each entry
    over its supersets and ``np.subtract`` undoes that (superset Moebius
    inversion), since an entry with a nonzero digit has no superset
    differing in that block."""
    dims = _star_dims(k, width)
    for axis, d in enumerate(dims):
        digits = counts.reshape(math.prod(dims[:axis]), d, -1)
        for j in range(1, d):
            op(digits[:, 0], digits[:, j], out=digits[:, 0])
    return counts


def _exact_counts(n: int, shape: Shape) -> np.ndarray:
    """Number of systems whose set of copy positions is exactly T, for
    every star index T: the superset Moebius inversion of ``U * L``.

    Each partial inversion step still counts systems, so every entry
    stays in ``[0, catalan(n)**2]``, within int64 under the guard's
    ``catalan(n) < 2**31``."""
    up, lo = _superset_sums(n, shape)
    counts = np.multiply(up, lo)
    _fold_supersets(counts, _block_size(shape), _width(n, shape), np.subtract)
    if counts.min() < 0 or int(counts.sum()) != catalan(n) ** 2:
        raise OracleInvariantError(
            f"exact occurrence counts at n={n} shape={format_shape(shape)} are not a "
            f"partition of the {catalan(n) ** 2} systems"
        )
    return counts


def exact_distribution(n: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> dict[int, int]:
    """Histogram of the shape count over all ``catalan(n)**2`` systems."""
    _check_cap(n, size_cap)
    counts = _exact_counts(n, shape)
    sets = np.flatnonzero(counts)
    width = _width(n, shape)
    histogram = np.zeros(width + 1, dtype=np.int64)
    np.add.at(histogram, _star_sizes(_block_size(shape), width)[sets], counts[sets])
    return {x: int(c) for x, c in enumerate(histogram) if c}


def distribution_csv(distribution: dict[int, int]) -> str:
    """CSV text form of a distribution: header then one (x, count) row."""
    lines = ["x,count"]
    lines += [f"{x},{c}" for x, c in sorted(distribution.items())]
    return "\n".join(lines) + "\n"


def _factorial_moment(distribution: dict[int, int], n: int, r: int) -> Fraction:
    """r-th factorial moment of a count distribution over all size-n systems."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    total = sum(math.perm(x, r) * c for x, c in distribution.items())
    return Fraction(total, catalan(n) ** 2)


def exact_factorial_moment(
    n: int, r: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> Fraction:
    """r-th factorial moment of the shape count, by enumeration."""
    return _factorial_moment(exact_distribution(n, shape, size_cap), n, r)


def exact_pair_probability(
    n: int,
    offset: int,
    shape: Shape,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Fraction:
    """Probability that the system has copies of the shape starting at
    positions 1 and ``offset``, by enumeration.

    The closed form is evaluated too and a disagreement raises
    :class:`FormulaMismatchError`; a disagreement would mean the
    combinatorial feasibility rule and the enumeration disagree about this
    offset and must be reported, not patched over.
    """
    _check_cap(n, size_cap)
    if offset < 2:
        raise ValueError(f"offset must be >= 2, got {offset}")
    ell = shape.half_length
    if 2 * ell + offset - 1 > 2 * n:
        raise ValueError(f"combined base {2 * ell + offset - 1} does not fit in [{2 * n}]")
    up, lo = _superset_sums(n, shape)
    k = _block_size(shape)
    block, slot = divmod(offset - 1, k)
    # Position 1 is digit 1 of block 0; a second position there has no copy.
    need = 1 + (slot + 1) * (k + 1) ** block
    systems = int(up[need]) * int(lo[need]) if block else 0
    enumerated = Fraction(systems, catalan(n) ** 2)
    formula = closed_form_pair_probability(n, offset, shape)
    if formula != enumerated:
        raise FormulaMismatchError(
            f"pair probability mismatch at n={n} offset={offset} "
            f"shape={format_shape(shape)}: enumerated {enumerated}, closed form {formula}"
        )
    return enumerated


def block_spectrum(
    n: int, r: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> dict[int, Fraction]:
    """Split the r-th factorial moment, at any r >= 1, by the number of blocks.

    Every r-set of occurrence positions is classified by chaining
    positions closer than the base width ``2 * half_length``; the value
    at block count u is the total expectation mass of r-sets with u
    blocks, so the values sum to ``exact_factorial_moment / r!``.  The
    mass of one r-set S is the number of systems with copies at every
    position of S.
    """
    _check_cap(n, size_cap)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    span = 2 * shape.half_length
    up, lo = _superset_sums(n, shape)
    k, width = _block_size(shape), _width(n, shape)
    sets = np.flatnonzero(_star_sizes(k, width) == r)
    masks = _star_masks(sets, k, width)
    near = np.zeros_like(masks)
    for shift in range(1, span):
        near |= masks << shift
    blocks = np.bitwise_count(masks & ~near)  # positions with no other within span before them
    mass = up[sets] * lo[sets]
    denom = catalan(n) ** 2
    totals = {u: int(mass[blocks == u].sum()) for u in range(1, r + 1)}
    return {u: Fraction(w, denom) for u, w in totals.items() if w}


@dataclass(frozen=True)
class MomentReport:
    """Exact-vs-formula comparison for one (n, r, shape).

    ``formula_moment`` is absent for every weak shape (at r <= 1 the
    closed form would equal the lower bound); the universal lower bound
    ``r! * disjoint_moment_term`` is always present.  ``distribution`` is
    the :func:`exact_distribution` the exact moment was taken from.
    """

    n: int
    r: int
    shape: Shape
    exact_moment: Fraction
    formula_moment: Fraction | None
    lower_bound: Fraction
    distribution: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "shape": format_shape(self.shape),
            "exactMoment": fraction_json(self.exact_moment),
            "formulaMoment": None
            if self.formula_moment is None
            else fraction_json(self.formula_moment),
            "lowerBoundRFr": fraction_json(self.lower_bound),
        }


def moment_report(n: int, r: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> MomentReport:
    """Assemble the exact moment, the strong-shape closed form, and the
    universal lower bound; enforce their relations."""
    distribution = exact_distribution(n, shape, size_cap)
    exact = _factorial_moment(distribution, n, r)
    constants = shape_constants(shape)
    formula = factorial_moment_strong(n, r, shape) if constants.is_strong else None
    bound = _disjoint_factorial_moment(n, r, shape)
    if exact < bound:
        raise FormulaMismatchError(
            f"exact moment {exact} below disjoint-tuple bound {bound} "
            f"at n={n} r={r} shape={format_shape(shape)}"
        )
    if formula is not None and formula != exact:
        raise FormulaMismatchError(
            f"strong-shape formula {formula} != exact {exact} "
            f"at n={n} r={r} shape={format_shape(shape)}"
        )
    return MomentReport(
        n=n,
        r=r,
        shape=shape,
        exact_moment=exact,
        formula_moment=formula,
        lower_bound=bound,
        distribution=distribution,
    )
