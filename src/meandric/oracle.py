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
shape at every position of every matching in one vectorized pass, and
each matching's row of hits is packed into one integer bitmask over the
``width = 2n - 2 * half_length + 1`` positions.  The masks are cached per
half, so shapes that share a half share its masks.  Binned into counts per
mask and summed over supersets (``width`` in-place numpy butterflies over
``2**width`` entries, once per distinct half), the two halves give
``U[S] * L[S]``, the number of systems with copies at every position of
the set S.  Pair probabilities and block spectra read that product
directly; one superset Moebius inversion turns it into the number of
systems whose copies sit exactly at T, whose histogram by ``|T|``
(``np.bitwise_count``, summed in int64) is the distribution.  A factorial
moment weights each count x by ``math.perm(x, r)``, 0 at once when r
exceeds x.  No step loops over masks in Python.  ``U`` and ``L`` count
matchings, so they are int32 below the guard ``catalan(n) < 2**31``.
Every value after them counts systems, at most ``catalan(n)**2``, so
while that is below ``2**31`` (n <= 10) the product and the inversion
are int32, in U's own array; from n = 11 they are int64.  For the simple
loop, whose two halves are equal, in a fresh process (2 cores, Python
3.11.7, numpy 2.4.6), a distribution takes about 0.005 s at n=9 (2**17
sets), 0.020 s at n=10, 0.098 s at n=11 and 0.41 s at n=12, enumeration
included.  Sets of over ``MAX_MASK_WIDTH`` positions are refused.
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
from .combinatorics import NonCrossingMatching, _bit_codes, _dyck_walks, catalan, enumerate_matchings
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

# Most copy positions the oracle handles, the simple loop at n=12: 2**23
# int32 counts (32 MiB) per half and 2**23 int64 (64 MiB) for their product.
MAX_MASK_WIDTH = 23


# Largest size whose system count a refusal spells out: catalan(20)**2 has
# 20 digits, while near n = 3600 the count passes the 4300 digits Python
# will print, and computing it alone costs time.
_COUNTED_SIZE = 20


def _check_cap(n: int, size_cap: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be >= 1, got {n}")
    if n > size_cap:
        count = f" ({catalan(n)**2} systems)" if n <= _COUNTED_SIZE else ""
        raise CapExceededError(f"size {n} above cap {size_cap}{count}", override="size_cap")


@lru_cache(maxsize=4)
def _matchings(n: int) -> tuple[NonCrossingMatching, ...]:
    return tuple(enumerate_matchings(n))


def enumerate_systems(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Iterator[MeandricSystem]:
    """All systems of size n: outer loop over the upper matching, inner
    loop over the lower, both in enumeration order."""
    _check_cap(n, size_cap)
    ms = _matchings(n)
    for upper in ms:
        for lower in ms:
            yield MeandricSystem(upper, lower)


def _width(n: int, shape: Shape) -> int:
    """Number of positions at which a copy of the shape can start: none
    for a shape wider than the system."""
    return max(0, 2 * n - 2 * shape.half_length + 1)


@lru_cache(maxsize=128)
def _half_masks(n: int, arcs: tuple[tuple[int, int], ...], width: int) -> np.ndarray:
    """Per-matching bitmasks of one half: bit ``i-1`` of entry j is set iff
    matching j contains the arcs translated to start at position i.  The
    array is read-only, since the cache shares it between shapes."""
    mask = _bit_codes(arcs_at(_dyck_walks(n), arcs, width))
    mask.flags.writeable = False
    return mask


def _occurrence_masks(n: int, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """``(up, lo)``: the bitmasks of the shape's upper arcs and of its lower
    arcs.  The masks are cached per half, so shapes with an equal half share
    one array, and a shape whose halves are equal gets one array twice."""
    width = _width(n, shape)
    return _half_masks(n, shape.upper, width), _half_masks(n, shape.lower, width)


def _superset_sums(n: int, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """``(U, L)`` over all 2**width position sets S: ``U[S]`` counts the
    upper matchings that hold the shape's upper arcs at every position of
    S (bit ``i-1`` for position i), and ``L[S]`` the same for the lower.
    So ``U[S] * L[S]`` counts the systems with copies at every position
    of S.  Both count matchings, so they are int32 below the guard's
    ``catalan(n) < 2**31``, counted by distinct mask with no int64 bin
    array.  Equal masks are folded once and the one array is returned
    twice, so both are read-only.  They are built afresh on every call,
    so a caller done with them may take them over, as
    :func:`_exact_counts` does."""
    width = _width(n, shape)
    if width > MAX_MASK_WIDTH or catalan(n) >= 2**31:
        raise CapExceededError(
            f"size {n} needs 2**{width} position sets for a half-length-"
            f"{shape.half_length} shape; the oracle stops at 2**{MAX_MASK_WIDTH}"
        )
    up, lo = _occurrence_masks(n, shape)
    sums = []
    for mask in (up,) if up is lo else (up, lo):
        counts = np.zeros(1 << width, dtype=np.int32)
        sets, matchings = np.unique(mask, return_counts=True)
        counts[sets] = matchings
        _fold_supersets(counts, np.add)
        counts.flags.writeable = False
        sums.append(counts)
    return sums[0], sums[-1]


def _fold_supersets(counts: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``counts[S] = op(counts[S], counts[S | 2**k])`` for every bit k in
    turn, in place: ``np.add`` sums each entry over its supersets and
    ``np.subtract`` undoes that (superset Moebius inversion).  Rows of
    fewer than 16 entries are swept down the columns, in one long strided
    loop, where numpy's memory order would start one short loop per row."""
    for k in range(counts.size.bit_length() - 1):
        pairs = counts.reshape(-1, 2, 1 << k)
        op(pairs[:, 0], pairs[:, 1], out=pairs[:, 0], order="F" if k < 4 else "K")
    return counts


def _exact_counts(n: int, shape: Shape) -> np.ndarray:
    """Number of systems whose set of copy positions is exactly T, for
    every T: the superset Moebius inversion of ``U * L``.

    Each partial inversion step still counts systems, so every entry
    stays in ``[0, catalan(n)**2]``.  While ``catalan(n)**2 < 2**31``
    (n <= 10) the product and the inversion are int32 and run in U's own
    array, which this call takes over from :func:`_superset_sums` (for
    equal halves U is L, and U * U squares in place).  From n = 11 the
    product is a new int64 array."""
    up, lo = _superset_sums(n, shape)
    if catalan(n) ** 2 < 2**31:
        up.flags.writeable = True
        counts = np.multiply(up, lo, out=up)
    else:
        counts = np.multiply(up, lo, dtype=np.int64)
    _fold_supersets(counts, np.subtract)
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
    np.add.at(histogram, np.bitwise_count(sets), counts[sets].astype(np.int64, copy=False))
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
    need = 1 | (1 << (offset - 1))
    enumerated = Fraction(int(up[need]) * int(lo[need]), catalan(n) ** 2)
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
    popcounts = np.bitwise_count(np.arange(1 << _width(n, shape), dtype=np.int32))
    sets = np.flatnonzero(popcounts == r)
    near = np.zeros_like(sets)
    for k in range(1, span):
        near |= sets << k
    blocks = popcounts[sets & ~near]  # positions with no other within span before them
    mass = np.multiply(up[sets], lo[sets], dtype=np.int64)
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
