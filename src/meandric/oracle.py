"""Brute-force ground truth over all systems of a given small size.

Every quantity here is obtained by complete enumeration of the
``catalan(n)**2`` meandric systems, kept exact end to end; no floating
point is used in this module.  These values are the reference that the
closed forms in :mod:`meandric.analysis` are tested against.

Performance note: whether a copy of a shape sits at position i factorizes
into an upper-matching condition and a lower-matching condition.  All
matchings of size n are stacked once into a ``catalan(n) x 2n`` partner
matrix, :func:`meandric.meanders.arcs_at` tests each half of the shape at
every position of every matching in one vectorized pass, and each
matching's row of hits is packed into one integer bitmask over the
``width = 2n - 2 * half_length + 1`` positions.  Binned into counts per
mask and summed over supersets (``width`` in-place numpy butterflies over
``2**width`` entries), the two halves give ``U[S] * L[S]``, the number of
systems with copies at every position of the set S.  Pair probabilities
and block spectra read that product directly; one superset Moebius
inversion turns it into the number of systems whose copies sit exactly
at T, whose histogram by ``|T|`` is the distribution.  No step loops over
masks in Python, and all arithmetic is in int64, exact because every
intermediate value counts systems.  At n=9 (simple loop, 2**17 sets) a
distribution takes about 0.08 s on a cold cache, enumeration included,
where the product over the 2901 x 2901 distinct (upper, lower) mask pairs
took 3.7 s (2 cores, Python 3.11.7, numpy 2.4.6).  Sets of more than
``MAX_MASK_WIDTH`` positions are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .analysis import (
    _face_weight,
    disjoint_moment_term,
    factorial_moment_strong,
    fraction_json,
    pair_placement,
    shape_constants,
)
from .combinatorics import NonCrossingMatching, catalan, enumerate_matchings, falling_factorial
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
    "closed_form_pair_probability",
    "block_spectrum",
    "MomentReport",
    "moment_report",
]

DEFAULT_SIZE_CAP = 8

# Most copy positions the oracle handles: 2**23 int64 counts (64 MiB) per
# array, the simple loop at n=12.
MAX_MASK_WIDTH = 23


def _check_cap(n: int, size_cap: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be >= 1, got {n}")
    if n > size_cap:
        raise CapExceededError(
            f"size {n} above cap {size_cap} ({catalan(n)**2} systems); "
            "pass size_cap explicitly to override"
        )


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
    """Number of positions at which a copy of the shape can start."""
    return 2 * n - 2 * shape.half_length + 1


@lru_cache(maxsize=64)
def _occurrence_masks(n: int, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Per-matching bitmasks: bit ``i-1`` of ``up[j]`` is set iff matching
    j contains the shape's upper arcs translated to start at i; same for
    the lower arcs.  The arrays are read-only, since the cache shares them."""
    width = _width(n, shape)
    partners = np.array([m.partner for m in _matchings(n)])[:, 1:] - 1
    bits = 1 << np.arange(width, dtype=np.int64)
    masks = tuple(arcs_at(partners, arcs, width) @ bits for arcs in (shape.upper, shape.lower))
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _superset_sums(n: int, shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """``(U, L)`` over all 2**width position sets S: ``U[S]`` counts the
    upper matchings that hold the shape's upper arcs at every position of
    S (bit ``i-1`` for position i), and ``L[S]`` the same for the lower.
    So ``U[S] * L[S]`` counts the systems with copies at every position
    of S."""
    width = _width(n, shape)
    if width > MAX_MASK_WIDTH or catalan(n) ** 2 >= 2**63:
        raise CapExceededError(
            f"size {n} needs 2**{width} position sets for a half-length-"
            f"{shape.half_length} shape; the oracle stops at 2**{MAX_MASK_WIDTH}"
        )
    up, lo = _occurrence_masks(n, shape)
    return (
        _fold_supersets(np.bincount(up, minlength=1 << width), np.add),
        _fold_supersets(np.bincount(lo, minlength=1 << width), np.add),
    )


def _fold_supersets(counts: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``counts[S] = op(counts[S], counts[S | 2**k])`` for every bit k in
    turn, in place: ``np.add`` sums each entry over its supersets and
    ``np.subtract`` undoes that (superset Moebius inversion)."""
    for k in range(counts.size.bit_length() - 1):
        pairs = counts.reshape(-1, 2, 1 << k)
        op(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    return counts


def _exact_counts(n: int, shape: Shape) -> np.ndarray:
    """Number of systems whose set of copy positions is exactly T, for
    every T: the superset Moebius inversion of ``U * L``.

    Each partial inversion step still counts systems, so every entry
    stays in ``[0, catalan(n)**2]`` and int64 is exact."""
    up, lo = _superset_sums(n, shape)
    counts = _fold_supersets(up * lo, np.subtract)
    if counts.min() < 0 or int(counts.sum()) != catalan(n) ** 2:
        raise OracleInvariantError(
            f"exact occurrence counts at n={n} shape={format_shape(shape)} are not a "
            f"partition of the {catalan(n) ** 2} systems"
        )
    return counts


def _popcounts(width: int) -> np.ndarray:
    """Number of set bits of every integer below 2**width."""
    table = np.zeros(1 << width, dtype=np.int8)
    for k in range(width):
        table[1 << k : 2 << k] = table[: 1 << k] + 1
    return table


def exact_distribution(n: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> dict[int, int]:
    """Histogram of the shape count over all ``catalan(n)**2`` systems."""
    _check_cap(n, size_cap)
    if 2 * shape.half_length > 2 * n:
        return {0: catalan(n) ** 2}
    counts = _exact_counts(n, shape)
    sets = np.flatnonzero(counts)
    width = _width(n, shape)
    histogram = np.zeros(width + 1, dtype=np.int64)
    np.add.at(histogram, _popcounts(width)[sets], counts[sets])
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
    total = sum(falling_factorial(x, r) * c for x, c in distribution.items())
    return Fraction(total, catalan(n) ** 2)


def exact_factorial_moment(
    n: int, r: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> Fraction:
    """r-th factorial moment of the shape count, by enumeration."""
    return _factorial_moment(exact_distribution(n, shape, size_cap), n, r)


def closed_form_pair_probability(n: int, offset: int, shape: Shape) -> Fraction:
    """Probability that copies sit at positions 1 and ``offset``, from the
    joint face decomposition: fill the bounded faces (one Catalan factor
    each) and the two unbounded faces (one Catalan factor each, index
    shifted by the open free-vertex counts).  Zero when the placement is
    infeasible or does not fit in ``[2n]``."""
    ell = shape.half_length
    base_size = 2 * ell + offset - 1
    if base_size > 2 * n:
        return Fraction(0)
    decomp = pair_placement(shape, offset)
    if decomp is None:
        return Fraction(0)
    i_up = n - (base_size - decomp.open_upper) // 2
    i_lo = n - (base_size - decomp.open_lower) // 2
    if i_up < 0 or i_lo < 0:
        return Fraction(0)
    return Fraction(_face_weight(decomp) * catalan(i_up) * catalan(i_lo), catalan(n) ** 2)


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
    """Split the r-th factorial moment by the number of blocks.

    Every r-set of occurrence positions is classified by chaining
    positions closer than the base width ``2 * half_length``; the value
    at block count u is the total expectation mass of r-sets with u
    blocks, so the values sum to ``exact_factorial_moment / r!``.  The
    mass of one r-set S is the number of systems with copies at every
    position of S.
    """
    _check_cap(n, size_cap)
    if not 1 <= r <= 3:
        raise ValueError(f"block spectrum supports r in 1..3, got {r}")
    span = 2 * shape.half_length
    if span > 2 * n:
        return {}
    up, lo = _superset_sums(n, shape)
    popcounts = _popcounts(_width(n, shape))
    sets = np.flatnonzero(popcounts == r)
    near = np.zeros_like(sets)
    for k in range(1, span):
        near |= sets << k
    blocks = popcounts[sets & ~near]  # positions with no other within span before them
    mass = up[sets] * lo[sets]
    denom = catalan(n) ** 2
    totals = {u: int(mass[blocks == u].sum()) for u in range(1, r + 1)}
    return {u: Fraction(w, denom) for u, w in totals.items() if w}


@dataclass(frozen=True)
class MomentReport:
    """Exact-vs-formula comparison for one (n, r, shape).

    ``formula_moment`` is absent for weak shapes with r >= 2, where the
    strong-shape closed form does not apply; the universal lower bound
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
    """Assemble the exact moment, the closed form where it applies, and
    the universal lower bound; enforce their relations."""
    distribution = exact_distribution(n, shape, size_cap)
    exact = _factorial_moment(distribution, n, r)
    constants = shape_constants(shape)
    formula = factorial_moment_strong(n, r, shape) if constants.is_strong else None
    bound = falling_factorial(r, r) * disjoint_moment_term(n, r, shape)
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
