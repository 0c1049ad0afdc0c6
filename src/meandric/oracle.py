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
matching's row of hits is packed into one integer bitmask.  Sums over all
upper/lower pairs then collapse into products over grouped mask counts.
The result is identical to iterating the full outer/inner product in its
documented deterministic order, and tests cross-check it against direct
loop tracing on the streamed systems.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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
from .errors import CapExceededError, FormulaMismatchError
from .meanders import MeandricSystem, Shape, arcs_at, format_shape

__all__ = [
    "DEFAULT_SIZE_CAP",
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


@lru_cache(maxsize=64)
def _occurrence_masks(n: int, shape: Shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-matching bitmasks: bit ``i-1`` of ``up[j]`` is set iff matching
    j contains the shape's upper arcs translated to start at i; same for
    the lower arcs."""
    width = 2 * n - 2 * shape.half_length + 1
    partners = np.array([m.partner for m in _matchings(n)])[:, 1:] - 1
    bits = 1 << np.arange(width, dtype=np.int64)
    up, lo = (arcs_at(partners, arcs, width) @ bits for arcs in (shape.upper, shape.lower))
    return tuple(up.tolist()), tuple(lo.tolist())


def _mask_counters(n: int, shape: Shape) -> tuple[Counter, Counter]:
    up_masks, lo_masks = _occurrence_masks(n, shape)
    return Counter(up_masks), Counter(lo_masks)


def _joint_masks(n: int, shape: Shape) -> Counter:
    """Number of systems per joint occurrence mask ``up & lo``: bit
    ``i-1`` is set iff a copy of the shape starts at position i."""
    up_counter, lo_counter = _mask_counters(n, shape)
    joint: Counter = Counter()
    for up_mask, up_count in up_counter.items():
        for lo_mask, lo_count in lo_counter.items():
            joint[up_mask & lo_mask] += up_count * lo_count
    return joint


def exact_distribution(n: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> dict[int, int]:
    """Histogram of the shape count over all ``catalan(n)**2`` systems."""
    _check_cap(n, size_cap)
    if 2 * shape.half_length > 2 * n:
        return {0: catalan(n) ** 2}
    dist: Counter = Counter()
    for mask, weight in _joint_masks(n, shape).items():
        dist[mask.bit_count()] += weight
    return dict(sorted(dist.items()))


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
    up_counter, lo_counter = _mask_counters(n, shape)
    need = 1 | (1 << (offset - 1))
    up_hits = sum(c for mask, c in up_counter.items() if mask & need == need)
    lo_hits = sum(c for mask, c in lo_counter.items() if mask & need == need)
    enumerated = Fraction(up_hits * lo_hits, catalan(n) ** 2)
    formula = closed_form_pair_probability(n, offset, shape)
    if formula != enumerated:
        raise FormulaMismatchError(
            f"pair probability mismatch at n={n} offset={offset} "
            f"shape={format_shape(shape)}: enumerated {enumerated}, closed form {formula}"
        )
    return enumerated


def _split_blocks(positions: tuple[int, ...], span: int) -> int:
    """Number of blocks of a sorted tuple under the chaining relation
    "within span of the previous position"."""
    blocks = 1
    for a, b in zip(positions, positions[1:]):
        if b - a >= span:
            blocks += 1
    return blocks


def block_spectrum(
    n: int, r: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> dict[int, Fraction]:
    """Split the r-th factorial moment by the number of blocks.

    Every r-tuple of occurrence positions is classified by chaining
    positions closer than the base width ``2 * half_length``; the value
    at block count u is the total expectation mass of r-tuples with u
    blocks, so the values sum to ``exact_factorial_moment / r!``.
    """
    _check_cap(n, size_cap)
    if not 1 <= r <= 3:
        raise ValueError(f"block spectrum supports r in 1..3, got {r}")
    span = 2 * shape.half_length
    if span > 2 * n:
        return {}
    spectrum: Counter = Counter()
    for mask, weight in _joint_masks(n, shape).items():
        positions = tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
        if len(positions) < r:
            continue
        for subset in combinations(positions, r):
            spectrum[_split_blocks(subset, span)] += weight
    denom = catalan(n) ** 2
    return {u: Fraction(w, denom) for u, w in sorted(spectrum.items())}


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
