"""Face decomposition and closed-form moment machinery for shapes.

A loop, drawn together with the horizontal axis, cuts each half-plane into
faces: one unbounded face per half-plane and some bounded ones.  Free
vertices (base points the loop skips) each sit in exactly one upper face
and one lower face, namely the region under the innermost enclosing arc of
that half-plane, or the unbounded face if no arc encloses them.  Within a
half-plane the region under an arc but outside its child arcs is
connected, so "innermost enclosing arc" is a complete face label, the
top of a stack of open arcs in one left-to-right sweep of the base.

Everything downstream is built from the per-face free-vertex counts:

* ``face_weight`` (one Catalan factor per bounded face) counts the ways to
  fill the bounded faces of a placed copy with non-crossing arcs;
* the open pair counts (half the free-vertex count of each unbounded face)
  shift the Catalan indices for filling the rest of the plane;
* :func:`shape_constants` scans the offsets at which two copies of a shape
  can coexist, and each feasible overlap contributes an exact rational
  correction to the variance coefficient of the central limit theorem.

One exact rule, ``_placement_probability``, gives the probability of every
placement: of u disjoint copies, or of two copies, whose constants are
read from that overlap table.

All shape constants and moment values are exact (int / Fraction); the
only float is :func:`log_factorial_moment_asymptotic`, the large-n form
the exact moments are compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Sequence, Union

from .combinatorics import catalan, choose
from .errors import InvalidShapeError, ShapeInvariantError, WeakShapeError
from .meanders import Shape, format_shape

__all__ = [
    "FaceDecomposition",
    "OverlapInfo",
    "ShapeConstants",
    "CltParameters",
    "HypothesisReport",
    "TightnessProfile",
    "face_decomposition",
    "closed_form_pair_probability",
    "shape_constants",
    "disjoint_moment_term",
    "factorial_moment_strong",
    "log_factorial_moment_asymptotic",
    "clt_parameters",
    "clt_hypothesis_check",
    "tightness_profile",
    "constants_report",
    "fraction_json",
]

Placement = Sequence[tuple[Shape, int]]


@dataclass(frozen=True)
class FaceDecomposition:
    """Free vertices per face for one placed loop or several.

    ``upper`` / ``lower`` map each bounded face, labelled by its innermost
    arc in absolute coordinates, to the number of free vertices incident
    to it.  ``open_upper`` / ``open_lower`` count the free vertices of the
    two unbounded faces.  Bounded faces with no free vertices are omitted
    (they contribute a Catalan factor of 1).
    """

    upper: tuple[tuple[tuple[int, int], int], ...]
    lower: tuple[tuple[tuple[int, int], int], ...]
    open_upper: int
    open_lower: int

    def bounded_counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.upper) + tuple(c for _, c in self.lower)


def _placed_arcs(placement: Placement) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[int]]:
    """Absolute (upper arcs, lower arcs, support) of a list of placed copies."""
    upper: list[tuple[int, int]] = []
    lower: list[tuple[int, int]] = []
    support: list[int] = []
    for shape, offset in placement:
        if offset < 1:
            raise ValueError(f"offset {offset} must be >= 1")
        shift = offset - 1
        upper.extend((a + shift, b + shift) for a, b in shape.upper)
        lower.extend((a + shift, b + shift) for a, b in shape.lower)
        support.extend(v + shift for v in shape.support)
    return upper, lower, support


def _half_plane_faces(arcs: list[tuple[int, int]], base: range) -> tuple[tuple, int]:
    """Free-vertex counts of one half-plane's bounded faces and of its
    unbounded face, from one sweep of the base.  The arcs open at a vertex
    form a stack whose top is the innermost; an arc that closes below the
    top crosses it."""
    partner = dict(arcs) | {b: a for a, b in arcs}
    faces: dict[tuple[int, int], int] = {}
    open_count = 0
    stack: list[tuple[int, int]] = []
    for v in base:
        w = partner.get(v)
        if w is None:
            if stack:
                faces[stack[-1]] = faces.get(stack[-1], 0) + 1
            else:
                open_count += 1
        elif v < w:
            stack.append((v, w))
        elif stack.pop() != (w, v):
            raise InvalidShapeError("crossing: placed copies cross")
    return tuple(sorted(faces.items())), open_count


def face_decomposition(loops: Union[Shape, Placement]) -> FaceDecomposition:
    """Assign every free vertex of the combined base to its upper and
    lower face and aggregate the counts per face.

    ``loops`` is a single shape (placed at 1) or a sequence of
    ``(shape, offset)`` copies.  The copies must have disjoint supports
    and mutually non-crossing arcs within each half-plane.
    """
    placement: Placement = [(loops, 1)] if isinstance(loops, Shape) else list(loops)
    upper_arcs, lower_arcs, support = _placed_arcs(placement)
    if len(set(support)) != len(support):
        raise InvalidShapeError("support: placed copies share a vertex")
    base = range(min(support), max(support) + 1)
    upper, open_upper = _half_plane_faces(upper_arcs, base)
    lower, open_lower = _half_plane_faces(lower_arcs, base)
    return FaceDecomposition(upper=upper, lower=lower, open_upper=open_upper, open_lower=open_lower)


# ---------------------------------------------------------------------------
# Shape constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapInfo:
    """A feasible joint placement of two copies, the second starting at
    ``offset``.

    ``base_size`` is the size of the combined base interval
    (``2 * half_length + offset - 1``).  ``open_free_upper`` and
    ``open_free_lower`` are the raw free-vertex counts of the unbounded
    faces; they stay doubled (i.e. un-halved) because they are odd for
    even offsets.  ``correction`` is the exact contribution of this
    overlap offset to the variance coefficient.
    """

    offset: int
    base_size: int
    face_weight: int
    open_free_upper: int
    open_free_lower: int
    correction: Fraction


@dataclass(frozen=True)
class ShapeConstants:
    """All placement constants of one shape.

    ``face_weight`` is the product of Catalan numbers of the bounded-face
    free-vertex half-counts; ``open_pairs_upper`` / ``open_pairs_lower``
    are half the free-vertex counts of the unbounded faces.  A shape is
    strong when no offset admits two overlapping copies.
    """

    half_length: int
    face_weight: int
    open_pairs_upper: int
    open_pairs_lower: int
    overlaps: tuple[OverlapInfo, ...]

    @property
    def is_strong(self) -> bool:
        return not self.overlaps

    @property
    def denominator_power(self) -> int:
        """The exponent e with 4**e the natural normalizer: 2*ell - c+ - c-."""
        return 2 * self.half_length - self.open_pairs_upper - self.open_pairs_lower

    @property
    def correction_sum(self) -> Fraction:
        """Sum of the overlap corrections; 0 for a strong shape."""
        return sum((o.correction for o in self.overlaps), Fraction(0))


def _face_weight(decomp: FaceDecomposition) -> int:
    w = 1
    for count in decomp.bounded_counts():
        if count % 2:
            raise InvalidShapeError(f"matching: bounded face has odd free count {count}")
        w *= catalan(count // 2)
    return w


def _joint_faces(placement: Placement) -> FaceDecomposition | None:
    """Face decomposition of placed copies, or None when no meandric
    system holds them all: the copies collide or cross, or they leave a
    bounded face with an odd free-vertex count."""
    try:
        decomp = face_decomposition(placement)
    except InvalidShapeError:
        return None
    if any(count % 2 for count in decomp.bounded_counts()):
        return None
    return decomp


@lru_cache(maxsize=None)
def shape_constants(shape: Shape) -> ShapeConstants:
    """Compute and cache the placement constants of a shape.

    The overlaps are the offsets ``2 .. 2*half_length`` at which a second
    copy can coexist with one at 1 (offset 1 would be the same copy), with
    the constants of each joint placement.
    """
    decomp = face_decomposition(shape)
    if decomp.open_upper % 2 or decomp.open_lower % 2:
        raise InvalidShapeError("matching: unbounded face has odd free count for a single loop")
    ell, weight = shape.half_length, _face_weight(decomp)
    open_pairs = decomp.open_upper // 2 + decomp.open_lower // 2
    overlaps = []
    for offset in range(2, 2 * ell + 1):
        pair = _joint_faces([(shape, 1), (shape, offset)])
        if pair is None:
            continue
        base_size = 2 * ell + offset - 1
        pair_weight = _face_weight(pair)
        # The correction is a dyadic multiple of K_pair / K**2.  The exponent
        # of 4 in its definition is a half-integer for even offsets, so it
        # is carried as an exponent of 2, which is always exact.
        two_log = 8 * ell - 2 * base_size + pair.open_upper + pair.open_lower - 4 * open_pairs
        overlaps.append(
            OverlapInfo(
                offset=offset,
                base_size=base_size,
                face_weight=pair_weight,
                open_free_upper=pair.open_upper,
                open_free_lower=pair.open_lower,
                correction=Fraction(pair_weight, weight * weight) * Fraction(2) ** two_log,
            )
        )
    constants = ShapeConstants(
        half_length=ell,
        face_weight=weight,
        open_pairs_upper=decomp.open_upper // 2,
        open_pairs_lower=decomp.open_lower // 2,
        overlaps=tuple(overlaps),
    )
    # Structural guarantees: the unbounded faces cannot exhaust the base,
    # and the face weight is dominated by the normalizer.
    if constants.open_pairs_upper + constants.open_pairs_lower > ell - 1:
        raise ShapeInvariantError(
            f"shape {format_shape(shape)}: {constants.open_pairs_upper} + "
            f"{constants.open_pairs_lower} open pairs exceed half-length - 1 = {ell - 1}"
        )
    if weight * (4 * ell - 1) >= 4**constants.denominator_power:
        raise ShapeInvariantError(
            f"shape {format_shape(shape)}: face weight {weight} times {4 * ell - 1} "
            f"is not below 4**{constants.denominator_power}"
        )
    return constants


# ---------------------------------------------------------------------------
# Moment formulas
# ---------------------------------------------------------------------------


def _catalan_quotient(i: int, n: int) -> Fraction:
    """Exact ``catalan(i) / catalan(n)`` for ``i, n >= 0``.

    Telescopes ``catalan(m) / catalan(m-1) = 2(2m-1) / (m+1)`` over the
    indices between i and n, so the cost grows with ``|n - i|`` rather
    than with the size of ``catalan(n)``.
    """
    lo, hi = min(i, n), max(i, n)
    num = den = 1
    for m in range(lo + 1, hi + 1):
        num *= 2 * (2 * m - 1)
        den *= m + 1
    return Fraction(num, den) if i > n else Fraction(den, num)


def _placement_probability(
    n: int, weight: int, base_size: int, open_upper: int, open_lower: int
) -> Fraction:
    """Probability that a size-n system holds one given placement of
    copies: ``weight * catalan(i_up) * catalan(i_lo) / catalan(n)**2`` with
    ``i = n - (base_size - open) // 2`` per half-plane, 0 when an index is
    negative.  ``weight`` counts the fillings of the bounded faces and the
    open counts are the raw free-vertex counts of the unbounded faces."""
    i_up = n - (base_size - open_upper) // 2
    i_lo = n - (base_size - open_lower) // 2
    if i_up < 0 or i_lo < 0:
        return Fraction(0)
    return weight * _catalan_quotient(i_up, n) * _catalan_quotient(i_lo, n)


def disjoint_moment_term(n: int, u: int, shape: Shape) -> Fraction:
    """Contribution of u-tuples of pairwise non-overlapping copies to the
    u-th factorial moment of the shape count in a uniform size-n system,
    divided by u!.

    Exact rational; zero as soon as u copies cannot fit.  Equal to the
    number of placements times the probability of one, u copies side by
    side with weight ``W**u``, base ``2 u ell`` and open counts
    ``2 u c+-``; the Catalan quotients are telescoping products, so the
    cost stays small for large n and small u.
    """
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    if u == 0:
        return Fraction(1)
    c = shape_constants(shape)
    ell = c.half_length
    placements = choose(2 * n - 2 * u * ell + u, u)
    if placements == 0:
        return Fraction(0)
    return placements * _placement_probability(
        n, c.face_weight**u, 2 * u * ell, 2 * u * c.open_pairs_upper, 2 * u * c.open_pairs_lower
    )


def closed_form_pair_probability(n: int, offset: int, shape: Shape) -> Fraction:
    """Probability that copies sit at positions 1 and ``offset``, read
    from the overlap table of :func:`shape_constants`.

    An overlapping offset (at most ``2*half_length``) that the table does
    not list is infeasible.  Beyond it the copies sit side by side, which
    is :func:`disjoint_moment_term`'s placement of two copies: the free
    vertices between them open into both unbounded faces and cancel out
    of both Catalan indices.  Zero when the pair does not fit in ``[2n]``.
    """
    if offset < 2:
        raise ValueError(f"offset must be >= 2, got {offset}")
    ell = shape.half_length
    if 2 * ell + offset - 1 > 2 * n:
        return Fraction(0)
    c = shape_constants(shape)
    if offset > 2 * ell:
        return _placement_probability(
            n, c.face_weight**2, 4 * ell, 4 * c.open_pairs_upper, 4 * c.open_pairs_lower
        )
    for o in c.overlaps:
        if o.offset == offset:
            return _placement_probability(
                n, o.face_weight, o.base_size, o.open_free_upper, o.open_free_lower
            )
    return Fraction(0)


def factorial_moment_strong(n: int, r: int, shape: Shape) -> Fraction:
    """Exact r-th factorial moment of the shape count in a uniform size-n
    system, wherever the closed form applies.

    The closed form is ``r! *`` :func:`disjoint_moment_term`, exact when no
    r-tuple of copies can overlap: for a strong shape at every r, and for
    any shape at r <= 1.  A weak shape at r >= 2 raises
    :class:`WeakShapeError`, since its moment also takes contributions from
    overlapping tuples.  This is the one place that decides where the
    closed form applies.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    c = shape_constants(shape)
    if not c.is_strong and r >= 2:
        raise WeakShapeError(
            "the closed-form factorial moment assumes a strong shape (copies can "
            "never overlap); this shape is weak at offsets "
            f"{[o.offset for o in c.overlaps]}, so only r <= 1 or the "
            "exact/asymptotic modes apply"
        )
    return _disjoint_factorial_moment(n, r, shape)


def _disjoint_factorial_moment(n: int, r: int, shape: Shape) -> Fraction:
    """``r! *`` :func:`disjoint_moment_term`: the mass of r-tuples of
    pairwise non-overlapping copies, a lower bound on the r-th factorial
    moment of any shape.  r! is not built when the term is 0."""
    term = disjoint_moment_term(n, r, shape)
    return math.factorial(r) * term if term else term


def log_factorial_moment_asymptotic(n: int, r: int, shape: Shape) -> float:
    """Log of the large-n approximation of the r-th factorial moment.

    The leading factor is ``(2 n W / 4**e) ** r`` with W the face weight
    and e the normalizer exponent; the exponential correction combines
    the placement-exclusion term with the overlap corrections.  For a
    strong shape the correction sum is empty.  n below 1 or r below 0
    raises ValueError, and so does a value beyond the float range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r == 0:
        return 0.0
    c = shape_constants(shape)
    lead = math.log(2 * n * c.face_weight) - c.denominator_power * math.log(4)
    corr = c.correction_sum
    try:
        value = r * lead - (r * r / (4 * n)) * (4 * c.half_length - 1) + (r * r / (2 * n)) * float(corr)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the asymptotic log moment at n={n}, r={r} is beyond the float range")
    return value


# ---------------------------------------------------------------------------
# Central limit theorem parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltParameters:
    """Exact coefficients of the Gaussian limit of the shape count.

    For the count X_n of a shape in a uniform size-n system,
    ``(X_n - n * mean) / sqrt(n * variance)`` tends to a standard normal.
    """

    mean: Fraction
    variance: Fraction


def clt_parameters(shape: Shape) -> CltParameters:
    """Mean and variance coefficients of the shape-count CLT, exactly.

    The mean coefficient is ``2 W / 4**e``.  The variance coefficient is
    ``mean * (1 + (W / 4**e) * (1 - 4*ell + 2 * sum of overlap
    corrections))``; for strong shapes the sum is empty.  Positivity of
    the variance is guaranteed by ``W (4*ell - 1) < 4**e`` together with
    the corrections being positive.
    """
    c = shape_constants(shape)
    scale = Fraction(c.face_weight, 4**c.denominator_power)
    mean = 2 * scale
    variance = mean * (1 + scale * (1 - 4 * c.half_length + 2 * c.correction_sum))
    if mean <= 0 or variance <= 0:
        raise ShapeInvariantError(
            f"shape {format_shape(shape)}: CLT mean {mean} and variance {variance} "
            "must both be positive"
        )
    return CltParameters(mean=mean, variance=variance)


@dataclass(frozen=True)
class HypothesisReport:
    """Checks of the factorial-moment criterion for asymptotic normality.

    The criterion needs the product ``mu_n * s_n`` to stay above -1, the
    derived scale ``sigma_n = sqrt(mu_n + mu_n**2 s_n)`` to be small
    relative to ``mu_n``, and ``mu_n`` to be small relative to
    ``sigma_n**3``.  For the families arising here (``mu_n`` of order n,
    ``s_n`` of order 1/n) the last two hold exactly when
    ``1 + mu_n * s_n`` is a positive constant, so all three reduce to that
    product test, whose outcome is ``all_pass``.
    """

    product: float
    sigma: float
    all_pass: bool


def clt_hypothesis_check(mu_n: Union[float, Rational], s_n: Union[float, Rational]) -> HypothesisReport:
    """Evaluate the moment-criterion hypotheses at given (mu_n, s_n).

    ``mu_n`` must be positive.  A violation is flagged, not raised.
    """
    if mu_n <= 0:
        raise ValueError(f"mu_n must be positive, got {mu_n}")
    product = mu_n * s_n
    var = mu_n * (1 + product)
    sigma = math.sqrt(float(var)) if var >= 0 else float("nan")
    return HypothesisReport(product=float(product), sigma=sigma, all_pass=product > -1)


# ---------------------------------------------------------------------------
# Tightness profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessProfile:
    """Bounding terms for the overlapping-tuple contributions.

    ``terms[u-1] = (u, B_u)`` with
    ``B_u = C(r-1, u-1) (2*ell)**(r-u) * disjoint_moment_term(n, u)``.
    ``min_ratio`` is the smallest ``B_{u+1} / B_u``; the tuples with few
    blocks are negligible exactly when this stays large.
    """

    terms: tuple[tuple[int, Fraction], ...]
    min_ratio: Fraction | None


def tightness_profile(n: int, r: int, shape: Shape) -> TightnessProfile:
    """Exact bounding terms ``B_{r,1..r}`` and their minimal growth ratio."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if r * r > n:
        raise ValueError(f"profile needs r <= sqrt(n), got r={r} n={n}")
    ell = shape.half_length
    f = [disjoint_moment_term(n, u, shape) for u in range(1, r + 1)]
    terms = tuple(
        (u, choose(r - 1, u - 1) * Fraction((2 * ell) ** (r - u)) * f[u - 1])
        for u in range(1, r + 1)
    )
    min_ratio: Fraction | None = None
    for u in range(1, r):
        b_u, b_next = terms[u - 1][1], terms[u][1]
        if b_u > 0:
            ratio = b_next / b_u
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    return TightnessProfile(terms=terms, min_ratio=min_ratio)


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------


def fraction_json(x: Fraction) -> dict[str, str]:
    """Rational as decimal strings, the wire form used by all reports."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _log_fraction(x: Fraction) -> float:
    """Natural log of a positive rational, taken from its numerator and
    denominator, so it stays finite beyond the float range."""
    return math.log(x.numerator) - math.log(x.denominator)


def constants_report(shape: Shape) -> dict:
    """Constants and CLT parameters of a shape in the documented JSON
    schema (K and KI as decimal strings, doubled open counts for
    overlaps, rationals as num/den strings)."""
    c = shape_constants(shape)
    params = clt_parameters(shape)
    return {
        "shape": format_shape(shape),
        "ell": c.half_length,
        "K": str(c.face_weight),
        "cPlus": c.open_pairs_upper,
        "cMinus": c.open_pairs_lower,
        "strong": c.is_strong,
        "overlaps": [
            {
                "i": o.offset,
                "twoEllI": o.base_size,
                "KI": str(o.face_weight),
                "twoCPlusI": o.open_free_upper,
                "twoCMinusI": o.open_free_lower,
                "bI": fraction_json(o.correction),
            }
            for o in c.overlaps
        ],
        "mu": fraction_json(params.mean),
        "sigma2": fraction_json(params.variance),
    }
