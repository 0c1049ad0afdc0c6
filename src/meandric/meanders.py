"""Meandric systems, their loops, and normalized loop shapes.

A meandric system of size n is an (upper, lower) pair of non-crossing
matchings of ``{1, ..., 2n}``: drawing the upper matching's arcs above the
horizontal axis and the lower matching's arcs below it yields a family of
disjoint closed loops crossing the axis exactly at ``1..2n``.  Each loop is
a connected component; its translation-normalized combinatorial type is a
shape.  This module traces loops (one walk, ``_loop``, serves
:func:`components`, the connectivity check of :class:`Shape` and the
choice of shapes), extracts and validates shapes, counts occurrences of a
given shape (by tracing, and by :func:`arcs_at`, the vectorized arc test
on Dyck path heights that the sampler and the oracle share), and
enumerates all shapes of a given half-length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import NonCrossingMatching, arcs_noncrossing, enumerate_matchings
from .errors import CapExceededError, InvalidMatchingError, InvalidShapeError

__all__ = [
    "MeandricSystem",
    "Component",
    "Shape",
    "simple_loop",
    "parse_shape",
    "format_shape",
    "components",
    "component_shape",
    "arcs_at",
    "count_shape",
    "enumerate_shapes",
    "DEFAULT_SHAPE_CAP",
]

DEFAULT_SHAPE_CAP = 5


@dataclass(frozen=True)
class MeandricSystem:
    """An (upper, lower) pair of equal-size non-crossing matchings."""

    upper: NonCrossingMatching
    lower: NonCrossingMatching

    def __post_init__(self) -> None:
        if self.upper.size != self.lower.size:
            raise InvalidMatchingError(
                f"upper size {self.upper.size} != lower size {self.lower.size}"
            )
        if self.upper.size < 1:
            raise InvalidMatchingError("system size must be >= 1")

    @property
    def size(self) -> int:
        return self.upper.size


@dataclass(frozen=True)
class Component:
    """One loop of a system: the sorted axis points it passes through."""

    support: tuple[int, ...]

    @property
    def left(self) -> int:
        return self.support[0]

    @property
    def right(self) -> int:
        return self.support[-1]

    @property
    def half_length(self) -> int:
        """Half the size of the base interval ``[left, right]``."""
        return (self.right - self.left + 1) // 2


@dataclass(frozen=True)
class Shape:
    """A normalized connected loop.

    ``support`` is the sorted tuple of axis points, starting at 1 and
    ending at ``2 * half_length``; consecutive support points differ by an
    odd amount, so the runs of skipped (free) vertices between them all
    have even size.  ``upper`` and ``lower`` are the loop's arcs in each
    half-plane: non-crossing perfect matchings of the support whose union
    is a single cycle.
    """

    support: tuple[int, ...]
    upper: tuple[tuple[int, int], ...]
    lower: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        supp = self.support
        if not supp or supp[0] != 1:
            raise InvalidShapeError("support: leftmost support point must be 1")
        if len(supp) % 2 != 0 or any(a >= b for a, b in zip(supp, supp[1:])):
            raise InvalidShapeError("support: need an even, strictly increasing support")
        if supp[-1] % 2 != 0:
            raise InvalidShapeError("support: rightmost support point must be even")
        for a, b in zip(supp, supp[1:]):
            if (b - a) % 2 == 0:
                raise InvalidShapeError(f"odd-gap: gap {a}..{b} has even difference")
        for name, arcs in (("upper", self.upper), ("lower", self.lower)):
            # The support is strictly increasing, so endpoints that sort to it
            # use every support point exactly once: a perfect matching.
            if (
                tuple(sorted(arcs)) != arcs
                or any(a >= b for a, b in arcs)
                or sorted(v for arc in arcs for v in arc) != list(supp)
            ):
                raise InvalidShapeError(
                    f"matching: {name} arcs must be sorted ascending pairs whose "
                    "endpoints are the support, each once"
                )
            if not arcs_noncrossing(arcs):
                raise InvalidShapeError(f"crossing: {name} arcs cross")
        # Connectivity: the loop through the leftmost point must be the
        # whole support.
        up = dict(self.upper) | {b: a for a, b in self.upper}
        lo = dict(self.lower) | {b: a for a, b in self.lower}
        if len(_loop(supp[0], up, lo)) != len(supp):
            raise InvalidShapeError("connectivity: arcs split into more than one loop")

    @property
    def half_length(self) -> int:
        return self.support[-1] // 2


def simple_loop() -> Shape:
    """The loop crossing the axis at two adjacent points."""
    return Shape((1, 2), ((1, 2),), ((1, 2),))


def format_shape(shape: Shape) -> str:
    """Canonical text form, e.g. ``supp=1,2;up=1-2;lo=1-2``."""
    supp = ",".join(str(v) for v in shape.support)
    up = ",".join(f"{a}-{b}" for a, b in shape.upper)
    lo = ",".join(f"{a}-{b}" for a, b in shape.lower)
    return f"supp={supp};up={up};lo={lo}"


def parse_shape(text: str) -> Shape:
    """Parse the shape grammar ``supp=...;up=...;lo=...``, each field
    exactly once in any order.

    Violations of the shape invariants raise :class:`InvalidShapeError`
    with a message naming the failed invariant.
    """
    fields: dict[str, str] = {}
    for part in text.strip().split(";"):
        key, eq, value = part.partition("=")
        if not eq:
            raise InvalidShapeError(f"grammar: missing '=' in {part!r}")
        key = key.strip()
        if key not in ("supp", "up", "lo"):
            raise InvalidShapeError(f"grammar: unknown field {key!r}")
        if key in fields:
            raise InvalidShapeError(f"grammar: repeated field {key!r}")
        fields[key] = value.strip()
    missing = {"supp", "up", "lo"} - fields.keys()
    if missing:
        raise InvalidShapeError(f"grammar: missing fields {sorted(missing)}")

    def ints(csv: str) -> tuple[int, ...]:
        try:
            return tuple(int(x) for x in csv.split(","))
        except ValueError:
            raise InvalidShapeError(f"grammar: bad integer list {csv!r}") from None

    def arcs(csv: str) -> tuple[tuple[int, int], ...]:
        out = []
        for chunk in csv.split(","):
            a, dash, b = chunk.partition("-")
            if not dash:
                raise InvalidShapeError(f"grammar: bad arc {chunk!r}")
            try:
                out.append((int(a), int(b)))
            except ValueError:
                raise InvalidShapeError(f"grammar: bad arc {chunk!r}") from None
        return tuple(sorted(out))

    return Shape(ints(fields["supp"]), arcs(fields["up"]), arcs(fields["lo"]))


# ---------------------------------------------------------------------------
# Loop tracing
# ---------------------------------------------------------------------------


def _loop(
    v: int, up: Mapping[int, int] | Sequence[int], lo: Mapping[int, int] | Sequence[int]
) -> list[int]:
    """Vertices of the loop through v, in the order of the walk that leaves
    v by its upper arc and alternates upper and lower arcs until it is
    back at v; ``up[w]`` / ``lo[w]`` are w's partners in each half-plane."""
    loop = []
    w, on_upper = v, True
    while True:
        loop.append(w)
        w = up[w] if on_upper else lo[w]
        on_upper = not on_upper
        if w == v and on_upper:
            return loop


def components(system: MeandricSystem) -> list[Component]:
    """All loops, listed by increasing leftmost vertex; supports partition
    the vertex set, computed in one O(n) sweep."""
    up, lo = system.upper.partner, system.lower.partner
    seen: set[int] = set()
    out = []
    for v in range(1, 2 * system.size + 1):
        if v not in seen:
            support = _loop(v, up, lo)
            seen.update(support)
            out.append(Component(tuple(sorted(support))))
    return out


def component_shape(component: Component, system: MeandricSystem) -> Shape:
    """Shape of a component: translate its support so the leftmost point
    becomes 1 and keep the loop's own arcs."""
    shift = 1 - component.left
    up, lo = system.upper.partner, system.lower.partner
    members = set(component.support)
    if any(up[v] not in members or lo[v] not in members for v in component.support):
        raise InvalidShapeError("connectivity: component support is not closed under arcs")
    upper = tuple(sorted((v + shift, up[v] + shift) for v in component.support if up[v] > v))
    lower = tuple(sorted((v + shift, lo[v] + shift) for v in component.support if lo[v] > v))
    return Shape(tuple(v + shift for v in component.support), upper, lower)


def arcs_at(heights: np.ndarray, arcs: Iterable[tuple[int, int]], width: int) -> np.ndarray:
    """Where a set of arcs sits in matchings given as rows of Dyck path
    heights, ``H[t]`` after t steps.

    Entry ``(k, i)`` of the ``(rows, width)`` result is True iff row k
    pairs vertex ``a + i`` with ``b + i`` for every arc ``(a, b)``, i.e.
    contains the arcs translated to start at position ``i + 1``.  The
    stack bijection pairs them iff the path returns to ``H[a - 1 + i]``
    at ``H[b + i]`` and stays above it in between.  With one half of a
    shape per call, a copy of the shape starts at ``i + 1`` exactly where
    the upper and lower results are both True: the shape's arcs already
    close a loop, so no stray vertex can join it.
    """
    hits = np.ones((len(heights), width), dtype=bool)
    for a, b in arcs:
        floor = heights[:, a - 1 : a - 1 + width]
        hits &= heights[:, b : b + width] == floor
        for t in range(a, b):
            hits &= heights[:, t : t + width] > floor
    return hits


def count_shape(system: MeandricSystem, shape: Shape) -> int:
    """Number of components of the given shape, via one tracing sweep."""
    hits = 0
    for comp in components(system):
        if comp.right - comp.left + 1 != 2 * shape.half_length:
            continue
        shift = 1 - comp.left
        if tuple(v + shift for v in comp.support) != shape.support:
            continue
        if component_shape(comp, system) == shape:
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# Shape enumeration
# ---------------------------------------------------------------------------


def _supports(ell: int) -> Iterator[tuple[int, ...]]:
    """The supports of half-length ``ell`` in lexicographic order: runs from
    1 to ``2 * ell`` climbing by odd steps, depth first, smallest step first.
    Every partial run can reach the end, and a finished run has no next step."""
    top, stack = 2 * ell, [(1,)]
    while stack:
        run = stack.pop()
        if run[-1] == top:
            yield run
        stack.extend(run + (v,) for v in reversed(range(run[-1] + 1, top + 1, 2)))


def enumerate_shapes(ell: int, max_half_length: int = DEFAULT_SHAPE_CAP) -> list[Shape]:
    """All shapes of half-length exactly ``ell``, deterministically ordered.

    The shapes on 2k support points are the pairs of matchings of [2k]
    that close one loop, found once per k and relabelled onto each
    support.  Order: supports ascending lexicographically, then the upper
    and the lower matching in the order of :func:`enumerate_matchings`.
    ``ell`` is capped (default 5) because the counts grow fast; pass a
    larger ``max_half_length`` explicitly to go beyond.
    """
    if ell < 1:
        raise ValueError(f"half-length must be >= 1, got {ell}")
    if ell > max_half_length:
        raise CapExceededError(
            f"half-length {ell} above cap {max_half_length}", override="max_half_length"
        )
    out, loops = [], {}
    for support in _supports(ell):
        k = len(support) // 2
        if k not in loops:
            ms = list(enumerate_matchings(k))
            loops[k] = [m.arcs() for m in ms], [
                (i, j) for i, u in enumerate(ms) for j, w in enumerate(ms)
                if len(_loop(1, u.partner, w.partner)) == 2 * k
            ]
        arcs, pairs = loops[k]
        # Relabelling [2k] -> support preserves order, hence sorted, non-crossing arcs.
        placed = [tuple((support[a - 1], support[b - 1]) for a, b in m) for m in arcs]
        out.extend(Shape(support, placed[i], placed[j]) for i, j in pairs)
    return out
