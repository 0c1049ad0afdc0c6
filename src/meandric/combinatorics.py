"""Exact integer primitives for the Catalan world.

Catalan numbers, binomial coefficients, and non-crossing perfect matchings
of ``{1, ..., 2n}``.  All arithmetic here is exact.

Matchings are handled in bulk as rows of Dyck path heights, ``H[t]``
after t steps.  Enumeration fills one matrix of all paths of a size a
column of heights at a time, each row stepping by its rank
(:func:`_dyck_walks`); the sampler rotates random walks into Dyck paths
(:func:`_rotated_heights`).  Shape counts read the heights directly.  A
single matching is a :class:`NonCrossingMatching` partner tuple, built
from one row of heights by the stack bijection,
:func:`_matching_from_heights`, the only place steps are paired.
:func:`arcs_noncrossing` is the one crossing test, for matchings and
shapes alike.

Vertices are 1-based throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidMatchingError

__all__ = [
    "catalan",
    "choose",
    "NonCrossingMatching",
    "arcs_noncrossing",
    "enumerate_matchings",
]


def catalan(n: int) -> int:
    """Exact n-th Catalan number ``(2n)! / (n! (n+1)!)``."""
    if n < 0:
        raise ValueError(f"catalan undefined for n={n}")
    return math.comb(2 * n, n) // (n + 1)


def choose(n: int, k: int) -> int:
    """Binomial coefficient with the counting convention: 0 out of range."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Dyck paths
# ---------------------------------------------------------------------------


def _completions(steps: int, height: int) -> int:
    """Number of ways to walk down from ``height`` to 0 in ``steps`` steps of
    +-1 without falling below 0 (a ballot number; 0 when none fits).  The
    parity of ``steps - height`` must be even."""
    downs = (steps + height) // 2
    return choose(steps, downs) - choose(steps, downs + 1)


def _dyck_walks(n: int) -> np.ndarray:
    """Every Dyck path with ``n`` up-steps as one int16 row of its
    ``2n + 1`` heights.

    The rows come in lexicographic order of their steps with up before
    down: the rainbow's path ``0, 1, ..., n, ..., 1, 0`` first and the
    zigzag ``0, 1, 0, ..., 1, 0`` last.  So row k is the path of rank k,
    and one preallocated matrix is filled a column at a time, with no copy
    of the rows.  Each row keeps its rank among the rows that share its
    prefix.  Of those at height h after t steps, the first ``c =
    _completions(2n - t - 1, h + 1)`` step up; so a row steps up while its
    rank is below c, and otherwise subtracts c and steps down."""
    if n < 0:
        raise ValueError(f"enumerate_matchings undefined for n={n}")
    count = catalan(n)
    dtype = np.int32 if count < 2**31 else np.int64
    try:
        walks = np.empty((count, 2 * n + 1), dtype=np.int16)
    except ValueError:  # numpy cannot even index that many rows
        raise MemoryError(f"the {count} Dyck paths of size {n} are too many to list") from None
    walks[:, 0] = 0
    rank = np.arange(count, dtype=dtype)
    height = np.zeros(count, dtype=np.int16)
    for t in range(2 * n):
        up_rows = np.array([_completions(2 * n - t - 1, h + 1) for h in range(n + 1)], dtype=dtype)
        c = up_rows[height]
        down = rank >= c
        c *= down
        rank -= c
        height += 1
        height -= down
        height -= down
        walks[:, t + 1] = height
    return walks


def _bit_codes(bits: np.ndarray) -> np.ndarray:
    """One int64 per row of a bool matrix: bit t is set when column t is.

    The columns are ORed in, most significant first, into one array of
    codes, so no int64 copy of the matrix is made."""
    codes = np.zeros(len(bits), dtype=np.int64)
    for column in bits.T[::-1]:
        codes <<= 1
        codes |= column
    return codes


# ---------------------------------------------------------------------------
# Non-crossing matchings
# ---------------------------------------------------------------------------


def arcs_noncrossing(arcs: Iterable[tuple[int, int]]) -> bool:
    """True iff no two arcs (a, b), (c, d) interleave as a < c < b < d.

    The arcs must ascend in a, as ``NonCrossingMatching.arcs()`` gives
    them and as ``Shape`` checks before it calls this."""
    stack: list[int] = []
    for a, b in arcs:
        while stack and stack[-1] < a:
            stack.pop()
        if stack and stack[-1] < b:
            return False
        stack.append(b)
    return True


@dataclass(frozen=True)
class NonCrossingMatching:
    """Non-crossing perfect matching of ``{1, ..., 2n}``.

    ``partner`` has length ``2n + 1`` with ``partner[0] = 0`` unused, so
    ``partner[v]`` is the vertex matched to ``v`` for 1-based ``v``.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.partner
        if len(p) % 2 == 0 or len(p) < 1 or p[0] != 0:
            raise InvalidMatchingError("partner must have length 2n+1 with partner[0] = 0")
        m = len(p) - 1
        for v in range(1, m + 1):
            w = p[v]
            if not 1 <= w <= m or w == v:
                raise InvalidMatchingError(f"vertex {v} pairs with invalid {w}")
            if p[w] != v:
                raise InvalidMatchingError(f"pairing is not an involution at {v}")
        if not arcs_noncrossing(self.arcs()):
            raise InvalidMatchingError("arcs cross")

    @property
    def size(self) -> int:
        """Number of arcs n."""
        return (len(self.partner) - 1) // 2

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs as (a, b) with a < b, ascending in a."""
        return tuple([(v, w) for v, w in enumerate(self.partner) if w > v])

    @classmethod
    def from_arcs(cls, arcs: Sequence[tuple[int, int]]) -> "NonCrossingMatching":
        n = len(arcs)
        partner = [0] * (2 * n + 1)
        for a, b in arcs:
            if not (1 <= a <= 2 * n and 1 <= b <= 2 * n) or partner[a] or partner[b]:
                raise InvalidMatchingError(f"arc ({a},{b}) is out of range or reuses a vertex")
            partner[a] = b
            partner[b] = a
        return cls(tuple(partner))

    @classmethod
    def from_text(cls, text: str) -> "NonCrossingMatching":
        """Parse the ``"1-4,2-3"`` text form."""
        arcs = []
        if text.strip():
            for chunk in text.split(","):
                a, _, b = chunk.strip().partition("-")
                try:
                    arcs.append((int(a), int(b)))
                except ValueError:
                    raise InvalidMatchingError(f"bad arc {chunk!r}") from None
        return cls.from_arcs(arcs)

    def to_text(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.arcs())


def _matching_from_heights(row: Sequence[int]) -> NonCrossingMatching:
    """Stack bijection on one row of Dyck path heights: a step up opens an
    arc, a step down closes the most recently opened one.  A row that falls
    below 0 or ends above it raises :class:`InvalidMatchingError`."""
    partner = [0] * len(row)
    stack: list[int] = []
    for v in range(1, len(row)):
        if row[v] > row[v - 1]:
            stack.append(v)
        elif stack:
            u = stack.pop()
            partner[u] = v
            partner[v] = u
        else:
            raise InvalidMatchingError(f"path falls below 0 at vertex {v}")
    return NonCrossingMatching(tuple(partner))


def enumerate_matchings(n: int) -> Iterator[NonCrossingMatching]:
    """All non-crossing matchings of ``[2n]``, exactly once each, in the
    order of :func:`_dyck_walks`.  The count is ``catalan(n)``.

    All rows of heights are built before the first matching is yielded,
    O(catalan(n) * n) memory, meant for small n (n <= 8 in the tests, at
    most the half-length in ``enumerate_shapes``)."""
    for row in _dyck_walks(n).tolist():
        yield _matching_from_heights(row)


def _rotated_heights(up: np.ndarray) -> np.ndarray:
    """Heights of the Dyck paths made from rows of n up-steps (True) and
    n + 1 down-steps, one ``2n + 1`` row each, starting and ending at 0.

    Each walk w is rotated to start just after the first minimum of its
    prefix sums P, and its final down-step is dropped (the cycle lemma).
    P runs over two laps, ``P[t + 2n + 1] = P[t] - 1``, so the rotated path
    is the window of ``2n + 1`` heights starting at that minimum, less the
    minimum.  Heights are 16-bit while the walk is shorter than 2**15
    steps."""
    rows, width = up.shape
    dtype = np.int16 if width < 1 << 15 else np.int32
    laps = np.empty((rows, 2 * width), dtype=dtype)
    laps[:, 0] = 0
    first = laps[:, 1 : width + 1]
    np.add.accumulate(up, axis=1, dtype=dtype, out=first)
    first *= 2
    first -= np.arange(1, width + 1, dtype=dtype)
    laps[:, width + 1 :] = laps[:, 1:width] - 1
    r = np.arange(rows)
    pivot = laps[:, : width + 1].argmin(axis=1)
    heights = sliding_window_view(laps, width, axis=1)[r, pivot]
    heights -= laps[r, pivot][:, None]
    return heights

