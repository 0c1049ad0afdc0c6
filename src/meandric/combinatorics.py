"""Exact integer primitives for the Catalan world.

Catalan numbers, falling factorials, binomial coefficients, and the two
elementary encodings used everywhere else in the package: Dyck words
(balanced step sequences) and non-crossing perfect matchings of
``{1, ..., 2n}``.  All arithmetic here is exact.

Matchings are handled in bulk as rows of Dyck path heights, ``H[t]``
after t steps.  Enumeration grows all Dyck words of a size as bit codes
and returns their heights (:func:`_dyck_walks`); the sampler rotates
random walks into Dyck paths (:func:`_rotated_heights`).  Shape counts
read the heights directly.  A single matching is built from its Dyck word
by the stack bijection, :func:`dyck_to_matching`, the only place steps
are paired.  :func:`arcs_noncrossing` is the one crossing test, for
matchings and shapes alike.

Vertices are 1-based throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidDyckWordError, InvalidMatchingError

__all__ = [
    "catalan",
    "falling_factorial",
    "choose",
    "DyckWord",
    "NonCrossingMatching",
    "arcs_noncrossing",
    "enumerate_dyck_words",
    "enumerate_matchings",
    "dyck_to_matching",
    "matching_to_dyck",
]


def catalan(n: int) -> int:
    """Exact n-th Catalan number ``(2n)! / (n! (n+1)!)``."""
    if n < 0:
        raise ValueError(f"catalan undefined for n={n}")
    return math.comb(2 * n, n) // (n + 1)


def falling_factorial(n: int, k: int) -> int:
    """Descending factorial ``n (n-1) ... (n-k+1)`` with ``k`` factors.

    ``k = 0`` gives the empty product 1.  ``n`` may be any integer.
    """
    if k < 0:
        raise ValueError(f"falling_factorial undefined for k={k}")
    out = 1
    for i in range(k):
        out *= n - i
    return out


def choose(n: int, k: int) -> int:
    """Binomial coefficient with the counting convention: 0 out of range."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Dyck words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyckWord:
    """Balanced sequence of ``+1``/``-1`` steps with nonnegative prefixes.

    Text form: a string over ``U`` (+1) and ``D`` (-1).
    """

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        height = 0
        for s in self.steps:
            if s not in (1, -1):
                raise InvalidDyckWordError(f"step {s!r} is not +1/-1")
            height += s
            if height < 0:
                raise InvalidDyckWordError("prefix sum drops below zero")
        if height != 0:
            raise InvalidDyckWordError("steps do not balance")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def size(self) -> int:
        """Number of up-steps (half the length)."""
        return len(self.steps) // 2

    @classmethod
    def from_text(cls, text: str) -> "DyckWord":
        try:
            steps = tuple({"U": 1, "D": -1}[c] for c in text)
        except KeyError as exc:
            raise InvalidDyckWordError(f"bad character {exc.args[0]!r}, expected U/D") from None
        return cls(steps)

    def to_text(self) -> str:
        return "".join("U" if s == 1 else "D" for s in self.steps)


def enumerate_dyck_words(n: int) -> Iterator[DyckWord]:
    """All Dyck words with ``n`` up-steps, in ascending lexicographic order
    with ``+1`` ordered before ``-1`` (so the fully nested word comes first
    and the alternating word last).

    The words are built all at once by :func:`_dyck_walks`, which takes
    O(catalan(n) * n) memory before the first word is yielded; callers
    enumerate small sizes only (n <= 8 in the tests)."""
    for steps in np.diff(_dyck_walks(n), axis=1).tolist():
        yield DyckWord(tuple(steps))


def _dyck_walks(n: int) -> np.ndarray:
    """Every Dyck word with ``n`` up-steps as one int16 row of the
    ``2n + 1`` heights of its path, in :func:`enumerate_dyck_words` order.

    The words grow one step at a time as int64 codes, bit t set for an
    up-step at t; every prefix spawns its up child, then its down child,
    which keeps the prefixes in lexicographic order level by level."""
    if n < 0:
        raise ValueError(f"enumerate_dyck_words undefined for n={n}")
    codes = np.zeros(1, dtype=np.int64)
    ups = np.zeros(1, dtype=np.int64)
    height = np.zeros(1, dtype=np.int64)
    for t in range(2 * n):
        parent, down = np.nonzero(np.stack([ups < n, height > 0], 1))
        up = 1 - down
        codes = codes[parent] | up << t
        ups = ups[parent] + up
        height = height[parent] + 2 * up - 1
    steps = 2 * (codes[:, None] >> np.arange(2 * n) & 1) - 1
    walks = np.zeros((codes.size, 2 * n + 1), dtype=np.int16)
    np.add.accumulate(steps, axis=1, dtype=np.int16, out=walks[:, 1:])
    return walks


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


def dyck_to_matching(word: DyckWord) -> NonCrossingMatching:
    """Stack bijection: an up-step opens an arc, a down-step closes the
    most recently opened one."""
    partner = [0] * (len(word.steps) + 1)
    stack: list[int] = []
    for v, s in enumerate(word.steps, start=1):
        if s == 1:
            stack.append(v)
        else:
            u = stack.pop()
            partner[u] = v
            partner[v] = u
    return NonCrossingMatching(tuple(partner))


def matching_to_dyck(matching: NonCrossingMatching) -> DyckWord:
    """Inverse of :func:`dyck_to_matching`."""
    p = matching.partner
    steps = tuple(1 if p[v] > v else -1 for v in range(1, 2 * matching.size + 1))
    return DyckWord(steps)


def enumerate_matchings(n: int) -> Iterator[NonCrossingMatching]:
    """All non-crossing matchings of ``[2n]``, exactly once each, in the
    order induced by :func:`enumerate_dyck_words`.  The count is
    ``catalan(n)``.

    Like the words, the matchings take O(catalan(n) * n) memory before
    the first one is yielded, meant for small n (n <= 8 in the tests, the
    shape half-length in ``enumerate_shapes``, n <= 5 for the sampler's
    uniformity check)."""
    for word in enumerate_dyck_words(n):
        yield dyck_to_matching(word)


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

