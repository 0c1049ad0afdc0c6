"""Exact integer primitives for the Catalan world.

Catalan numbers, falling factorials, binomial coefficients, and the two
elementary encodings used everywhere else in the package: Dyck words
(balanced step sequences) and non-crossing perfect matchings of
``{1, ..., 2n}``.  All arithmetic here is exact; the only floating point
functions are the log-scale evaluators, which exist because quantities
such as ``catalan(10**6)`` do not fit in any fixed-width type.

Vertices are 1-based throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidDyckWordError, InvalidMatchingError

__all__ = [
    "catalan",
    "log_catalan",
    "falling_factorial",
    "choose",
    "DyckWord",
    "NonCrossingMatching",
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


def log_catalan(n: int) -> float:
    """Natural log of ``catalan(n)`` via log-gamma.

    Accurate to better than 1e-12 relative error; intended for sizes
    where the exact integer is unusable (n of order 10**6).
    """
    if n < 0:
        raise ValueError(f"catalan undefined for n={n}")
    return math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)


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
    and the alternating word last)."""
    if n < 0:
        raise ValueError(f"enumerate_dyck_words undefined for n={n}")
    buf: list[int] = []

    def rec(ups_left: int, height: int) -> Iterator[DyckWord]:
        if ups_left == 0 and height == 0:
            yield DyckWord(tuple(buf))
            return
        if ups_left > 0:
            buf.append(1)
            yield from rec(ups_left - 1, height + 1)
            buf.pop()
        if height > 0:
            buf.append(-1)
            yield from rec(ups_left, height - 1)
            buf.pop()

    yield from rec(n, 0)


# ---------------------------------------------------------------------------
# Non-crossing matchings
# ---------------------------------------------------------------------------


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
        # Stack check: arcs close in the reverse order they open.
        stack: list[int] = []
        for v in range(1, m + 1):
            if p[v] > v:
                stack.append(v)
            else:
                if not stack or stack[-1] != p[v]:
                    raise InvalidMatchingError(f"arcs cross near vertex {v}")
                stack.pop()

    @property
    def size(self) -> int:
        """Number of arcs n."""
        return (len(self.partner) - 1) // 2

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs as (a, b) with a < b, ascending in a."""
        return tuple(
            (v, self.partner[v]) for v in range(1, 2 * self.size + 1) if self.partner[v] > v
        )

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
    ``catalan(n)``."""
    for word in enumerate_dyck_words(n):
        yield dyck_to_matching(word)
