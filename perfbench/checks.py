"""Correctness checks of the benchmark's operations.

Each check compares an output of ``meandric`` with a value this file
computes by other means (its own closed forms, telescoping products and
log-gamma sums, independent loop tracing supplied by the caller) or with
a property the method must have.  None compares with a stored copy of an
earlier output.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from fractions import Fraction


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalan_quotient(i: int, n: int) -> Fraction:
    """``catalan(i) / catalan(n)`` for ``0 <= i <= n``, as the product of
    ``catalan(m-1) / catalan(m) = (m+1) / (2(2m-1))`` over ``i < m <= n``."""
    num = den = 1
    for m in range(i + 1, n + 1):
        num *= m + 1
        den *= 2 * (2 * m - 1)
    return Fraction(num, den)


def falling(x: int, r: int) -> int:
    return math.prod(range(x - r + 1, x + 1)) if r else 1


def log_catalan(n: int) -> float:
    return math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)


# Closed-form data of the two strong shapes the benchmark uses, derived by
# hand from their face decompositions (half-length ell, face weight W,
# half the free vertices of the upper and lower unbounded faces).
# Simple loop: one arc above and one below, no free vertices.
# "supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7": the upper faces under 1-4 and
# 7-12 hold 2 and 4 free vertices (catalan(1) * catalan(2) = 2), the lower
# faces under 4-7 and between 1-12 and 4-7 hold 2 and 6 (catalan(1) *
# catalan(3) = 5), so W = 10; vertices 5 and 6 open into the upper
# unbounded face.
STRONG_SHAPES = {
    "supp=1,2;up=1-2;lo=1-2": (1, 1, 0, 0),
    "supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7": (6, 10, 1, 0),
}


def strong_moment(n: int, r: int, shape: str) -> Fraction:
    """r-th factorial moment of a strong shape's count at size n:
    ``(2n - 2r ell + r)_r * W**r * C(i_up) C(i_lo) / C(n)**2`` with
    ``i = n - r ell + r c``, every Catalan quotient telescoped."""
    ell, weight, c_up, c_lo = STRONG_SHAPES[shape]
    slots = 2 * n - 2 * r * ell + r
    return (
        falling(slots, r)
        * weight**r
        * catalan_quotient(n - r * ell + r * c_up, n)
        * catalan_quotient(n - r * ell + r * c_lo, n)
    )


def log_strong_moment(n: int, r: int, shape: str) -> float:
    """Natural log of :func:`strong_moment` by log-gamma."""
    ell, weight, c_up, c_lo = STRONG_SHAPES[shape]
    slots = 2 * n - 2 * r * ell + r
    return math.fsum([
        math.lgamma(slots + 1),
        -math.lgamma(slots - r + 1),
        r * math.log(weight),
        log_catalan(n - r * ell + r * c_up),
        log_catalan(n - r * ell + r * c_lo),
        -2 * log_catalan(n),
    ])


def _fraction(wire: dict) -> Fraction:
    return Fraction(int(wire["num"]), int(wire["den"]))


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def payload_digest(payload) -> str:
    """SHA-256 of the canonical encoding: sorted keys, no whitespace."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def check_digest(doc: dict) -> list[str]:
    if doc["manifest"]["payloadSha256"] != payload_digest(doc["payload"]):
        return ["payloadSha256 is not the digest of the payload"]
    return []


def check_sample(doc: dict, csv_text: str, n: int, samples: int, traced: dict[int, int]) -> list[str]:
    """Sampling CLI output against itself, against independent tracing of
    a few positions (``traced`` maps position to count) and against the
    exact mean ``(n+1)**2 / (4(2n-1))``, with variance ``13n/128``."""
    problems = check_digest(doc)
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["position", "x"] or [r[0] for r in rows[1:]] != [str(i) for i in range(samples)]:
        return problems + [f"CSV does not hold one row per position 0..{samples - 1}"]
    xs = [int(r[1]) for r in rows[1:]]
    histogram = {str(x): c for x, c in Counter(xs).items()}
    if histogram != doc["payload"]["histogram"]:
        problems.append("CSV histogram differs from the payload histogram")
    for position, count in traced.items():
        if xs[position] != count:
            problems.append(f"position {position}: CSV count {xs[position]}, tracing {count}")
    mean = sum(xs) / samples
    exact = (n + 1) ** 2 / (4 * (2 * n - 1))
    se = math.sqrt(13 * n / 128 / samples)
    if abs(mean - exact) > 5 * se:
        problems.append(f"mean {mean} is more than 5 standard errors from {exact}")
    return problems


def check_uniformity(counts: list[int], draws: int, n: int, p_value: float) -> list[str]:
    problems = []
    if len(counts) != catalan(n):
        problems.append(f"{len(counts)} outcomes, catalan({n}) = {catalan(n)}")
    if sum(counts) != draws:
        problems.append(f"counts sum to {sum(counts)}, not {draws}")
    if not p_value > 1e-6:
        problems.append(f"chi-square p-value {p_value} <= 1e-6")
    return problems


def check_oracle(doc: dict, csv_text: str, n: int, r: int, shape: str) -> list[str]:
    """Exact distribution and moments of a strong shape against the closed
    form, for every factorial moment up to r."""
    problems = check_digest(doc)
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["x", "count"]:
        return problems + ["distribution CSV has no x,count header"]
    dist = {int(x): int(c) for x, c in rows[1:]}
    total = sum(dist.values())
    if total != catalan(n) ** 2:
        return problems + [f"distribution total {total} != catalan({n})**2"]
    for k in range(r + 1):
        moment = Fraction(sum(falling(x, k) * c for x, c in dist.items()), total)
        if moment != strong_moment(n, k, shape):
            problems.append(f"factorial moment {k} of the distribution is {moment}")
    expected = strong_moment(n, r, shape)
    for key in ("exactMoment", "formulaMoment"):
        if _fraction(doc["payload"][key]) != expected:
            problems.append(f"{key} != closed form {expected}")
    return problems


def check_formula(doc: dict, n: int, r: int, shape: str) -> list[str]:
    problems = check_digest(doc)
    moment = _fraction(doc["payload"]["formulaMoment"])
    if moment != strong_moment(n, r, shape):
        problems.append("formulaMoment differs from the telescoping product")
    log_moment = _log(moment)
    if not math.isclose(log_moment, log_strong_moment(n, r, shape), rel_tol=1e-9):
        problems.append(f"log formulaMoment {log_moment} differs from the log-gamma sum")
    if not abs(log_moment - doc["payload"]["asymptoticLogMoment"]) < 0.01:
        problems.append("log formulaMoment is 0.01 or more from asymptoticLogMoment")
    return problems
