"""Exact rational scalars, admissible parameter points and dense matrices.

All computations in this package happen over the rationals.  ``Rat`` is
``gmpy2.mpq`` when available (about an order of magnitude faster than
``fractions.Fraction``) and falls back to ``Fraction`` otherwise; both store
fractions in lowest terms with positive denominator and both are exact.

Matrices are plain numpy arrays with ``dtype=object`` holding ``Rat``
entries, so ``A.dot(B)`` is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat


ONE = Rat(1)
ZERO = Rat(0)


def rat(num, den=1):
    """Exact rational number num/den."""
    return Rat(num, den)


def parse_rational(text):
    """Parse 'p/q' or an integer string into a Rat.

    Raises ValueError on malformed input.
    """
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Rat(num, den)
    return Rat(int(text))


@dataclass(frozen=True)
class ParameterPoint:
    """An admissible specialization (q, Q) of the two algebra parameters.

    q must be a positive rational different from 1 (so q**k != 1 for k != 0),
    and Q must avoid 0, -1 and every -q**s with |s| <= guard_bound.  These
    conditions keep all representations and weight formulas in this package
    free of zero denominators.
    """

    q: object
    Q: object
    guard_bound: int

    def __post_init__(self):
        q, Q = self.q, self.Q
        if q <= 0 or q == 1:
            raise ValueError(f"q = {q} is excluded (need q > 0, q != 1)")
        if Q == 0:
            raise ValueError("Q = 0 is excluded")
        if self.guard_bound < 0:
            raise ValueError("guard_bound must be nonnegative")
        for s in range(-self.guard_bound, self.guard_bound + 1):
            if Q == -(q**s):
                raise ValueError(f"Q = -q^{s} is excluded")


def qpow(point: ParameterPoint, k: int):
    """q**k, exactly, for any integer k."""
    return point.q ** k


def guard_bound(n: int, r1: int, r2: int) -> int:
    """Guard bound for computations at size n with row bounds r1, r2: enough
    for every denominator in the weight formulas and seminormal matrices."""
    return max(n, r1 + r2, 2 * n + 2)


def admissible_point(n: int, r1: int, r2: int, seed: int) -> ParameterPoint:
    """Deterministic pseudo-random admissible point for computations at
    size n with row bounds r1, r2, guarded up to guard_bound(n, r1, r2).

    q is drawn from small-height rationals in (1/4, 4) to keep exact
    arithmetic cheap.
    """
    guard = guard_bound(n, r1, r2)
    rng = random.Random(seed)
    while True:
        q = Rat(rng.randint(1, 48), rng.randint(1, 48))
        if not (Rat(1, 4) < q < 4) or q == 1:
            continue
        Q = Rat(rng.randint(-48, 48), rng.randint(1, 48))
        if Q == 0:
            continue
        try:
            return ParameterPoint(q, Q, guard)
        except ValueError:
            continue


def specialized_point(q, m: int, r1: int) -> ParameterPoint:
    """The point (q, Q = -q^(r1+m)) linking type B to the reduced type-A
    picture; admissible for algebra sizes n < r1 + m."""
    q = Rat(q)
    if q <= 0 or q == 1:
        raise ValueError(f"q = {q} is excluded (need q > 0, q != 1)")
    return ParameterPoint(q, -(q ** (r1 + m)), r1 + m - 1)


# -- dense matrices over Rat ------------------------------------------------

def matrix(rows):
    """Dense matrix from nested lists, entries coerced to Rat."""
    return np.array([[Rat(e) for e in row] for row in rows], dtype=object)


def zeros(rows: int, cols: int):
    m = np.empty((rows, cols), dtype=object)
    m[:] = ZERO
    return m


def identity(n: int):
    m = zeros(n, n)
    for i in range(n):
        m[i, i] = ONE
    return m


def is_zero_matrix(a) -> bool:
    return all(e == 0 for e in a.flat)


def mat_eq(a, b) -> bool:
    return a.shape == b.shape and is_zero_matrix(a - b)
