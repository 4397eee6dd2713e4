"""Exact rational scalars, admissible parameter points and dense matrices.

All computations in this package happen over the rationals.  ``Rat`` is
``gmpy2.mpq`` when available (about an order of magnitude faster than
``fractions.Fraction``) and falls back to ``Fraction`` otherwise; both store
fractions in lowest terms with positive denominator and both are exact.

A representation's matrix is a pair (num, den): a numpy array with
``dtype=object`` holding Python integers, and one positive integer
denominator, so products are exact integer matrix products and a trace
needs one division.  Only the constructors at the end of this module build
arrays, and each imports numpy in its body, so numpy is loaded with the
first array: ``import heckeweights``, ``-h``, ``weights`` and the ``schur``
and ``branching`` suites of ``verify`` never load it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat


def parse_int(text: str) -> int:
    """``int(text)``, spaces around it and all, but refused unless ASCII
    digits after an optional "-": not "_", "+" or other scripts' digits.
    Of an ASCII text, int() takes only those beside digits, "-" and spaces."""
    number = int(text)
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(f"not ASCII digits after an optional '-': {text!r}")
    return number


def parse_rational(text):
    """Parse 'p/q' or an integer string into a Rat, each by ``parse_int``.

    Raises ValueError on malformed input.
    """
    num, slash, den = text.partition("/")
    if not slash:
        return Rat(parse_int(num))
    num, den = parse_int(num), parse_int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Rat(num, den)


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
        # on the integers of q = a/b and Q = c/d in lowest terms, b, d > 0,
        # read once: with the guard bound, the key that every cache lookup
        # hashes and every hit compares, never a Fraction (whose hash takes
        # a modular inverse); equal points have equal keys
        q, Q = self.q, self.Q
        a, b, c, d = q.numerator, q.denominator, Q.numerator, Q.denominator
        key = (a, b, c, d, self.guard_bound)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        if a <= 0 or a == b:
            raise ValueError(f"q = {q} is excluded (need q > 0, q != 1)")
        if c == 0:
            raise ValueError("Q = 0 is excluded")
        if self.guard_bound < 0:
            raise ValueError("guard_bound must be nonnegative")
        if c > 0:
            return  # -q^s < 0 for every s, since q > 0
        # -Q = -c/d = q^s exactly when (-c, d) is (a^s, b^s) or, for s < 0,
        # (b^-s, a^-s); either way max(-c, d) = max(a, b)^|s|.  The
        # logarithm only proposes |s|, the integer comparison decides, and
        # max(a, b) >= 2 since q != 1.
        c = -c
        k = round(math.log(max(c, d)) / math.log(max(a, b)))
        if k <= self.guard_bound and (c, d) in ((a**k, b**k), (b**k, a**k)):
            s = k if (c, d) == (a**k, b**k) else -k
            raise ValueError(f"Q = -q^{s} is excluded")

    def __eq__(self, other):
        if not isinstance(other, ParameterPoint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"q = {self.q}, Q = {self.Q}"


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
    q, k = Rat(q), r1 + m  # ParameterPoint rejects q <= 0 and q = 1
    return ParameterPoint(q, Rat(-q.numerator ** k, q.denominator ** k), k - 1)


# -- dense matrices -----------------------------------------------------------

def zeros(rows: int, cols: int):
    """Zero matrix with integer entries, exact beside Rat entries."""
    import numpy as np
    return np.zeros((rows, cols), dtype=object)


def identity(n: int):
    """Identity matrix with integer entries, exact beside Rat entries."""
    import numpy as np
    return np.identity(n, dtype=object)


def diagonal(entries):
    out = zeros(len(entries), len(entries))
    out.flat[::len(entries) + 1] = entries
    return out


def vector(entries):
    import numpy as np
    return np.array(entries, dtype=object)


def stack(matrices):
    import numpy as np
    return np.stack(matrices)


def is_zero_matrix(a) -> bool:
    return all(e == 0 for e in a.flat)
