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
    """A specialization (q, Q) of the two algebra parameters: q positive
    and not 1 (so q**k != 1 for k != 0), Q nonzero.  By Dipper-James,
    H(B_n) is semisimple, and its weights defined, unless Q = -q**s with
    |s| <= n - 1: the callers that know n ``guard(n - 1)``."""

    q: object
    Q: object

    def __post_init__(self):
        # the integers of q = a/b and Q = c/d in lowest terms, b, d > 0, read
        # once: the key every cache lookup hashes and every hit compares,
        # never a Fraction (whose hash takes a modular inverse)
        q, Q = self.q, self.Q
        a, b, c, d = q.numerator, q.denominator, Q.numerator, Q.denominator
        key = (a, b, c, d)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        if a <= 0 or a == b:
            raise ValueError(f"q = {q} is excluded (need q > 0, q != 1)")
        if c == 0:
            raise ValueError("Q = 0 is excluded")

    def guard(self, bound: int) -> ParameterPoint:
        """This point, unless Q = -q**s with |s| <= bound (a ValueError).
        -c/d = q^s means (-c, d) = (a^s, b^s), or (b^-s, a^-s) for s < 0, so
        max(-c, d) = max(a, b)^|s|, and their bit lengths bound |s|."""
        a, b, c, d = self._key
        if c > 0:
            return self  # -q^s < 0 for every s, since q > 0
        c, u, v = -c, 1, 1
        top = (max(c, d).bit_length() - 1) // (max(a, b).bit_length() - 1)
        for s in range(min(bound, top) + 1):
            if c == u and d == v or c == v and d == u:
                raise ValueError(f"Q = -q^{s if c == u else -s} is excluded")
            u, v = u * a, v * b
        return self

    def __eq__(self, other):
        if not isinstance(other, ParameterPoint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"q = {self.q}, Q = {self.Q}"


def admissible_point(n: int, seed: int) -> ParameterPoint:
    """Deterministic pseudo-random point for size n: the first draw that
    passes ``guard(n - 1)``, so H(B_n) is semisimple there.

    q is drawn from small-height rationals in (1/4, 4) to keep exact
    arithmetic cheap.
    """
    rng = random.Random(seed)
    while True:
        q = Rat(rng.randint(1, 48), rng.randint(1, 48))
        if not (Rat(1, 4) < q < 4) or q == 1:
            continue
        Q = Rat(rng.randint(-48, 48), rng.randint(1, 48))
        if Q == 0:
            continue
        try:
            return ParameterPoint(q, Q).guard(n - 1)
        except ValueError:
            continue


def specialized_point(q, m: int, r1: int) -> ParameterPoint:
    """The point (q, Q = -q^(r1+m)) linking type B to the reduced type-A
    picture: it passes ``guard(n - 1)`` for every size n <= r1 + m, so the
    callers, which stay below that, never guard it."""
    q, k = Rat(q), r1 + m  # ParameterPoint rejects q <= 0 and q = 1
    return ParameterPoint(q, Rat(-q.numerator ** k, q.denominator ** k))


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
