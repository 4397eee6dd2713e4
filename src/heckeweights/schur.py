"""Principal specializations of Schur functions and their normalizations,
in integers with q = a/b and one Rat at the end.  ``schur_principal`` uses
the hook-content formula (Macdonald, I.3 Ex. 1; Stanley, EC2, Thm 7.21.2)

    s_alpha(1, ..., q^(r-1)) = q^n(alpha) prod_x (1-q^(r+c(x))) / (1-q^h(x))

over the boxes x, with content c and hook length h.  It runs over boxes, not
over row pairs as ``traces.weight_table`` does; the Schur form of the weight
and the factored side of Eq. (4) multiply its numerators and denominators.
Each (partition, r) is planned once, point-free, as net exponents of the
atoms b^k - a^k: a value is one product of powers a side and one Rat.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .combinatorics import hook_lengths, n_stat, trim
from .scalars import Rat


# Bounded, and built from tuples, so no caller can alter a cached plan.
@lru_cache(maxsize=2048)
def _schur_plan(alpha, r: int) -> tuple:
    """n(alpha), |alpha| and the principal and normalized forms of a trimmed
    alpha with at most r rows: (k, power) pairs of atoms b^k - a^k over such
    pairs.  A box counts at k = r + its content and against at its hook
    length; the normalized form adds s_[1]^-|alpha| but its powers of b."""
    size, hooks = sum(alpha), hook_lengths(alpha)
    contents = [r + j - i for i, part in enumerate(alpha) for j in range(part)]
    nets, normal = Counter(contents), Counter(contents + [1] * size)
    nets.subtract(hooks)
    normal.subtract(hooks + [r] * size)
    return (n_stat(alpha), size, *((tuple((+f).items()), tuple((-f).items()))
                                   for f in (nets, normal)))


def _value(form, q, n: int, x: int, y: int):
    """a^n b^x / b^y times a planned form at q = a/b, as one Rat."""
    (num, den), a, b = form, q.numerator, q.denominator
    return Rat(a ** n * b ** x * math.prod([(b ** k - a ** k) ** e
                                            for k, e in num]),
               b ** y * math.prod([(b ** k - a ** k) ** e for k, e in den]))


def schur_principal(alpha, r: int, q):
    """s_alpha(1, q, ..., q^(r-1)); zero when alpha has more than r rows."""
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    n, size, form, _ = _schur_plan(alpha, r)
    return _value(form, q, n, 0, (r - 1) * size - n)


def schur_normalized(alpha, r: int, q):
    """s_{alpha,r}(q) = s_alpha / s_[1]^{|alpha|} at x_i = q^(i-1), with
    s_[1] = (b^r - a^r) / (b^(r-1) (b - a)) folded into the plan."""
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    n, _, _, form = _schur_plan(alpha, r)
    return _value(form, q, n, n, 0)


def rectangle_schur(m: int, r1: int, r2: int, q):
    """Closed form of s_{[m^r1], r1+r2}(q), the normalized Schur value of
    the r1 x m rectangle: q^(m r1 (r1-1)/2) / s_[1]^(m r1) times the product
    over i <= r1, j <= r2 of (1 - q^(m+r1+j-i)) / (1 - q^(r1+j-i))."""
    a, b, r, k = q.numerator, q.denominator, r1 + r2, m * r1
    top = (a * b) ** (k * (r1 - 1) // 2) * (b - a) ** k
    bottom = (b ** r - a ** r) ** k
    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            top *= b ** (m + r1 + j - i) - a ** (m + r1 + j - i)
            bottom *= b ** (r1 + j - i) - a ** (r1 + j - i)
    return Rat(top, bottom)
