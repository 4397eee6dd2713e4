"""Principal specializations of Schur functions and their normalizations,
in integers with q = a/b and one Rat at the end.  ``schur_principal`` uses
the hook-content formula (Macdonald, I.3 Ex. 1; Stanley, EC2, Thm 7.21.2)

    s_alpha(1, ..., q^(r-1)) = q^n(alpha) prod_x (1-q^(r+c(x))) / (1-q^h(x))

over the boxes x, with content c and hook length h.  It runs over boxes, not
over row pairs as ``traces.weight_table`` does; the Schur form of the weight
and the factored side of Eq. (4) multiply its numerators and denominators.
Contents and hook lengths are planned once per partition, as (value,
multiplicity) pairs in a bounded cache.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .combinatorics import hook_lengths, n_stat, trim
from .scalars import Rat


# Bounded, and built from tuples, so no caller can alter a cached plan.
@lru_cache(maxsize=1024)
def _hook_content_plan(alpha):
    """The contents and the hook lengths of the boxes of alpha, each as
    (value, multiplicity) pairs."""
    contents = Counter(j - i for i, part in enumerate(alpha)
                       for j in range(part))
    return tuple(contents.items()), tuple(Counter(hook_lengths(alpha)).items())


def _hook_content(alpha, r: int, q):
    """a, b with q = a/b, and the products over the boxes of alpha of
    b^(r+c) - a^(r+c) and b^h - a^h, as 1 - q^k = (b^k - a^k) / b^k."""
    a, b = q.numerator, q.denominator
    contents, hooks = _hook_content_plan(alpha)
    top = math.prod((b ** (r + c) - a ** (r + c)) ** k for c, k in contents)
    bottom = math.prod((b ** h - a ** h) ** k for h, k in hooks)
    return a, b, top, bottom


def schur_principal(alpha, r: int, q):
    """s_alpha(1, q, ..., q^(r-1)); zero when alpha has more than r rows."""
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    a, b, top, bottom = _hook_content(alpha, r, q)
    n = n_stat(alpha)
    return Rat(a ** n * top, bottom * b ** ((r - 1) * sum(alpha) - n))


def schur_normalized(alpha, r: int, q):
    """s_{alpha,r}(q) = s_alpha / s_[1]^{|alpha|} at x_i = q^(i-1), with
    s_[1] = (b^r - a^r) / (b^(r-1) (b - a)) folded into the same integers."""
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    a, b, top, bottom = _hook_content(alpha, r, q)
    size = sum(alpha)
    return Rat((a * b) ** n_stat(alpha) * (b - a) ** size * top,
               bottom * (b ** r - a ** r) ** size)


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
