"""Markov-trace weights for types A, B and D, and trace evaluation.

The trace is always computed as the weighted sum of irreducible characters,
never by inductive rewriting: the weight formula is the object under test
and character evaluation is unconditionally correct once the representation
matrices satisfy the defining relations.

``weight_table`` is the one weight evaluator: it evaluates the product
formula in integers for every shape of one size at once, computing the
shape-free factors once per table and building one Rat per weight, and
keeps the read-only map shape -> weight in a bounded cache.  ``weight_B``,
``weight_D`` and ``trace_table`` read that map; the trace parameters
(z, y) come from ``markov_params``.

``trace_table`` groups the nonzero weights by the dimension of their shapes,
each group a ``Representation`` that stacks the modules of its shapes;
``markov_trace_B`` is one table lookup, one ``evaluate`` and one integer dot
per group, and one Rat.  Type D lives at the one point ``q1_point(q)``,
whatever the size.  ``weight_B_schur_form`` is the independent oracle for
the table and shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .combinatorics import dimension, double_partitions, n_stat, pad, trim
from .reps import Representation, evaluate
from .scalars import ParameterPoint, Rat
from .schur import schur_principal


def weight_B(shape, r1: int, r2: int, point: ParameterPoint):
    """Weight of the double partition (alpha, beta) for the two-parameter
    Markov trace with row bounds r1, r2; zero beyond the row bounds.

    A read of ``weight_table(|shape|, r1, r2, point)`` at the trimmed
    shape; the table is the one weight evaluator.
    """
    alpha, beta = trim(shape[0]), trim(shape[1])
    return weight_table(sum(alpha) + sum(beta), r1, r2, point)[alpha, beta]


def weight_B_schur_form(shape, r1: int, r2: int, point: ParameterPoint):
    """The same weight written as a product of principal Schur values; an
    independent code path from weight_B."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    if len(alpha) > r1 or len(beta) > r2:
        return Rat(0)
    q, Q = point.q, point.Q
    r = r1 + r2
    n = sum(alpha) + sum(beta)
    a, b = pad(alpha, r1), pad(beta, r2)
    w = q ** (r1 * sum(beta)) \
        * schur_principal(alpha, r1, q) * schur_principal(beta, r2, q) \
        / schur_principal((1,), r, q) ** n
    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            w *= (1 + Q * q ** (a[i - 1] - b[j - 1] + j - i)) \
                / (1 + Q * q ** (j - i))
    return w


def markov_params(r1: int, r2: int, point: ParameterPoint):
    """The trace parameters (z, y) attached to the row bounds."""
    q, Q = point.q, point.Q
    r = r1 + r2
    z = q**r * (1 - q) / (1 - q**r)
    y = (Q * q**r2 + 1) * (1 - q**r1) / (1 - q**r) - 1
    return z, y


# Bounded: a long-lived process meets unboundedly many points, and each
# table holds every shape of one size.
@lru_cache(maxsize=64)
def weight_table(n: int, r1: int, r2: int,
                 point: ParameterPoint) -> MappingProxyType:
    """The one weight evaluator: the read-only map shape -> weight over the
    double partitions of n, computed once per (n, r1, r2, point) and kept in
    a bounded cache.

    The product formula is evaluated in integers.  With q = a/b and
    Q = c/d, a factor 1 - q^k is (b^k - a^k) / b^k, and a cross factor
    Q q^x + q^y is q^min(x,y) (c a^u b^(s-u) + d a^v b^(s-v)) / (d b^s)
    with u = x - min, v = y - min, s = |x - y|; the d of each cross factor
    cancels against its partner.  The powers of a and b, the common
    denominator and the shape-free parts of the exponents of a and b are
    computed once per table, each cross factor once per (x, y); a shape
    multiplies its numerator factors and builds one Rat: a single gcd.
    """
    a, b = point.q.numerator, point.q.denominator
    c, d = point.Q.numerator, point.Q.denominator
    r = r1 + r2
    pa = [a ** k for k in range(n + r + 1)]
    pb = [b ** k for k in range(n + r + 1)]
    diff = [y - x for x, y in zip(pa, pb)]  # b^k - a^k
    crosses = {}

    def cross(x, y):
        """(c q^x + d q^y) / q^min(x,y) times b^|x-y|, and min, max."""
        low, high = min(x, y), max(x, y)
        crosses[x, y] = (c * pa[x - low] * pb[high - x]
                         + d * pa[y - low] * pb[high - y]), low, high
        return crosses[x, y]

    # Shape-free: ((1 - q) / (1 - q^r))^n, the denominators of the row-pair
    # factors and the cross factors at (-i, -j), with their powers of a, b
    top, den = (b - a) ** n, diff[r] ** n
    ea0, eb0 = 0, (r - 1) * n
    den *= math.prod(diff[k] ** (m - k) for m in (r1, r2) for k in range(1, m))
    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            t, low, high = cross(-i, -j)
            den *= t
            ea0 -= low
            eb0 += high
    weights = {}
    for alpha, beta in double_partitions(n):
        if len(alpha) > r1 or len(beta) > r2:
            weights[alpha, beta] = Rat(0)
            continue
        lam, mu = pad(alpha, r1), pad(beta, r2)
        # q^(n(alpha) + n(beta)) and the numerators of the other factors
        e = n_stat(alpha) + n_stat(beta)
        ea, eb = ea0 + e, eb0 - e
        num = top
        for parts in (lam, mu):
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    num *= diff[parts[i] - parts[j] + j - i]
                    eb -= parts[i] - parts[j]
        for i in range(1, r1 + 1):
            for j in range(1, r2 + 1):
                key = lam[i - 1] - i, mu[j - 1] - j
                t, low, high = crosses.get(key) or cross(*key)
                num *= t
                ea += low
                eb -= high
        # ea is the order of the weight at q = 0 and eb minus its degree in
        # q; neither depends on Q (Q != -1), and for Q > 0 the weight lies
        # in (0, 1] for every q > 0, so both are nonnegative.
        weights[alpha, beta] = Rat(num * a ** ea * b ** eb, den)
    return MappingProxyType(weights)


# Bounded like weight_table; a table's stacks hold only the letters used.
@lru_cache(maxsize=64)
def trace_table(n: int, r1: int, r2: int, point: ParameterPoint):
    """The Markov trace at (n, r1, r2, point) as data: the nonzero weights'
    numerators over one common denominator, grouped by the dimension of
    their shapes.  Returns ``(groups, den)`` with ``groups`` a tuple of
    pairs (read-only integer array of numerators, ``Representation`` stack
    of the matching shapes)."""
    weights = {shape: w for shape, w in weight_table(n, r1, r2, point).items()
               if w != 0}
    den = math.lcm(*(w.denominator for w in weights.values()))
    by_dimension = {}
    for shape in weights:
        by_dimension.setdefault(dimension(shape), []).append(shape)
    groups = []
    for d, shapes in by_dimension.items():
        nums = np.array([weights[s].numerator * (den // weights[s].denominator)
                         for s in shapes], dtype=object)
        nums.flags.writeable = False
        groups.append((nums, Representation(d, n, point,
                                            shapes=tuple(shapes))))
    return tuple(groups), den


def markov_trace_B(element, n: int, r1: int, r2: int, point: ParameterPoint):
    """Weighted character sum over all double partitions of n, one dimension
    at a time: per group of ``trace_table`` one evaluation of the element on
    the stack, its integer traces dotted with the weights' numerators, then
    one Rat over the common denominator."""
    groups, den = trace_table(n, r1, r2, point)
    values = [(nums, evaluate(stack, element)) for nums, stack in groups]
    common = math.lcm(*(d for _, (_, d) in values))
    # the empty word's (d, d) identity broadcasts its trace d over the group
    return Rat(sum((nums * num.trace(axis1=-2, axis2=-1)).sum() * (common // d)
                   for nums, (num, d) in values), den * common)


def plain_point(q) -> ParameterPoint:
    """Point with the given q and an irrelevant Q = 2, for computations that
    never touch Q.  A Q > 0 is never -q^s, so no guard is needed."""
    return ParameterPoint(Rat(q), Rat(2), 0)


def q1_point(q) -> ParameterPoint:
    """The exact Q = 1 specialization used for type D; admissible for any
    q > 0 since 1 is never -q^s, so it needs no guard and serves every size
    and row bound."""
    return ParameterPoint(Rat(q), Rat(1), 0)


# -- type D ------------------------------------------------------------------

@dataclass(frozen=True)
class TypeDWeight:
    """One simple component of the index-2 subalgebra: for alpha != beta the
    merged class {(alpha, beta), (beta, alpha)}, for alpha == beta one of the
    two split components (alpha, alpha)_1, (alpha, alpha)_2."""

    split_index: int | None
    weight: object


def weight_D(shape, r1: int, r2: int, q) -> list:
    """Labeled weights of the type-D components attached to a double
    partition, at the forced specialization Q = 1."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    n = sum(alpha) + sum(beta)
    weights = weight_table(n, r1, r2, q1_point(q))
    if alpha == beta:
        w = weights[(alpha, alpha)]
        return [TypeDWeight(1, w), TypeDWeight(2, w)]
    return [TypeDWeight(None, weights[(alpha, beta)] + weights[(beta, alpha)])]


def markov_trace_D(element, n: int, r1: int, r2: int, q):
    """Markov trace of a type-D element (letters u and g): the two-parameter
    trace at Q = 1."""
    return markov_trace_B(element, n, r1, r2, q1_point(q))
