"""Markov-trace weights for types A, B and D, and trace evaluation.

The trace is always computed as the weighted sum of irreducible characters,
never by inductive rewriting: the weight formula is the object under test
and character evaluation is unconditionally correct once the representation
matrices satisfy the defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import double_partitions, n_stat, one_box_successors, pad, \
    partitions, trim
from .reps import character, typeA_rep, typeB_rep
from .scalars import ParameterPoint, Rat, guard_bound
from .schur import schur_normalized, schur_principal


def weight_B(shape, r1: int, r2: int, point: ParameterPoint):
    """Weight of the double partition (alpha, beta) for the two-parameter
    Markov trace with row bounds r1, r2; zero beyond the row bounds."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    if len(alpha) > r1 or len(beta) > r2:
        return Rat(0)
    q, Q = point.q, point.Q
    r = r1 + r2
    n = sum(alpha) + sum(beta)
    a, b = pad(alpha, r1), pad(beta, r2)
    w = q ** (n_stat(alpha) + n_stat(beta)) * ((1 - q) / (1 - q**r)) ** n
    for i in range(1, r1 + 1):
        for j in range(i + 1, r1 + 1):
            w *= (1 - q ** (a[i - 1] - a[j - 1] + j - i)) / (1 - q ** (j - i))
    for i in range(1, r2 + 1):
        for j in range(i + 1, r2 + 1):
            w *= (1 - q ** (b[i - 1] - b[j - 1] + j - i)) / (1 - q ** (j - i))
    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            w *= (Q * q ** (a[i - 1] - i) + q ** (b[j - 1] - j)) \
                / (Q * q ** (-i) + q ** (-j))
    return w


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


@dataclass
class WeightTable:
    n: int
    r1: int
    r2: int
    point: ParameterPoint
    entries: dict
    z: object
    y: object


def weight_table(n: int, r1: int, r2: int, point: ParameterPoint) -> WeightTable:
    entries = {shape: weight_B(shape, r1, r2, point)
               for shape in double_partitions(n)}
    z, y = markov_params(r1, r2, point)
    return WeightTable(n=n, r1=r1, r2=r2, point=point, entries=entries,
                       z=z, y=y)


def markov_trace_B(element, n: int, r1: int, r2: int, point: ParameterPoint):
    """Weighted character sum over all double partitions of n."""
    total = Rat(0)
    for shape in double_partitions(n):
        w = weight_B(shape, r1, r2, point)
        if w == 0:
            continue
        total += w * character(typeB_rep(shape, point), element)
    return total


def typeA_markov_trace(element, n: int, r: int, q):
    """Weighted character sum over partitions of n with at most r rows,
    with normalized Schur values as weights."""
    point = plain_point(q)
    total = Rat(0)
    for mu in partitions(n):
        if len(mu) > r:
            continue
        total += schur_normalized(mu, r, q) * character(typeA_rep(mu, point), element)
    return total


def plain_point(q, guard: int = 64) -> ParameterPoint:
    """Point with the given q and an irrelevant (always admissible) Q > 0,
    for computations that never touch Q."""
    return ParameterPoint(Rat(q), Rat(2), guard)


def q1_point(q, n: int, r1: int, r2: int) -> ParameterPoint:
    """The exact Q = 1 specialization used for type D; admissible for any
    q > 0 since 1 is never -q^s."""
    return ParameterPoint(Rat(q), Rat(1), guard_bound(n, r1, r2))


# -- type D ------------------------------------------------------------------

@dataclass(frozen=True)
class TypeDWeight:
    """One simple component of the index-2 subalgebra: for alpha != beta the
    merged class {(alpha, beta), (beta, alpha)}, for alpha == beta one of the
    two split components (alpha, alpha)_1, (alpha, alpha)_2."""

    shape: tuple
    split_index: int | None
    weight: object


def weight_D(shape, r1: int, r2: int, q) -> list:
    """Labeled weights of the type-D components attached to a double
    partition, at the forced specialization Q = 1."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    n = sum(alpha) + sum(beta)
    point = q1_point(q, n, r1, r2)
    if alpha == beta:
        w = weight_B((alpha, alpha), r1, r2, point)
        return [TypeDWeight((alpha, alpha), 1, w),
                TypeDWeight((alpha, alpha), 2, w)]
    w = weight_B((alpha, beta), r1, r2, point) \
        + weight_B((beta, alpha), r1, r2, point)
    return [TypeDWeight((alpha, beta), None, w)]


def markov_trace_D(element, n: int, r1: int, r2: int, q):
    """Markov trace of a type-D element (letters u and g): the two-parameter
    trace at Q = 1."""
    return markov_trace_B(element, n, r1, r2, q1_point(q, n, r1, r2))
