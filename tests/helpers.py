"""Helpers that only the tests use: scalar and matrix shorthands, the
conversion of a (num, den) matrix to Rat entries, the coset representatives
of the size-(n-1) algebra, the linear extension of a word's value to a
linear combination of words, the type-A Markov trace, a shape-by-shape
type-B Markov trace, the reprint of a printed weight table, the Rat-entry
seminormal generators that the integer build of ``typeB_rep`` and
``skew_rep`` is checked against (a tableau is its box tuple, as
``standard_tableaux`` lists it) with the swap of entries i and i+1 that
they read, and the Rat-entry relation residuals that
``relation_residuals`` is checked against."""

import csv
import io
import json
import math

import numpy as np

from heckeweights.combinatorics import double_partitions, partitions, \
    standard_tableaux
from heckeweights.reps import T_LETTER, U_LETTER, character, g_letter, \
    relations, tprime_letter, typeA_rep, typeB_rep, word
from heckeweights.scalars import Rat, is_zero_matrix
from heckeweights.traces import q1_point, weight_B, weight_B_schur_form


def rat(num, den=1):
    """Exact rational number num/den."""
    return Rat(num, den)


def qpow(point, k: int):
    """q**k, exactly, for any integer k."""
    return point.q ** k


def matrix(rows):
    """Dense matrix from nested lists, entries coerced to Rat."""
    return np.array([[Rat(e) for e in row] for row in rows], dtype=object)


def to_rat(num, den):
    """The matrix num / den with Rat entries."""
    return np.array([[Rat(e, den) for e in row] for row in num], dtype=object)


def mat_eq(a, b) -> bool:
    return a.shape == b.shape and is_zero_matrix(a - b)


def coset_representatives(n: int) -> list:
    """The 2n right coset representatives of the size-(n-1) algebra inside
    the size-n algebra, as words."""
    if n < 1:
        raise ValueError("n must be >= 1")
    reps = [word(()), word((tprime_letter(n - 1),))]
    for k in range(1, n):
        chain = tuple(g_letter(j) for j in range(n - 1, n - k - 1, -1))
        reps.append(word(chain))
        reps.append(word(chain + (tprime_letter(n - k - 1),)))
    return reps


def linear(value, element):
    """``value`` extended linearly from words to a ``HeckeElement``, such as
    an ``expand_word`` result: the sum of coefficient times value(word) over
    its terms.  The package evaluates words only."""
    return sum(c * value(w) for w, c in element.terms.items())


def typeA_markov_trace(element, n: int, r: int, q):
    """Weighted character sum over partitions of n with at most r rows.
    The weight of mu is weight_B((mu, ()), r, 0): with no second row bound it
    is the normalized Schur value of mu in r variables."""
    point = q1_point(q)
    total = Rat(0)
    for mu in partitions(n):
        if len(mu) > r:
            continue
        total += weight_B((mu, ()), r, 0, point) \
            * character(typeA_rep(mu, point), element)
    return total


def markov_trace_by_shape(element, n: int, r1: int, r2: int, point):
    """The Markov trace as the paper writes it, one shape at a time: the Rat
    sum of weight times character over the double partitions of n.  The
    weights are the Schur form, so nothing is shared with
    ``traces.trace_table`` or ``weight_table``."""
    total = Rat(0)
    for shape in double_partitions(n):
        w = weight_B_schur_form(shape, r1, r2, point)
        if w != 0:
            total += w * character(typeB_rep(shape, point), element)
    return total


def reprinted(table: str) -> str:
    """A printed weight table as ``json.dumps(indent=2)`` (JSON) or
    ``csv.writer`` with "\\n" line ends (CSV) print the data parsed from it:
    the bytes the CLI promises."""
    if table.startswith("{"):
        return json.dumps(json.loads(table), indent=2) + "\n"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        csv.reader(io.StringIO(table)))
    return out.getvalue()


def integer_form(m):
    """The Rat matrix m as (num, den), den the least common denominator of
    its entries."""
    den = math.lcm(*(e.denominator for e in m.flat))
    num = np.array([[e.numerator * (den // e.denominator) for e in row]
                    for row in m], dtype=object)
    return num, den


def apply_transposition(t: tuple, i: int):
    """t with entries i and i+1 swapped if that is standard, else None.

    The swap breaks standardness exactly when the two boxes share a row or
    a column of the same component (in which case they are adjacent).
    """
    n = len(t)
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range 1..{n - 1}")
    b1, b2 = t[i - 1], t[i]
    if b1[0] == b2[0] and (b1[1] == b2[1] or b1[2] == b2[2]):
        return None
    return t[:i - 1] + (b2, b1) + t[i + 1:]


def seminormal_generators(shape, q, axial, t_eigenvalue) -> dict:
    """The letters t, g_1, ..., g_{n-1} of the module of a nonempty double
    partition at q as Rat matrices, entry by entry from the axial scalar
    ``axial(t, i)`` and the eigenvalue ``t_eigenvalue(t)`` of t on each
    tableau.  In a swap pair the earlier tableau in canonical order carries
    (1 - q x) / (1 - x), the later (q - x) / (1 - x)."""
    basis = standard_tableaux(shape)
    index = {t: s for s, t in enumerate(basis)}
    d, n = len(basis), len(basis[0])

    def diag(x):
        return x * (1 - q) / (1 - x)

    letters = {T_LETTER: np.diag(np.array([t_eigenvalue(t) for t in basis],
                                          dtype=object))}
    for i in range(1, n):
        m = np.array([[Rat(0)] * d for _ in range(d)], dtype=object)
        for s, t in enumerate(basis):
            t2 = apply_transposition(t, i)
            x = axial(t, i)
            if t2 is None:
                m[s, s] = diag(x)
                continue
            s2 = index[t2]
            if s > s2:
                continue
            m[s, s] = diag(x)
            m[s2, s] = (1 - q * x) / (1 - x)
            m[s, s2] = (q - x) / (1 - x)
            m[s2, s2] = diag(1 / x)
        letters[g_letter(i)] = m
    return letters


def typeB_generators(shape, point) -> dict:
    """``seminormal_generators`` of ``typeB_rep``: x(t, i) is q to the
    content difference of the boxes of i+1 and i, times -1/Q from the
    first component to the second and -Q back; t acts by Q on tableaux
    with 1 in the first component and by -1 on the others."""
    q, Q = point.q, point.Q

    def axial(t, i):
        (c1, row1, col1), (c2, row2, col2) = t[i - 1], t[i]
        x = q ** ((col2 - row2) - (col1 - row1))
        return x if c1 == c2 else -x / Q if c1 == 0 else -Q * x

    return seminormal_generators(
        shape, q, axial, lambda t: Q if t[0][0] == 0 else Rat(-1))


def skew_generators(shape, m: int, r1: int, q) -> dict:
    """``seminormal_generators`` of ``skew_rep(shape, m, r1, q)``: x(t, i)
    is q to the difference of the contents of the boxes of i+1 and i inside
    the glued diagram, and t acts by minus the ratio of full twists,
    q^(f(f-1)/2 + content sum), of [m+1, m^(r1-1)] (1 in the first
    component) or [m^r1, 1] (in the second) to that of [m^r1, 1]."""

    def content(box):
        comp, row, col = box
        return col + m - row if comp == 0 else col - row - r1

    def twist(nu):
        f = sum(nu)
        return q ** (f * (f - 1) // 2 + sum(j - i for i, part in enumerate(nu)
                                            for j in range(part)))

    gamma = (m,) * r1 + (1,)
    eigenvalues = [-twist(nu) / twist(gamma)
                   for nu in ((m + 1,) + (m,) * (r1 - 1), gamma)]
    return seminormal_generators(
        shape, q, lambda t, i: q ** (content(t[i]) - content(t[i - 1])),
        lambda t: eigenvalues[t[0][0]])


def rat_residuals(generators, point, kind: str) -> list:
    """Left minus right of each of ``relations(n, kind)`` as Rat matrices,
    from the Rat matrices ``generators`` of t and g_1, ..., g_{n-1}, with u
    = t g_1 t: x x - (p - 1) x - p for a quadratic relation, lhs - rhs for
    the others."""
    letters = dict(generators)
    d = len(letters[T_LETTER])
    one = np.diag(np.array([Rat(1)] * d, dtype=object))
    if g_letter(1) in letters:
        t = letters[T_LETTER]
        letters[U_LETTER] = t.dot(letters[g_letter(1)]).dot(t)

    def product(letters_):
        m = one
        for x in letters_:
            m = m.dot(letters[x])
        return m

    out = []
    for lhs, rhs in relations(len(generators), kind):
        if isinstance(rhs, str):
            p = getattr(point, rhs)
            out.append(product(lhs) - letters[lhs[0]] * (p - 1) - one * p)
        else:
            out.append(product(lhs) - product(rhs))
    return out
