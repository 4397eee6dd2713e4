"""Helpers that only the tests use: scalar and matrix shorthands, the
conversion of a (num, den) matrix to Rat entries, removable corners, the
coset representatives of the size-(n-1) algebra, the linear extension of a
word's value to a linear combination of words, the type-A Markov trace, a
shape-by-shape type-B Markov trace and the reprint of a printed weight
table."""

import csv
import io
import json

import numpy as np

from heckeweights.combinatorics import double_partitions, partitions, trim
from heckeweights.reps import character, g_letter, tprime_letter, typeA_rep, \
    typeB_rep, word
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


def removable_corners(alpha) -> list:
    """1-based (row, col) positions where a box may be removed."""
    alpha = trim(alpha)
    corners = []
    for r in range(1, len(alpha) + 1):
        below = alpha[r] if r < len(alpha) else 0
        if alpha[r - 1] > below:
            corners.append((r, alpha[r - 1]))
    return corners


def coset_representatives(n: int) -> list:
    """The 2n right coset representatives of the size-(n-1) algebra inside
    the size-n algebra, as words."""
    if n < 1:
        raise ValueError("n must be >= 1")
    reps = [word((), n), word((tprime_letter(n - 1),), n)]
    for k in range(1, n):
        chain = tuple(g_letter(j) for j in range(n - 1, n - k - 1, -1))
        reps.append(word(chain, n))
        reps.append(word(chain + (tprime_letter(n - k - 1),), n))
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
