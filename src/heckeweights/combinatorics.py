"""Partitions, double partitions, standard tableaux, hook lengths, the
content of a box inside the glued diagram that the skew modules read, and
the printed form of shapes.

Conventions fixed here (and relied on everywhere else for reproducibility):

* a partition is a tuple of weakly decreasing nonnegative integers; the
  canonical form has no trailing zeros;
* ``partitions(n)`` lists partitions in reverse lexicographic order;
* ``double_partitions(n)`` lists pairs (alpha, beta) with |alpha| descending,
  each component in ``partitions`` order; both are tuples, cached per n;
* a tableau is the tuple of boxes of entries 1..n, a box being
  ``(component, row, column)`` with 1-based row/column and component 0
  (first) or 1 (second);
* tableaux of one shape are ordered lexicographically as tuples;
* a shape is printed as ``[a,b,...]|[c,...]``; no input format reads it.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

Partition = tuple


def trim(parts) -> Partition:
    """Canonical form: drop trailing zeros."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def pad(parts, length: int) -> Partition:
    parts = trim(parts)
    if len(parts) > length:
        raise ValueError(f"partition {parts} has more than {length} parts")
    return parts + (0,) * (length - len(parts))


# Bounded; tuples of tuples, so no caller can alter a cached list.
@lru_cache(maxsize=64)
def partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order."""
    return tuple(_partitions(n, n))


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
    for first in range(min(max_part, n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=64)
def double_partitions(n: int) -> tuple:
    """All ordered pairs (alpha, beta) with |alpha| + |beta| = n."""
    return tuple((alpha, beta) for a in range(n, -1, -1)
                 for alpha in partitions(a) for beta in partitions(n - a))


def n_stat(alpha) -> int:
    """sum over rows of (row index - 1) * part."""
    return sum(i * part for i, part in enumerate(trim(alpha)))


def one_box_more(alpha) -> list:
    """The partitions one box larger than alpha, by the row of the new box."""
    alpha = trim(alpha)
    return [alpha[:r] + (part + 1,) + alpha[r + 1:]
            for r, part in enumerate(alpha)
            if r == 0 or alpha[r - 1] > part] + [alpha + (1,)]


def one_box_successors(shape) -> list:
    """The shapes one box larger: ``one_box_more`` of alpha, then of beta."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    return [(a, beta) for a in one_box_more(alpha)] \
        + [(alpha, b) for b in one_box_more(beta)]


def embed_double(shape, m: int, r1: int) -> Partition:
    """The partition [m+alpha_1, ..., m+alpha_r1, beta_1, ...] obtained by
    gluing alpha to the right of an r1 x m rectangle and beta below it."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    if len(alpha) > r1:
        raise ValueError(f"alpha = {alpha} has more than r1 = {r1} rows")
    if alpha and alpha[0] > m:
        raise ValueError(f"alpha = {alpha} is wider than m = {m}")
    return tuple(m + a for a in pad(alpha, r1)) + beta


# -- tableaux ----------------------------------------------------------------

def standard_tableaux(shape) -> list:
    """All standard tableaux of the double partition as box tuples, in
    increasing order, which is the order the search tries (comp, row)."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    n = sum(alpha) + sum(beta)
    target = (alpha, beta)
    out = []

    def grow(k, cur, boxes):
        if k > n:
            out.append(tuple(boxes))
            return
        for comp in (0, 1):
            goal = target[comp]
            rows = cur[comp]
            for r in range(1, len(goal) + 1):
                filled = rows[r - 1]
                if filled >= goal[r - 1]:
                    continue
                if r > 1 and rows[r - 2] <= filled:
                    continue
                rows[r - 1] += 1
                boxes.append((comp, r, filled + 1))
                grow(k + 1, cur, boxes)
                boxes.pop()
                rows[r - 1] -= 1

    grow(1, ([0] * len(alpha), [0] * len(beta)), [])
    return out


def hook_lengths(alpha) -> list:
    """Hook lengths of the boxes of the partition alpha, row by row."""
    return [part - j + sum(1 for p in alpha[i + 1:] if p > j)
            for i, part in enumerate(alpha) for j in range(part)]


# Bounded; an int value, so no caller can alter a cached one.
@lru_cache(maxsize=1024)
def dimension(shape) -> int:
    """Dimension of the irreducible module, the number of standard tableaux:
    (n choose |alpha|) f^alpha f^beta, which by the hook length formula is
    n! over the product of the hook lengths of alpha and of beta."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    return factorial(sum(alpha) + sum(beta)) \
        // prod(hook_lengths(alpha) + hook_lengths(beta))


def mu_content(box, m: int, r1: int) -> int:
    """Content of a double-partition box inside the glued diagram
    embed_double(shape, m, r1): alpha boxes shift right by m, beta boxes
    shift down by r1."""
    comp, row, col = box
    if comp == 0:
        return (col + m) - row
    return col - (row + r1)


# -- text output (CLI) -------------------------------------------------------

# Bounded; a str value, so no caller can alter a cached one.
@lru_cache(maxsize=1024)
def partition_str(alpha) -> str:
    return "[" + ",".join(str(p) for p in trim(alpha)) + "]"


@lru_cache(maxsize=1024)
def shape_str(shape) -> str:
    return partition_str(shape[0]) + "|" + partition_str(shape[1])

