"""Markov-trace weights for types A, B and D, and trace evaluation.

The trace is always computed as the weighted sum of irreducible characters,
never by inductive rewriting: the weight formula is the object under test
and character evaluation is unconditionally correct once the representation
matrices satisfy the defining relations.

Weights are computed in integers, in two steps.  Per size and type,
``_weight_plan`` walks the paper's product over every pair of rows of each
shape once and puts each class of shapes over one denominator of atoms
Phi_k(b, a), 1 + Q q^x, a and b: a shape alone for type B; for type D, at
Q = 1 with 1 + q^x = (1 - q^2x) / (1 - q^x), {(alpha, beta), (beta, alpha)}
or a split (alpha, alpha), weighing the sum of its shapes' (Prop 6.1).  Per
point each atom power is evaluated once, each trie node of the plan's
program is one multiply, a class one Rat.  ``weight_table`` reads type-B
rows, ``weight_D`` type-D ones; ``weight_B`` and ``trace_table`` the table.

``trace_table`` groups the nonzero weights by the dimension of their shapes,
each group a ``reps.stacks`` stack of the modules of its shapes.  Since
tr(P L) = sum_ij P_ij L_ji, a group folds its weights into a word's last
letter L once per table; ``markov_trace_B`` is then one table lookup, one
``evaluate`` of the word's prefix P and one flat integer dot per group, and
one Rat.  Types A and D live at the one point ``q1_point(q)``, whatever the
size.  ``weight_B_schur_form`` is the independent oracle for the table:
integers and one Rat too, no shared code.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, product, repeat
from operator import mul
from types import MappingProxyType

from .combinatorics import dimension, double_partitions, pad, trim
from .reps import evaluate, stacks, word
from .scalars import ParameterPoint, Rat, vector
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
    """The same weight as q^(r1 |beta|) s_alpha s_beta / s_[1]^n, principal
    Schur values in r1, r2 and r variables, times the ratios
    C(alpha_i - beta_j + j - i) / C(j - i); an independent code path from
    weight_B.  In integers with q = a/b and Q = c/d: s_[1] is
    (b^r - a^r) / (b^(r-1) (b - a)), and C(x) = 1 + Q q^x is
    (d (ab)^M + c a^(M+x) b^(M-x)) / (d (ab)^M) for |x| < M = n + r."""
    alpha, beta = trim(shape[0]), trim(shape[1])
    if len(alpha) > r1 or len(beta) > r2:
        return Rat(0)
    a, b = point.q.numerator, point.q.denominator
    c, d = point.Q.numerator, point.Q.denominator
    r, n = r1 + r2, sum(alpha) + sum(beta)
    M, e = n + r, r1 * sum(beta)
    unit = d * (a * b) ** M

    def cross(x):  # d (ab)^M C(x)
        return unit + c * a ** (M + x) * b ** (M - x)

    s_alpha = schur_principal(alpha, r1, point.q)
    s_beta = schur_principal(beta, r2, point.q)
    num = a ** e * s_alpha.numerator * s_beta.numerator \
        * (b ** (r - 1) * (b - a)) ** n
    den = b ** e * s_alpha.denominator * s_beta.denominator \
        * (b ** r - a ** r) ** n
    # each C(x) netted first: past the guard one may be 0 on both sides
    net = Counter(p - s + j - i for i, p in enumerate(pad(alpha, r1))
                  for j, s in enumerate(pad(beta, r2)))
    net.subtract(j - i for i in range(r1) for j in range(r2))
    num *= math.prod(cross(x) ** k for x, k in (+net).items())
    den *= math.prod(cross(x) ** k for x, k in (-net).items())
    return Rat(num, den)


def markov_params(r1: int, r2: int, point: ParameterPoint):
    """The trace parameters (z, y) of the row bounds, in integers with q =
    a/b and Q = c/d: one Rat each."""
    a, b = point.q.numerator, point.q.denominator
    c, d = point.Q.numerator, point.Q.denominator
    s = b ** (r1 + r2) - a ** (r1 + r2)
    return (Rat(a ** (r1 + r2) * (b - a), b * s),
            Rat((c * a ** r2 + d * b ** r2) * (b ** r1 - a ** r1) - d * s,
                d * s))


# Bounded like weight_table; a plan depends only on the size and the type.
@lru_cache(maxsize=64)
def _weight_plan(n: int, r1: int, r2: int, kind: str) -> tuple:
    """The point-free half of ``weight_table`` (kind "B") and ``weight_D``
    ("D"): read-only rows (shape, splits, dimension, entry), one a class,
    ``powers``, its sorted distinct pairs (atom, exponent > 0), and
    ``program``; a type-D class is {(alpha, beta), (beta, alpha)} or
    (alpha, alpha) in halves 1, 2.

    The weight is the paper's product over every pair of rows up to the row
    bounds, rows padded with zeros: (1 - q^(lam_i-lam_j+j-i)) / (1 - q^(j-i))
    for rows i < j of one component lam, C(alpha_i-beta_j+j-i) / C(j-i) for
    every row i of alpha and j of beta, with C(x) = 1 + Q q^x, times
    ((1 - q) / (1 - q^r))^n q^(n(alpha) + n(beta) + r1 |beta|).

    With q = a/b and Q = c/d, 1 - q^k is (b^k - a^k) / b^k, and C(x) is
    (d b^x + c a^x) / (d b^x) for x >= 0 and (d a^-x + c b^-x) / (d a^-x)
    for x < 0, d cancelling; type D, at Q = 1, writes a^|x| + b^|x|, x != 0,
    as (b^2|x| - a^2|x|) / (b^|x| - a^|x|).  With m = n + r the atoms are
    Phi_k(b, a) at k <= 2m, C(x)'s numerator at 3m + 1 + x, a and b at
    4m + 2, 4m + 3.  With ei the net exponents of its i-th shape in the row
    bounds and low = min(e1, ...), a class weighs prod G (prod T1 + ...) /
    prod L, G = max(low, 0), L = max(-low, 0), Ti = ei - low.  A part, its
    powers most used first (ties by index), is a path in one trie from its
    root 0; ``program`` lists nodes 1, 2, ... as (parent, power index), an
    entry (G, L, T1, ...) each part's node, None if no shape; B's (G, L, 0)."""
    r = r1 + r2
    m, nets = n + r, {}
    for alpha, beta in double_partitions(n):
        if len(alpha) > r1 or len(beta) > r2:
            continue
        lam1 = alpha + (0,) * (r1 - len(alpha))
        lam2 = beta + (0,) * (r2 - len(beta))
        # ((1 - q) / (1 - q^r))^n q^(n(alpha) + n(beta) + r1 |beta|)
        e = [0] * (4 * m + 4)
        e[1] = n
        e[r] -= n
        ea = sum(i * p for i, p in enumerate(lam1 + lam2))
        eb = (r - 1) * n - ea
        # (1 - q^(lam_i - lam_j + j - i)) / (1 - q^(j - i)), rows i < j of
        # one component
        for lam in (lam1, lam2):
            for i, j in combinations(range(len(lam)), 2):
                e[lam[i] - lam[j] + j - i] += 1
                e[j - i] -= 1
                eb += lam[j] - lam[i]
        # C(alpha_i - beta_j + j - i) / C(j - i), every row i of alpha and
        # j of beta; at Q = 1 (type D), 1 + q^z = (1 - q^2z) / (1 - q^z)
        for (i, p), (j, s) in product(enumerate(lam1), enumerate(lam2)):
            x, y = p - s + j - i, j - i
            for z, k in ((x, 1), (y, -1)):
                if kind == "D" and z:
                    e[2 * abs(z)] += k
                    e[abs(z)] -= k
                else:
                    e[3 * m + 1 + z] += k
            ea += min(x, 0) - min(y, 0)
            eb += max(y, 0) - max(x, 0)
        # b^k - a^k is the product of the Phi_j(b, a) with j | k; going up,
        # j reads each e[k] before k's own turn
        for j in range(1, m + 1):
            e[j] += sum(e[k] for k in range(2 * j, 2 * m + 1, j))
        e[4 * m + 2], e[4 * m + 3] = ea, eb
        nets[alpha, beta] = Counter({i: k for i, k in enumerate(e) if k})
    classes = {}
    for s in double_partitions(n):
        classes.setdefault(min(s, s[::-1]) if kind == "D" else s, []).append(s)
    rows = []
    for shapes in classes.values():
        es = [nets[s] for s in shapes if s in nets]
        low = Counter({i: min(e[i] for e in es) for e in es for i in e})
        split = kind == "D" and len(shapes) == 1
        rows.append((shapes[0], (1, 2) if split else (None,),
                     dimension(shapes[0]) // (1 + split),
                     [part.items() for part
                      in (+low, -low, *(e - low for e in es))]
                     if es else None))
    uses = Counter(x for *_, e in rows if e for p in e for x in p)
    powers = tuple(sorted(uses))
    index, trie = {x: i for i, x in enumerate(powers)}.__getitem__, {}

    def node(part):  # trie: (parent node, power index) -> node
        at = 0
        for x in sorted(part, key=lambda x: (-uses[x], x)):
            at = trie.setdefault((at, index(x)), len(trie) + 1)
        return at
    rows = tuple((*row, e and tuple(map(node, e))) for *row, e in rows)
    return rows, powers, tuple(trie)


def _weights(n: int, r1: int, r2: int, kind: str, point: ParameterPoint):
    """A plan's rows and its program's node values at a point."""
    rows, powers, program = _weight_plan(n, r1, r2, kind)
    atoms = _atoms(n + r1 + r2, point, powers)
    values = [atoms[i] ** k for i, k in powers]
    acc = [1]
    for parent, i in program:
        acc.append(acc[parent] * values[i])
    return rows, acc


# Bounded: a long-lived process meets unboundedly many points, and each
# table holds every shape of one size.
@lru_cache(maxsize=64)
def weight_table(n: int, r1: int, r2: int,
                 point: ParameterPoint) -> MappingProxyType:
    """The one weight evaluator: the read-only map shape -> weight over the
    double partitions of n, kept in a bounded cache.  It runs the program
    of ``_weight_plan(n, r1, r2, "B")`` once, one multiply per node; a
    weight is then two nodes, G over L, and one Rat: a single gcd; one zero
    beyond the row bounds."""
    (rows, acc), zero = _weights(n, r1, r2, "B", point), Rat(0)
    return MappingProxyType({
        shape: zero if entry is None else Rat(acc[entry[0]], acc[entry[1]])
        for shape, _, _, entry in rows})


def _atoms(m: int, point: ParameterPoint, powers) -> list:
    """The atoms for m = n + r1 + r2 at a point, at the indices of
    ``_weight_plan``, that its sorted ``powers`` names: Phi_k(b, a) by exact
    sieve up to the largest k <= 2m named, C(x) from the least to the
    largest x named, a and b; None at every other index."""
    a, b = point.q.numerator, point.q.denominator
    c, d = point.Q.numerator, point.Q.denominator
    cut, end = bisect(powers, (2 * m + 1,)), bisect(powers, (4 * m + 2,))
    top = powers[cut - 1][0] if cut else 0
    lo, hi = (powers[cut][0] - 3 * m - 1, powers[end - 1][0] - 3 * m - 1) \
        if cut < end else (0, -1)
    pa, pb = (list(accumulate(repeat(x, max(top, -lo, hi)), mul, initial=1))
              for x in (a, b))
    atoms = [y - x for x, y in zip(pa[:top + 1], pb)]
    for j in range(1, top // 2 + 1):
        for k in range(2 * j, top + 1, j):
            atoms[k] //= atoms[j]
    # d C(x) a^max(-x, 0) b^max(x, 0) at 3m + 1 + x
    atoms += [None] * (3 * m + lo - top)
    atoms += [d * pa[x] + c * pb[x] for x in range(-lo, 0, -1)]
    atoms += [d * pb[x] + c * pa[x] for x in range(max(lo, 0), hi + 1)]
    return atoms + [None] * (m - hi) + [a, b]


# Bounded like weight_table; a table's stacks and pairings hold only the
# letters used.
@lru_cache(maxsize=64)
def trace_table(n: int, r1: int, r2: int, point: ParameterPoint):
    """The Markov trace at (n, r1, r2, point) as data: the nonzero weights'
    numerators over one common denominator, grouped by the dimension of
    their shapes.  Returns ``(groups, den)`` with ``groups`` a tuple of
    triples (read-only integer array of numerators, ``Representation``
    stack of the matching shapes, and the group's map letter -> pairing
    that ``markov_trace_B`` fills: a letter's weighted transpose, flat and
    read-only, over the letter's denominator)."""
    weights = {shape: w for shape, w in weight_table(n, r1, r2, point).items()
               if w != 0}
    den = math.lcm(*(w.denominator for w in weights.values()))
    groups = []
    for group in stacks(weights, n, point):
        nums = vector([weights[s].numerator * (den // weights[s].denominator)
                       for s in group.shapes])
        nums.flags.writeable = False
        groups.append((nums, group, {}))
    return tuple(groups), den


def _pairing(group, letter):
    """The last letter L of a group's trace, paired once: tr(P L) = sum_ij
    P_ij L_ji, so sum_k w_k tr(P_k L_k) is the flat dot of P with W[k, i, j]
    = w_k L_k[j, i].  Returns (W flat and read-only, L's denominator)."""
    nums, stack, pairings = group
    if letter not in pairings:
        num, den = stack.letter_matrix(letter)
        flat = (nums[:, None, None] * num.transpose(0, 2, 1)).ravel()
        flat.flags.writeable = False
        pairings[letter] = flat, den
    return pairings[letter]


def markov_trace_B(element, n: int, r1: int, r2: int, point: ParameterPoint):
    """Weighted character sum over all double partitions of n, one dimension
    at a time.  The empty word weighs sum_k w_k d over the groups of
    ``trace_table``; a longer word pairs, in each group, the evaluation of
    its prefix on the stack with the group's pairing of its last letter in
    one integer dot, and all groups share one Rat over the common
    denominator."""
    groups, den = trace_table(n, r1, r2, point)
    if not element.letters:
        return Rat(sum(stack.dimension * nums.sum()
                       for nums, stack, _ in groups), den)
    *prefix, last = element.letters
    prefix, dots, dens = word(prefix), [], []
    for group in groups:
        num, d = evaluate(group[1], prefix)
        flat, e = _pairing(group, last)
        dots.append(num.ravel().dot(flat))
        dens.append(d * e)
    common = math.lcm(*dens)
    return Rat(sum(x * (common // d) for x, d in zip(dots, dens)),
               den * common)


def q1_point(q) -> ParameterPoint:
    """The exact Q = 1 point of types D and A (at r2 = 0 every cross ratio
    is C(x) / C(x), so a type-A weight does not depend on Q).  1 > 0 is
    never -q^s: H(B_n) is semisimple there at every n, so it passes
    ``guard(n - 1)`` unchecked and serves every size and row bound."""
    return ParameterPoint(Rat(q), Rat(1))


# -- type D ------------------------------------------------------------------

def weight_D(n: int, r1: int, r2: int, point: ParameterPoint) -> list:
    """Rows (shape, split, weight, dimension) of size n >= 1, one Rat a class
    of the type-D program's nodes: merged classes at their first shape, split
    None; halves 1, 2 of (alpha, alpha), half as big.  Only at Q = 1: the
    plan reads 1 + Q q^x as 1 + q^x, so it would misweigh any other Q."""
    if n < 1 or point.Q != 1:
        raise ValueError("type D needs --n >= 1" if n < 1 else
                         f"type-D weights live at Q = 1, not Q = {point.Q}")
    (plan, acc), zero, rows = _weights(n, r1, r2, "D", point), Rat(0), []
    for shape, splits, d, entry in plan:
        w = zero if entry is None else Rat(
            acc[entry[0]] * sum(acc[t] for t in entry[2:]), acc[entry[1]])
        rows += [(shape, split, w, d) for split in splits]
    return rows


def markov_trace_D(element, n: int, r1: int, r2: int, q):
    """Markov trace of a type-D element (letters u and g): the two-parameter
    trace at Q = 1."""
    return markov_trace_B(element, n, r1, r2, q1_point(q))
