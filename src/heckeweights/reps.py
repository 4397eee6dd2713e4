"""Seminormal matrix representations and word evaluation.

Two families of representations share one seminormal construction:

* ``typeB_rep``   -- irreducible modules of the two-parameter algebra with
  generators t, g_1..g_{n-1}, indexed by double partitions; type A is the
  beta-empty case, the g_i acting on ``typeB_rep((mu, ()), p)`` as on the
  module of mu and t as Q (``typeA_rep`` is that alias);
* ``skew_rep``    -- the same modules realized on skew fillings of a glued
  diagram at Q = -q^(r1+m), from exponents of its own, absolute contents in
  the big diagram and full twists (an independent code path from typeB_rep).

The off-diagonal pair of each 2x2 swap block is ((1 - q x) / (1 - x),
(q - x) / (1 - x)).  Only its product (q - x)(1 - q x) / (1 - x)^2 is fixed
by trace q - 1 and determinant -q; this square-root-free choice keeps the
denominators 1 - x, and characters are unaffected by the normalization.

Every matrix of a representation is a pair (num, den): a read-only numpy
object array of integers, built by a constructor of ``scalars`` (numpy is
loaded with the first), and one positive integer, the least common
denominator of the entries, standing for num / den.  ``_build`` writes the
generators' entries at a point as integers over one denominator, from a
point-free plan per shape that a bounded cache keeps (``_seminormal_plan``):
its swap blocks and their exponents (e, kind) of the ratio q^e (-1/Q)^kind.

A word is its letters, ("t", 0), ("g", i), ("ginv", i), ("tprime", i)
and, for the type-D front end, ("u", 0), and carries no size: it is of the
size of the algebra that evaluates it.  A ``Representation`` is the one
store of letter matrices, of one module or of a stack of modules of one
dimension as ``stacks`` groups them for ``traces.trace_table`` and
``homcheck.relations_report``; ``Representation.letter_matrix`` defines
what each letter means and is the one check that its algebra holds it;
``evaluate`` multiplies a word's letter matrices in integers, numerators by
``@`` and denominators as ints, and ``character`` makes the one division.
``expand_word`` rewrites the same letters over {t, g} independently, as a
reference for tests, into a ``HeckeElement``: a map word -> coefficient
that the tests evaluate word by word.

``relations(n, kind)`` lists the defining relations of the two checked
presentations, "B" and "D" (type A is checked as type B on the modules of
(mu, ())); ``relation_residuals`` measures a module's or a stack's letter
matrices against them in integers; ``random_word`` draws words of type A,
B or D.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .combinatorics import dimension, mu_content, standard_tableaux, trim
from .scalars import ParameterPoint, Rat, diagonal, identity, \
    specialized_point, stack, zeros

T_LETTER = ("t", 0)
U_LETTER = ("u", 0)


def g_letter(i: int):
    return ("g", i)


def ginv_letter(i: int):
    return ("ginv", i)


def tprime_letter(i: int):
    return ("tprime", i)


@dataclass(frozen=True)
class HeckeWord:
    """A word in the letters of the tower of algebras, of no size."""

    letters: tuple

    def __str__(self):
        """The word in ``parse_word`` tokens."""
        return _letters_str(self.letters)


_TOKENS = {"t": "t", "u": "u", "g": "g{}", "ginv": "G{}", "tprime": "t'{}"}


def _letters_str(letters) -> str:
    return " ".join(_TOKENS[kind].format(i) for kind, i in letters)


def word(letters) -> HeckeWord:
    """The word of ``letters``, unchecked until an algebra evaluates it."""
    return HeckeWord(tuple(letters))


@dataclass
class HeckeElement:
    """A finite linear combination of words, as the map word -> coefficient;
    ``expand_word`` stores no zero coefficient."""

    terms: dict


def parse_word(text: str) -> HeckeWord:
    """Parse whitespace-separated tokens: t, u, g3, G3 (inverse), t'2.
    Only the token's form is checked; whether the letter exists is the
    algebra's to say when it evaluates the word."""
    letters = []
    for token in text.split():
        try:
            if token == "t":
                letters.append(T_LETTER)
            elif token == "u":
                letters.append(U_LETTER)
            elif token.startswith("t'"):
                letters.append(tprime_letter(int(token[2:])))
            elif token.startswith("g"):
                letters.append(g_letter(int(token[1:])))
            elif token.startswith("G"):
                letters.append(ginv_letter(int(token[1:])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad word token {token!r}") from None
    return word(letters)


def expand_word(w: HeckeWord, point: ParameterPoint) -> HeckeElement:
    """Rewrite a word as a linear combination of words over {t, g} only.

    Not used to evaluate words: it is the independent rewrite of G_i, t'_i
    and u that tests compare ``Representation.letter_matrix`` against.
    """
    q = point.q
    plain = {(): Rat(1)}

    def pieces(letter):
        kind, i = letter
        if kind in ("t", "g"):
            return [((letter,), Rat(1))]
        if kind == "u":
            return [((T_LETTER, g_letter(1), T_LETTER), Rat(1))]
        if kind == "ginv":
            return [((g_letter(i),), 1 / q), ((), 1 / q - 1)]
        if kind == "tprime":
            if i == 0:
                return [((T_LETTER,), Rat(1))]
            seq = [g_letter(j) for j in range(i, 0, -1)] + [T_LETTER] \
                + [ginv_letter(j) for j in range(1, i + 1)]
            acc = {(): Rat(1)}
            for sub in seq:
                acc = _mul_terms(acc, dict(pieces(sub)))
            return list(acc.items())
        raise ValueError(f"unknown letter kind {kind!r}")

    for letter in w.letters:
        plain = _mul_terms(plain, dict(pieces(letter)))
    return HeckeElement({word(ls): c for ls, c in plain.items() if c != 0})


def _mul_terms(a: dict, b: dict) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            key = w1 + w2
            out[key] = out.get(key, Rat(0)) + c1 * c2
    return out


# -- representations ---------------------------------------------------------

@dataclass
class Representation:
    """The letter store of one module, or of a stack of the k modules of
    ``shapes`` that share one dimension d (see ``stacks``).

    ``letters`` maps a letter to its matrix (num, den): a read-only integer
    array, (d, d) for one module and (k, d, d) for a stack, and its least
    common denominator.  A module's store starts with its generators t and
    g_i; a stack's starts empty.
    """

    dimension: int
    size: int
    point: ParameterPoint
    letters: dict = field(default_factory=dict, repr=False)
    shapes: tuple = ()

    def letter_matrix(self, letter):
        """Matrix (num, den) of one letter, built on its first use and
        cached read-only.  A stack's generator stacks the modules' own
        generators over their least common denominator (a stack of one is a
        view); G_i, t'_i and u = t g_1 t are derived from this store's own
        generators.  Each is reduced to its least common denominator."""
        if letter in self.letters:
            return self.letters[letter]
        kind, i = letter
        n, q = self.size, self.point.q
        if self.shapes and (letter == T_LETTER or (kind == "g" and 0 < i < n)):
            ms = [typeB_rep(shape, self.point).letter_matrix(letter)
                  for shape in self.shapes]
            den = math.lcm(*(d for _, d in ms))
            m = (ms[0][0][None], den) if len(ms) == 1 else \
                (stack([num if d == den else num * (den // d)
                        for num, d in ms]), den)
        elif kind == "ginv" and 0 < i < n:
            # g_i = X / D, q = a / b: G_i = (b X - (a - b) D I) / (a D)
            X, D = self.letter_matrix(g_letter(i))
            a, b = q.numerator, q.denominator
            m = b * X - (a - b) * D * identity(self.dimension), a * D
        elif kind == "tprime" and 0 <= i < n:
            # t'_0 = t and t'_i = g_i t'_{i-1} G_i
            m = self.letter_matrix(T_LETTER) if i == 0 else _product([
                self.letter_matrix(g_letter(i)),
                self.letter_matrix(tprime_letter(i - 1)),
                self.letter_matrix(ginv_letter(i))])
        elif letter == U_LETTER and n >= 2:
            t = self.letter_matrix(T_LETTER)
            m = _product([t, self.letter_matrix(g_letter(1)), t])
        else:  # named by its token if one parses to it, else by its tuple
            name = _letters_str([letter]) if kind in _TOKENS else ""
            name = name if parse_word(name).letters == (letter,) else letter
            raise ValueError(f"no letter {name} in a representation of size "
                             f"{n}")
        m = _reduced(*m)
        m[0].flags.writeable = False
        self.letters[letter] = m
        return m

    @cached_property
    def one(self):
        """The read-only identity (num, 1) in the shape of the letters."""
        one = identity(self.dimension)
        one = one[None].repeat(len(self.shapes), 0) if self.shapes else one
        one.flags.writeable = False
        return one, 1


def stacks(shapes, n: int, point: ParameterPoint) -> list:
    """The modules at ``point`` of ``shapes``, double partitions of n, as
    one ``Representation`` stack per dimension, in the order in which the
    dimensions first appear."""
    by_dimension = {}
    for shape in shapes:
        by_dimension.setdefault(dimension(shape), []).append(shape)
    return [Representation(d, n, point, shapes=tuple(group))
            for d, group in by_dimension.items()]


# -- matrices over one denominator -------------------------------------------

def _reduced(num, den):
    """The same matrix over the least common denominator of its entries."""
    g = math.gcd(den, *num.flat)
    return (num // g, den // g) if g > 1 else (num, den)


def _product(factors):
    """Product of (num, den) matrices: numerators by ``@``, so a stack of
    matrices multiplies matrix by matrix; denominators as ints, nothing
    reduced."""
    (num, den), *rest = factors
    for m, d in rest:
        num = num @ m
        den *= d
    return num, den


# Bounded, and built from tuples, so no caller can alter a cached plan; 256
# holds every shape of size at most 6 (138).
PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _seminormal_plan(shape):
    """The point-free part of the generators of a nonempty double
    partition: its dimension, the component of entry 1 in each standard
    tableau (a box tuple), for each g_i its blocks (s, s2, box of i, box of
    i+1), s with no standard swap (s2 None) or the earlier of a pair, their
    exponents (e, kind), the content of the box of i+1 less that of i and 0
    within a component, +1 from the first to the second, -1 back, and the
    largest |e|."""
    shape = (trim(shape[0]), trim(shape[1]))
    if shape == ((), ()):
        raise ValueError("no module of size 0: the double partition is empty")
    basis = standard_tableaux(shape)
    index = {t: s for s, t in enumerate(basis)}
    generators, exponents = [], []
    for i in range(1, len(basis[0])):
        blocks, pairs = [], []
        for s, t in enumerate(basis):
            # None when swapping i and i+1 leaves no standard tableau
            s2 = index.get(t[:i - 1] + (t[i], t[i - 1]) + t[i + 1:])
            if s2 is None or s < s2:
                (c1, row1, col1), (c2, row2, col2) = t[i - 1], t[i]
                blocks.append((s, s2, t[i - 1], t[i]))
                pairs.append((col2 - row2 - col1 + row1, c2 - c1))
        generators.append(tuple(blocks))
        exponents.append(tuple(pairs))
    top = max((abs(e) for pairs in exponents for e, _ in pairs), default=0)
    return len(basis), tuple(t[0][0] for t in basis), tuple(generators), \
        tuple(exponents), top


def _build(plan, point, exponents, top, t_eigenvalues):
    """The module of a ``_seminormal_plan`` at ``point``: g_i acts by the
    seminormal rule at the axial ratio x = q^e (-1/Q)^kind of its block's
    (e, kind) in ``exponents``, |e| <= ``top``: in a swap pair the earlier
    tableau's column carries (1 - q x) / (1 - x), the later's (q - x) /
    (1 - x).  t acts by the ratio of the pair ``t_eigenvalues[c]`` on a
    tableau with entry 1 in component c.  With q = a/b and Q = c/d, x = u / v
    off one list of powers of a and b, a block's entries over b (v - u)."""
    dim, components, generators, _, _ = plan
    a, b = point.q.numerator, point.q.denominator
    c, d = point.Q.numerator, point.Q.denominator
    # q^e = pw[e] / pw[-e] for |e| <= top, (-1/Q)^kind = qu[kind] / qv[kind]
    pw, qu, qv = [1] * (2 * top + 1), (1, -d, -c), (1, c, d)
    for k in range(1, top + 1):
        pw[k], pw[-k] = pw[k - 1] * a, pw[1 - k] * b
    letters = {}
    for i, (blocks, ex) in enumerate(zip(generators, exponents), 1):
        xs = [(pw[e] * qu[kind], pw[-e] * qv[kind]) for e, kind in ex]
        den = b * math.lcm(*(v - u for u, v in xs))
        num = zeros(dim, dim)
        for (s, s2, _, _), (u, v) in zip(blocks, xs):
            k = den // (b * (v - u))
            num[s, s] = u * (b - a) * k
            if s2 is not None:
                num[s2, s] = (b * v - a * u) * k
                num[s, s2] = (a * v - b * u) * k
                num[s2, s2] = -v * (b - a) * k
        letters[g_letter(i)] = _reduced(num, den)
    den = math.lcm(*[t_eigenvalues[comp][1] for comp in set(components)])
    ts = [u * (den // v) for u, v in t_eigenvalues]
    letters[T_LETTER] = diagonal([ts[comp] for comp in components]), den
    for num, _ in letters.values():
        num.flags.writeable = False
    return Representation(dim, len(generators) + 1, point, letters)


# Bounded: a long-lived process meets unboundedly many points.  128 holds
# every shape of sizes n and n - 1 at one point up to n = 6 (65 + 36), which
# a Markov-property check uses together, and the 20 shapes of two points at
# n = 3 that a stream of trace queries reuses.
REP_CACHE_SIZE = 128


@lru_cache(maxsize=REP_CACHE_SIZE)
def typeB_rep(shape, point: ParameterPoint) -> Representation:
    """Seminormal representation indexed by a double partition; t acts
    diagonally by Q or -1 according to the component holding entry 1."""
    plan = _seminormal_plan(shape)
    return _build(plan, point, plan[3], plan[4],
                  ((point.Q.numerator, point.Q.denominator), (-1, 1)))


# maxsize 0: no second cache, but the calls and cache_info() the tracer reads
@lru_cache(maxsize=0)
def typeA_rep(mu, point: ParameterPoint) -> Representation:
    """The module of the partition mu, ``typeB_rep((mu, ()), point)``."""
    return typeB_rep((mu, ()), point)


@lru_cache(maxsize=REP_CACHE_SIZE)
def skew_rep(shape, m: int, r1: int, q) -> Representation:
    """Skew realization on tableaux of the double partition at
    Q = -q^(r1+m): the axial ratio of a block is q to the difference of the
    absolute contents of its boxes inside the glued diagram, and t acts by
    minus the ratio q^E of the full twists of beta = [m+1, m^(r1-1)] and
    gamma = [m^r1, 1] on the first component and by -1 on the second."""
    n = sum(shape[0]) + sum(shape[1])
    if not (m > n and r1 > n):
        raise ValueError(f"need m > n and r1 > n (got m={m}, r1={r1}, n={n})")
    plan = _seminormal_plan(shape)
    exponents = [[(mu_content(box2, m, r1) - mu_content(box1, m, r1), 0)
                  for _, _, box1, box2 in blocks] for blocks in plan[2]]
    top = max((abs(e) for pairs in exponents for e, _ in pairs), default=0)
    e = full_twist_exponent((m + 1,) + (m,) * (r1 - 1)) \
        - full_twist_exponent((m,) * r1 + (1,))
    point = specialized_point(q, m, r1)
    a, b = point.q.numerator, point.q.denominator
    twist = (-a ** e, b ** e) if e >= 0 else (-b ** -e, a ** -e)
    return _build(plan, point, exponents, top, (twist, (-1, 1)))


def full_twist_exponent(nu) -> int:
    """The exponent f(f-1) - cross of the scalar q^exponent by which the
    full twist (g_{f-1} ... g_1)^f acts on the irreducible module of the
    partition nu of f, cross the sum of (nu_i + 1) nu_j over i < j."""
    f = sum(nu)
    if f < 1:
        raise ValueError("need a nonempty partition")
    cross = above = 0  # above: the sum of nu_i + 1 over the rows so far
    for part in nu:
        cross += above * part
        above += part + 1
    return f * (f - 1) - cross


def evaluate(rep, element):
    """Matrix of a word in a representation, as a pair (num, den) of an
    integer array and a positive integer: the product of its letter
    matrices, numerators multiplied by ``@`` and denominators as ints,
    nothing reduced.  The empty word is the store's ``one``, (identity, 1)
    in the shape of its letters, (d, d) for a module and (k, d, d) for a
    stack, built once; it and a one-letter word return a numerator of the
    store, which is read-only.  A letter the representation's algebra does
    not hold raises ``letter_matrix``'s ValueError."""
    if not element.letters:
        return rep.one
    return _product([rep.letter_matrix(letter) for letter in element.letters])


def character(rep: Representation, element):
    """Trace of evaluate(rep, element): the integer trace of the numerator
    over the denominator, the one division of an evaluation."""
    num, den = evaluate(rep, element)
    return Rat(num.trace(), den)


# -- the presentations -------------------------------------------------------

# Bounded; a tuple of tuples, so no caller can alter a cached list.
@lru_cache(maxsize=32)
def relations(n: int, kind: str) -> tuple:
    """The defining relations of the size-n algebra of type ``kind``: "B"
    (the g_i and t) or "D" (the g_i and u = t g_1 t, the index-2 subalgebra
    of type B at Q = 1).  A relation is a pair (lhs, rhs) of letter tuples,
    or (x x, p) for x x = (p - 1) x + p, with p the name of the parameter:
    "Q" for t, "q" for g_i and u."""
    g = [g_letter(i) for i in range(1, n)]
    rels = [((a, b, a), (b, a, b)) for a, b in zip(g, g[1:])]
    rels += [((a, b), (b, a)) for i, a in enumerate(g) for b in g[i + 2:]]
    rels += [((a, a), "q") for a in g]
    if kind == "B":
        t = T_LETTER
        rels.append(((t, t), "Q"))
        rels += [((t, a, t, a), (a, t, a, t)) for a in g[:1]]
        rels += [((t, a), (a, t)) for a in g[1:]]
    elif kind != "D":
        raise ValueError(f"no algebra of type {kind!r}")
    elif g:
        u = U_LETTER
        rels.append(((u, u), "q"))
        # u commutes with g_1 and with g_i for i >= 3, and braids with g_2
        rels += [((u, a), (a, u)) for a in g[:1] + g[2:]]
        rels += [((u, a, u), (a, u, a)) for a in g[1:2]]
    return tuple(rels)


def relation_str(relation) -> str:
    """The relation as text, as in ``u g1 = g1 u`` or ``g1 g1 = (q-1) g1 +
    q``."""
    lhs, rhs = relation
    left = _letters_str(lhs)
    if isinstance(rhs, str):
        return f"{left} = ({rhs}-1) {_letters_str(lhs[:1])} + {rhs}"
    return f"{left} = {_letters_str(rhs)}"


def relation_residuals(rep: Representation, kind: str = "B") -> list:
    """Left minus right of each of ``relations(rep.size, kind)``, in order,
    as pairs (num, den) in integers, on one module or on a stack of them.  A
    residual is zero exactly when its integer numerator is zero, so the
    letter matrices satisfy the presentation iff every numerator is zero.

    A braid or commutation relation with sides L = ln / ld and R = rn / rd
    leaves ln rd - rn ld over ld rd.  The quadratic x x = (p - 1) x + p with
    x = X / D and p = c / e leaves e X X - (c - e) D X - c D^2 I over e D^2;
    c D^2 comes off a strided view of the fresh numerator's diagonal."""
    res = []
    for lhs, rhs in relations(rep.size, kind):
        if isinstance(rhs, str):
            p = getattr(rep.point, rhs)
            c, e = p.numerator, p.denominator
            X, D = rep.letter_matrix(lhs[0])
            num = e * (X @ X) - (c - e) * D * X
            d = rep.dimension
            num.reshape(*num.shape[:-2], d * d)[..., ::d + 1] -= c * D * D
            res.append((num, e * D * D))
        else:
            (ln, ld), (rn, rd) = (
                _product([rep.letter_matrix(x) for x in side])
                for side in (lhs, rhs))
            res.append((ln * rd - rn * ld, ld * rd))
    return res


_WORD_LETTERS = {"A": ("g", "ginv"), "B": ("g", "ginv", "t", "tprime"),
                 "D": ("g", "ginv", "u")}


def random_word(n: int, rng: random.Random, max_len: int = 4,
                kind: str = "B") -> HeckeWord:
    """Random short word in the size-n algebra of type ``kind`` ("A", "B"
    or "D"), deterministic given rng; letters the size cannot hold (g_i and
    u at n = 1) are drawn and left out."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        drawn = rng.choice(_WORD_LETTERS[kind])
        if drawn == "t":
            letters.append(T_LETTER)
        elif drawn == "tprime":
            letters.append(tprime_letter(rng.randint(0, n - 1)))
        elif n < 2:
            continue
        elif drawn == "u":
            letters.append(U_LETTER)
        else:
            i = rng.randint(1, n - 1)
            letters.append(g_letter(i) if drawn == "g" else ginv_letter(i))
    return word(letters)
