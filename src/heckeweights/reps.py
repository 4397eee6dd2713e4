"""Seminormal matrix representations and word evaluation.

Three families of representations share one seminormal construction:

* ``typeA_rep``   -- irreducible modules of the one-parameter algebra with
  generators g_1..g_{n-1}, indexed by partitions;
* ``typeB_rep``   -- irreducible modules of the two-parameter algebra with
  the extra generator t, indexed by double partitions;
* ``skew_rep``    -- the same modules realized on skew fillings of a glued
  diagram at the specialization Q = -q^(r1+m), built from absolute contents
  inside the big diagram (an independent code path from typeB_rep).

The off-diagonal pair of each 2x2 swap block is (1, P(x)) with
P(x) = (q - x)(1 - q x) / (1 - x)^2, the unique square-root-free choice with
trace q - 1 and determinant -q; characters are unaffected by this
similarity normalization.

Every matrix of a representation is a pair (num, den): a read-only numpy
object array of integers and one positive integer, the least common
denominator of the entries, standing for num / den.  ``_build`` computes the
generators' entries as ``Rat`` and converts each matrix once.

Words use letters ("t", 0), ("g", i), ("ginv", i), ("tprime", i) and, for
the type-D front end, ("u", 0).  A ``Representation`` is the one store of
letter matrices, of one module or of a stack of modules of one dimension
(see ``traces.trace_table``), and ``Representation.letter_matrix`` defines
what each letter means; ``evaluate`` multiplies a word's letter matrices in
integers, numerators by ``@`` and denominators as ints, and ``character``
makes the one division.  ``expand_word`` rewrites the same letters over
{t, g} independently, as a reference for tests; its result is a
``HeckeElement``, a map from words to coefficients with no arithmetic of its
own, which ``evaluate`` takes as the weighted sum of its words.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import combinatorics as comb
from .combinatorics import DoubleTableau, apply_transposition, axial_parameter, \
    mu_content, standard_tableaux, trim
from .scalars import ParameterPoint, Rat, identity, specialized_point, zeros

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
    """A word in the generators of the size-``ambient_n`` algebra."""

    letters: tuple
    ambient_n: int

    def __post_init__(self):
        n = self.ambient_n
        if n < 1:
            raise ValueError("ambient_n must be >= 1")
        for kind, i in self.letters:
            if kind in ("t", "u") and i != 0:
                raise ValueError(f"{kind} takes index 0 (got {i})")
            if kind == "t":
                continue
            if kind == "u":
                if n < 2:
                    raise ValueError(f"u = t g1 t needs n >= 2 (got n = {n})")
                continue
            if kind == "tprime":
                if not 0 <= i <= n - 1:
                    raise ValueError(f"t'{i} out of range for n = {n}")
            elif kind in ("g", "ginv"):
                if not 1 <= i <= n - 1:
                    raise ValueError(f"index {i} out of range for n = {n}")
            else:
                raise ValueError(f"unknown letter kind {kind!r}")

    def __str__(self):
        """The word in ``parse_word`` tokens."""
        return " ".join(_TOKENS[kind].format(i) for kind, i in self.letters)


_TOKENS = {"t": "t", "u": "u", "g": "g{}", "ginv": "G{}", "tprime": "t'{}"}


def word(letters, n: int) -> HeckeWord:
    return HeckeWord(letters=tuple(letters), ambient_n=n)


@dataclass
class HeckeElement:
    """A finite linear combination of words, as the map word -> coefficient
    with no zero coefficients stored."""

    terms: dict
    ambient_n: int

    def __post_init__(self):
        self.terms = {w: c for w, c in self.terms.items() if c != 0}


def parse_word(text: str, n: int) -> HeckeWord:
    """Parse whitespace-separated tokens: t, u, g3, G3 (inverse), t'2."""
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
    return word(letters, n)


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
    terms = {word(ls, w.ambient_n): c for ls, c in plain.items() if c != 0}
    return HeckeElement(terms, w.ambient_n)


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
    ``shapes`` that share one dimension d (see ``traces.trace_table``).

    ``letters`` maps a letter to its matrix (num, den): a read-only integer
    array, (d, d) for one module and (k, d, d) for a stack, and its least
    common denominator.  A module's store starts with its generators g_i
    and, for types B and skew, t; a stack's starts empty.
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
            m = (ms[0][0][np.newaxis], den) if len(ms) == 1 else \
                (np.stack([num if d == den else num * (den // d)
                           for num, d in ms]), den)
        elif letter == T_LETTER:
            raise ValueError("representation has no t generator")
        elif kind == "ginv" and 0 < i < n:
            m = _combination([(1 / q, self.letter_matrix(g_letter(i))),
                              (1 / q - 1, (identity(self.dimension), 1))])
        elif kind == "tprime" and 0 <= i < n:
            # t'_0 = t and t'_i = g_i t'_{i-1} G_i
            m = self.letter_matrix(T_LETTER) if i == 0 else _product([
                self.letter_matrix(g_letter(i)),
                self.letter_matrix(tprime_letter(i - 1)),
                self.letter_matrix(ginv_letter(i))])
        elif letter == U_LETTER and n >= 2:
            t = self.letter_matrix(T_LETTER)
            m = _product([t, self.letter_matrix(g_letter(1)), t])
        else:
            raise ValueError(f"no letter {letter!r} in a representation of "
                             f"size {n}")
        m = _reduced(*m)
        m[0].flags.writeable = False
        self.letters[letter] = m
        return m


# -- matrices over one denominator -------------------------------------------

def _integer_form(m):
    """The Rat matrix m as (num, den), num read-only and den the least
    common denominator of its entries."""
    den = math.lcm(*(e.denominator for e in m.flat))
    num = np.array([[e.numerator * (den // e.denominator) for e in row]
                    for row in m], dtype=object)
    num.flags.writeable = False
    return num, den


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


def _combination(terms):
    """Sum of c * num / den over (c, (num, den)) terms with rational c, over
    one common denominator, not reduced."""
    den = math.lcm(*(c.denominator * d for c, (_, d) in terms))
    return sum(m * (c.numerator * (den // (c.denominator * d)))
               for c, (m, d) in terms), den


def _seminormal_g(basis, index, i: int, axial, q):
    """Matrix of the i-th generator from the axial scalar x(t, i).

    Columns follow the pair rule: for a swap pair the earlier tableau in
    canonical order carries off-diagonal 1, the later carries P(x).
    """
    d = len(basis)
    m = zeros(d, d)

    def diag(x):
        return x * (1 - q) / (1 - x)

    for s, t in enumerate(basis):
        t2 = apply_transposition(t, i)
        x = axial(t, i)
        if t2 is None:
            m[s, s] = diag(x)
            continue
        s2 = index[t2.boxes]
        if s > s2:
            continue
        m[s, s] = diag(x)
        m[s2, s] = Rat(1)
        m[s, s2] = (q - x) * (1 - q * x) / (1 - x) ** 2
        m[s2, s2] = diag(1 / x)
    return m


def _build(shape, point, axial, t_eigenvalue):
    basis = standard_tableaux(shape)
    index = {t.boxes: s for s, t in enumerate(basis)}
    d = len(basis)
    n = sum(shape[0]) + sum(shape[1])
    letters = {g_letter(i): _integer_form(_seminormal_g(basis, index, i, axial,
                                                        point.q))
               for i in range(1, n)}
    if t_eigenvalue is not None:
        t = zeros(d, d)
        for s, tableau in enumerate(basis):
            t[s, s] = t_eigenvalue(tableau)
        letters[T_LETTER] = _integer_form(t)
    return Representation(d, n, point, letters)


# Bounded: a long-lived process meets unboundedly many points.  128 holds
# every shape of sizes n and n - 1 at one point up to n = 6 (65 + 36), which
# a Markov-property check uses together, and the 20 shapes of two points at
# n = 3 that a stream of trace queries reuses.
REP_CACHE_SIZE = 128


@lru_cache(maxsize=REP_CACHE_SIZE)
def typeA_rep(mu, point: ParameterPoint) -> Representation:
    """Seminormal representation of the one-parameter algebra on standard
    tableaux of the partition mu."""
    mu = trim(mu)
    shape = (mu, ())
    return _build(shape, point,
                  lambda t, i: axial_parameter(t, i, point), None)


@lru_cache(maxsize=REP_CACHE_SIZE)
def typeB_rep(shape, point: ParameterPoint) -> Representation:
    """Seminormal representation indexed by a double partition; t acts
    diagonally by Q or -1 according to the component holding entry 1."""
    shape = (trim(shape[0]), trim(shape[1]))
    Q = point.Q

    def t_eig(t: DoubleTableau):
        return Q if t.boxes[0][0] == 0 else Rat(-1)

    return _build(shape, point,
                  lambda t, i: axial_parameter(t, i, point), t_eig)


@lru_cache(maxsize=REP_CACHE_SIZE)
def skew_rep(shape, m: int, r1: int, q) -> Representation:
    """Skew realization on tableaux of the double partition, with axial
    scalars taken from absolute contents inside the glued diagram and t
    acting by full-twist scalar ratios."""
    shape = (trim(shape[0]), trim(shape[1]))
    n = sum(shape[0]) + sum(shape[1])
    if not (m > n and r1 > n):
        raise ValueError(f"need m > n and r1 > n (got m={m}, r1={r1}, n={n})")
    point = specialized_point(q, m, r1)
    q = point.q
    comb.embed_double(shape, m, r1)  # validates the rectangle constraint

    def axial(t, i):
        return q ** (mu_content(t.boxes[i], m, r1)
                     - mu_content(t.boxes[i - 1], m, r1))

    gamma = (m,) * r1 + (1,)
    beta_shape = (m + 1,) + (m,) * (r1 - 1)
    alpha_gamma = full_twist_scalar(gamma, q)

    def t_eig(t: DoubleTableau):
        nu = beta_shape if t.boxes[0][0] == 0 else gamma
        return -full_twist_scalar(nu, q) / alpha_gamma

    return _build(shape, point, axial, t_eig)


def full_twist_scalar(nu, q):
    """Scalar by which the full twist (g_{f-1} ... g_1)^f acts on the
    irreducible module of the partition nu of f."""
    nu = trim(nu)
    f = sum(nu)
    if f < 1:
        raise ValueError("need a nonempty partition")
    cross = sum((nu[i] + 1) * nu[j]
                for i in range(len(nu)) for j in range(i + 1, len(nu)))
    return q ** (f * (f - 1) - cross)


def evaluate(rep, element):
    """Matrix of a word or linear combination in a representation, as a
    pair (num, den) of an integer array and a positive integer.

    A word is the product of its letter matrices: the numerators multiplied
    by ``@``, the denominators as ints, nothing reduced; the empty word is
    (identity, 1), whose (d, d) array broadcasts against a stack's (k, d, d)
    letters.  An element is the coefficient-weighted sum over its words, put
    over one common denominator.  A one-letter word returns the letter's own
    numerator, which is read-only.
    """
    if element.ambient_n > rep.size:
        raise ValueError(f"element lives in size {element.ambient_n}, "
                         f"representation in size {rep.size}")
    if isinstance(element, HeckeElement):
        if not element.terms:
            return zeros(rep.dimension, rep.dimension), 1
        return _combination([(coeff, evaluate(rep, w))
                             for w, coeff in element.terms.items()])
    if not element.letters:
        return identity(rep.dimension), 1
    return _product([rep.letter_matrix(letter) for letter in element.letters])


def character(rep: Representation, element):
    """Trace of evaluate(rep, element): the integer trace of the numerator
    over the denominator, the one division of an evaluation."""
    num, den = evaluate(rep, element)
    return Rat(num.trace(), den)


def relation_residuals(rep: Representation) -> list:
    """Left minus right of every defining relation that applies, as pairs
    (num, den).  A residual is zero exactly when its integer numerator is
    zero, so the generator matrices are a valid representation iff every
    numerator is zero."""
    G = [rep.letter_matrix(g_letter(i)) for i in range(1, rep.size)]
    q = rep.point.q
    I = identity(rep.dimension), 1

    def difference(left, right):
        return _combination([(1, _product(left)), (-1, _product(right))])

    res = []
    for i in range(len(G) - 1):
        res.append(difference([G[i], G[i + 1], G[i]],
                              [G[i + 1], G[i], G[i + 1]]))
    for i in range(len(G)):
        for j in range(i + 2, len(G)):
            res.append(difference([G[i], G[j]], [G[j], G[i]]))
    for g in G:
        res.append(_combination([(1, _product([g, g])), (1 - q, g), (-q, I)]))
    if T_LETTER in rep.letters:
        t = rep.letter_matrix(T_LETTER)
        Q = rep.point.Q
        res.append(_combination([(1, _product([t, t])), (1 - Q, t), (-Q, I)]))
        if G:
            g1 = G[0]
            res.append(difference([t, g1, t, g1], [g1, t, g1, t]))
        for g in G[1:]:
            res.append(difference([t, g], [g, t]))
    return res


def random_word(n: int, rng: random.Random, max_len: int = 4,
                use_t: bool = True) -> HeckeWord:
    """Random short word in the size-n algebra (deterministic given rng)."""
    kinds = ["g", "ginv"] + (["t", "tprime"] if use_t else [])
    letters = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(kinds)
        if kind == "t":
            letters.append(T_LETTER)
        elif kind == "tprime":
            letters.append(tprime_letter(rng.randint(0, n - 1)))
        elif n >= 2:
            i = rng.randint(1, n - 1)
            letters.append(g_letter(i) if kind == "g" else ginv_letter(i))
    return word(letters, n)
