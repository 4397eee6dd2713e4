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

Words use letters ("t", 0), ("g", i), ("ginv", i), ("tprime", i) and, for
the type-D front end, ("u", 0).  ``Representation.letter_matrix`` defines
what each letter means; ``evaluate`` multiplies a word's letter matrices.
``expand_word`` rewrites the same letters over {t, g} independently, as a
reference for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

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


def word(letters, n: int) -> HeckeWord:
    return HeckeWord(letters=tuple(letters), ambient_n=n)


@dataclass
class HeckeElement:
    """A finite linear combination of words; no zero coefficients stored."""

    terms: dict
    ambient_n: int

    def __post_init__(self):
        self.terms = {w: c for w, c in self.terms.items() if c != 0}

    @classmethod
    def from_word(cls, w: HeckeWord, coeff=1):
        return cls({w: Rat(coeff)}, w.ambient_n)

    def __add__(self, other):
        if self.ambient_n != other.ambient_n:
            raise ValueError("ambient sizes differ")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Rat(0)) + c
        return HeckeElement(terms, self.ambient_n)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Rat(c)
        return HeckeElement({w: c * v for w, v in self.terms.items()},
                            self.ambient_n)

    def __mul__(self, other):
        if self.ambient_n != other.ambient_n:
            raise ValueError("ambient sizes differ")
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word(w1.letters + w2.letters, self.ambient_n)
                terms[w] = terms.get(w, Rat(0)) + c1 * c2
        return HeckeElement(terms, self.ambient_n)


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
    """Shape-indexed family of generator matrices over exact rationals."""

    label: object
    dimension: int
    basis: list
    t_matrix: object
    g_matrices: list
    point: ParameterPoint
    _letter_cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.g_matrices) + 1

    def letter_matrix(self, letter):
        """Matrix of one letter: g_i and t are the generators; G_i, t'_i and
        u = t g_1 t are built from them once and cached."""
        kind, i = letter
        if kind == "g":
            return self.g_matrices[i - 1]
        if kind == "t":
            if self.t_matrix is None:
                raise ValueError("representation has no t generator")
            return self.t_matrix
        if letter in self._letter_cache:
            return self._letter_cache[letter]
        q = self.point.q
        if kind == "ginv":
            m = self.g_matrices[i - 1] * (1 / q) + identity(self.dimension) * (1 / q - 1)
        elif kind == "tprime":
            m = self.letter_matrix(T_LETTER)
            for j in range(1, i + 1):
                m = self.letter_matrix(g_letter(j)).dot(m) \
                    .dot(self.letter_matrix(ginv_letter(j)))
        elif kind == "u":
            t = self.letter_matrix(T_LETTER)
            m = t.dot(self.letter_matrix(g_letter(1))).dot(t)
        else:
            raise ValueError(f"unknown letter kind {kind!r}")
        self._letter_cache[letter] = m
        return m


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


def _build(label, shape, point, axial, t_eigenvalue):
    basis = standard_tableaux(shape)
    index = {t.boxes: s for s, t in enumerate(basis)}
    d = len(basis)
    n = sum(shape[0]) + sum(shape[1])
    g_matrices = [_seminormal_g(basis, index, i, axial, point.q)
                  for i in range(1, n)]
    t_matrix = None
    if t_eigenvalue is not None:
        t_matrix = zeros(d, d)
        for s, t in enumerate(basis):
            t_matrix[s, s] = t_eigenvalue(t)
    return Representation(label=label, dimension=d, basis=basis,
                          t_matrix=t_matrix, g_matrices=g_matrices,
                          point=point)


@lru_cache(maxsize=None)
def typeA_rep(mu, point: ParameterPoint) -> Representation:
    """Seminormal representation of the one-parameter algebra on standard
    tableaux of the partition mu."""
    mu = trim(mu)
    shape = (mu, ())
    return _build(mu, shape, point,
                  lambda t, i: axial_parameter(t, i, point), None)


@lru_cache(maxsize=None)
def typeB_rep(shape, point: ParameterPoint) -> Representation:
    """Seminormal representation indexed by a double partition; t acts
    diagonally by Q or -1 according to the component holding entry 1."""
    shape = (trim(shape[0]), trim(shape[1]))
    Q = point.Q

    def t_eig(t: DoubleTableau):
        return Q if t.boxes[0][0] == 0 else Rat(-1)

    return _build(shape, shape, point,
                  lambda t, i: axial_parameter(t, i, point), t_eig)


@lru_cache(maxsize=None)
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

    return _build((shape, m, r1), shape, point, axial, t_eig)


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


def evaluate(rep: Representation, element):
    """Matrix of a word or linear combination in the representation.

    A word is the product of its letter matrices, the identity if it is
    empty; an element is the coefficient-weighted sum over its words.  A
    one-letter word returns the representation's own letter matrix, so the
    result must not be modified in place.
    """
    if element.ambient_n > rep.size:
        raise ValueError(f"element lives in size {element.ambient_n}, "
                         f"representation in size {rep.size}")
    if isinstance(element, HeckeElement):
        total = zeros(rep.dimension, rep.dimension)
        for w, coeff in element.terms.items():
            total = total + evaluate(rep, w) * coeff
        return total
    if not element.letters:
        return identity(rep.dimension)
    first, *rest = element.letters
    m = rep.letter_matrix(first)
    for letter in rest:
        m = m.dot(rep.letter_matrix(letter))
    return m


def character(rep: Representation, element):
    """Trace of evaluate(rep, element)."""
    m = evaluate(rep, element)
    return sum(m[i, i] for i in range(rep.dimension))


def relation_residuals(rep: Representation) -> list:
    """Left-minus-right matrices for every defining relation that applies;
    all zero iff the generator matrices are a valid representation."""
    G = rep.g_matrices
    q = rep.point.q
    d = rep.dimension
    I = identity(d)
    res = []
    for i in range(len(G) - 1):
        res.append(G[i].dot(G[i + 1]).dot(G[i])
                   - G[i + 1].dot(G[i]).dot(G[i + 1]))
    for i in range(len(G)):
        for j in range(i + 2, len(G)):
            res.append(G[i].dot(G[j]) - G[j].dot(G[i]))
    for g in G:
        res.append(g.dot(g) - g * (q - 1) - I * q)
    if rep.t_matrix is not None:
        t = rep.t_matrix
        Q = rep.point.Q
        res.append(t.dot(t) - t * (Q - 1) - I * Q)
        if G:
            g1 = G[0]
            res.append(t.dot(g1).dot(t).dot(g1) - g1.dot(t).dot(g1).dot(t))
        for g in G[1:]:
            res.append(t.dot(g) - g.dot(t))
    return res


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
