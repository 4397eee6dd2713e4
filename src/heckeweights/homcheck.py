"""The catalogue of exact checks: one function per identity of the paper.

Each check takes its cases from the caller (sizes, points, words, row
bounds) and returns a ``Report``: name, paper reference, the number of cases
compared and the first failure, which names the shape or word, the point and
both exact values as ``p/q``.  ``heckeweights verify --suite all`` runs
every check here, and the acceptance gate in ``tests/test_acceptance.py``
runs the same functions at larger sizes.  Most checks are written as
generators of (lhs, rhs, describe) cases and turned into report-returning
functions by ``identity``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .combinatorics import dimension, double_partitions, embed_double, \
    one_box_successors, partitions, shape_str, trim
from .reps import T_LETTER, character, full_twist_scalar, g_letter, \
    parse_word, random_word, relation_residuals, skew_rep, tprime_letter, \
    typeA_rep, typeB_rep, word
from .scalars import Rat, is_zero_matrix, specialized_point, to_rat
from .schur import rectangle_schur, schur_normalized, schur_principal
from .traces import markov_params, markov_trace_B, markov_trace_D, q1_point, \
    weight_B, weight_B_schur_form, weight_D, weight_table


@dataclass
class Report:
    name: str
    paper_ref: str = ""
    cases: int = 0
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def check(self, ok: bool, message):
        """Count one compared case.  ``message`` is a callable; it is called
        only for the first failure, so passing cases format nothing."""
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = message()


def _show(value) -> str:
    """A value as p/q text; a list or set as its members' texts."""
    if isinstance(value, set):
        value = sorted(value)
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


def identity(paper_ref: str):
    """Turn a generator of cases (lhs, rhs, describe) into a check that
    compares lhs == rhs exactly and returns a Report, named after the
    generator unless the caller passes ``name``."""
    def make(cases):
        default = cases.__name__.replace("_", "-")

        @functools.wraps(cases)
        def check(*args, name=default, **kwargs) -> Report:
            report = Report(name, paper_ref)
            for lhs, rhs, describe in cases(*args, **kwargs):
                report.check(lhs == rhs, lambda: (
                    f"{describe()}: {_show(lhs)} != {_show(rhs)}"))
            return report
        return check
    return make


# -- representations ---------------------------------------------------------

_RELATION_FAMILIES = {
    "typeA": ("Section 2 (H1)-(H3)", partitions,
              lambda mu, k, p: typeA_rep(mu, p)),
    "typeB": ("Section 2 (H1)-(H6)", double_partitions,
              lambda shape, k, p: typeB_rep(shape, p)),
    "skew": ("Lemma 3.2", double_partitions,
             lambda shape, k, p: skew_rep(shape, k + 1, k + 1, p.q)),
}


def relations_report(family: str, points, sizes, name=None) -> Report:
    """Every defining relation holds in every representation of the family
    ("typeA", "typeB", or "skew" at m = r1 = size + 1) of the given sizes."""
    paper_ref, shapes_of, rep_of = _RELATION_FAMILIES[family]
    report = Report(name or f"relations-{family}", paper_ref)
    for p in points:
        for k in sizes:
            for shape in shapes_of(k):
                residuals = relation_residuals(rep_of(shape, k, p))
                bad = next((i for i, (num, _) in enumerate(residuals)
                            if not is_zero_matrix(num)), None)
                report.check(bad is None, lambda: (
                    f"{family} module {shape} at {p}: relation residual "
                    f"{bad} is nonzero"))
    return report


# -- traces ------------------------------------------------------------------

@identity("Section 4 definition; Lemma 5.2")
def markov_property(n, r1, r2, cases):
    """tr(h g_{n-1}) = z tr(h) for h in the size-(n-1) algebra; cases are
    (point, words h) pairs."""
    for p, hs in cases:
        z, _ = markov_params(r1, r2, p)
        for h in hs:
            yield (markov_trace_B(word(h.letters + (g_letter(n - 1),), n),
                                  n, r1, r2, p),
                   z * markov_trace_B(h, n - 1, r1, r2, p),
                   lambda: f"tr({h} g{n - 1}) = z tr({h}) at {p}")


@identity("Prop 4.1")
def tprime_property(n, r1, r2, cases):
    """tr(h t'_{n-1}) = y tr(h) for h in the size-(n-1) algebra; cases are
    (point, words h) pairs."""
    for p, hs in cases:
        _, y = markov_params(r1, r2, p)
        for h in hs:
            yield (markov_trace_B(word(h.letters + (tprime_letter(n - 1),), n),
                                  n, r1, r2, p),
                   y * markov_trace_B(h, n - 1, r1, r2, p),
                   lambda: f"tr({h} t'{n - 1}) = y tr({h}) at {p}")


@identity("Lemma 5.4")
def tprime_powers(n, r1, r2, points, ks):
    """tr(t'_0 t'_1 ... t'_{k-1}) = y^k."""
    for p in points:
        _, y = markov_params(r1, r2, p)
        for k in ks:
            w = word(tuple(tprime_letter(j) for j in range(k)), n)
            yield (markov_trace_B(w, n, r1, r2, p), y**k,
                   lambda: f"tr({w}) = y^{k} at {p}")


@identity("Section 4")
def double_coset_reduction(n, r1, r2, points, words):
    """tr(d_1 ... d_n) = z^a y^b for d_i in {1, g_{i-1}, t'_{i-1}}, where a
    and b count the g and t' letters of the word."""
    for p in points:
        z, y = markov_params(r1, r2, p)
        for w in words:
            a = sum(kind == "g" for kind, _ in w.letters)
            b = sum(kind == "tprime" for kind, _ in w.letters)
            yield (markov_trace_B(w, n, r1, r2, p), z**a * y**b,
                   lambda: f"tr({w}) = z^{a} y^{b} at {p}")


@identity("Section 4 definition")
def trace_symmetry(n, r1, r2, cases):
    """tr(ab) = tr(ba); cases are (point, word pairs (a, b)) pairs."""
    for p, pairs in cases:
        for a, b in pairs:
            ab = word(a.letters + b.letters, n)
            ba = word(b.letters + a.letters, n)
            yield (markov_trace_B(ab, n, r1, r2, p),
                   markov_trace_B(ba, n, r1, r2, p),
                   lambda: f"tr({ab}) = tr({ba}) at {p}")


# -- weights -----------------------------------------------------------------

@identity("Lemma 5.1")
def weight_branching(r1, r2, points, sizes):
    """The weight of a shape is the sum of the weights of its one-box
    successors."""
    for p in points:
        for k in sizes:
            for shape in double_partitions(k):
                succ = one_box_successors(shape)
                yield (weight_B(shape, r1, r2, p),
                       sum(weight_B(s, r1, r2, p) for s in succ),
                       lambda: f"weight of {shape_str(shape)} = sum over its "
                               f"successors {', '.join(map(shape_str, succ))}"
                               f" at {p}")


@identity("Eq. (9)")
def weight_normalization(n, r1, r2, points):
    """The weights of the shapes of size n, times dimensions, sum to 1."""
    for p in points:
        weights = weight_table(n, r1, r2, p)
        yield (sum(w * dimension(s) for s, w in weights.items()), 1,
               lambda: f"sum of weight * dimension over size {n} at {p}")


@identity("Eq. (10) = Eq. (11)")
def weight_two_forms(r1, r2, points, sizes):
    """The product form of the weight equals its Schur form."""
    for p in points:
        for k in sizes:
            for shape in double_partitions(k):
                yield (weight_B(shape, r1, r2, p),
                       weight_B_schur_form(shape, r1, r2, p),
                       lambda: f"product form = Schur form of the weight of "
                               f"{shape_str(shape)} at {p}")


# -- Schur values ------------------------------------------------------------

@identity("Section 5 rectangle display")
def rectangle_closed_form(qs, rectangles):
    """rectangle_schur(m, r1, r2) is the normalized Schur value of [m^r1]
    in r1 + r2 variables; rectangles are (m, r1, r2) triples."""
    for q in qs:
        for m, r1, r2 in rectangles:
            yield (rectangle_schur(m, r1, r2, q),
                   schur_normalized((m,) * r1, r1 + r2, q),
                   lambda: f"closed form of [{m}^{r1}] with r2 = {r2} at "
                           f"q = {q}")


@identity("Eq. (4)")
def schur_factorization(n, m, r1, r2s, qs):
    """The normalized Schur value of the glued diagram factors into the
    Schur values of alpha and beta times a cross product."""
    for q in qs:
        for r2 in r2s:
            r = r1 + r2
            for shape in double_partitions(n):
                mu = embed_double(shape, m, r1)
                alpha, beta = shape
                rhs = q ** (m * r1 * (r1 - 1) // 2 + r1 * sum(beta)) \
                    * ((1 - q) / (1 - q**r)) ** sum(mu) \
                    * schur_principal(alpha, r1, q) \
                    * schur_principal(beta, r2, q)
                for i in range(1, r1 + 1):
                    for j in range(1, r2 + 1):
                        a_i = alpha[i - 1] if i <= len(alpha) else 0
                        b_j = beta[j - 1] if j <= len(beta) else 0
                        rhs *= (1 - q ** (m + r1 + a_i - b_j + j - i)) \
                            / (1 - q ** (r1 + j - i))
                yield (schur_normalized(mu, r, q), rhs,
                       lambda: f"glued Schur value = factored form for "
                               f"{shape_str(shape)}, r2 = {r2} at q = {q}")


@identity("Lemma 5.1 proof")
def pieri(qs, rs, sizes):
    """A normalized Schur value is the sum over one-box successors."""
    for q in qs:
        for r in rs:
            for k in sizes:
                for mu in partitions(k):
                    succ = {trim(s[0]) for s in one_box_successors((mu, ()))
                            if s[1] == ()}
                    yield (schur_normalized(mu, r, q),
                           sum(schur_normalized(nu, r, q) for nu in succ),
                           lambda: f"Schur value of {mu} = sum over its "
                                   f"successors, r = {r} at q = {q}")


@identity("Section 5 (Wenzl weights)")
def typeA_normalization(qs, cases):
    """Normalized Schur values times dimensions, over the partitions of n
    with at most r rows, sum to 1; cases are (n, r) pairs."""
    for q in qs:
        for n, r in cases:
            yield (sum(schur_normalized(mu, r, q) * dimension((mu, ()))
                       for mu in partitions(n) if len(mu) <= r), 1,
                   lambda: f"sum of weight * dimension over size {n}, r = "
                           f"{r} at q = {q}")


# -- the skew/type-B equivalence ---------------------------------------------

@identity("Lemma 3.2")
def rho_eigenvalue_report(m: int, r1: int, qs):
    """For n = 1, t acts on the two skew modules exactly by -q^(r1+m) and
    -1, which is the full-twist ratio."""
    if m < 2 or r1 < 2:
        raise ValueError("need m >= 2 and r1 >= 2")
    gamma = (m,) * r1 + (1,)
    beta = (m + 1,) + (m,) * (r1 - 1)
    for q in map(Rat, qs):
        yield (-full_twist_scalar(beta, q) / full_twist_scalar(gamma, q),
               -(q ** (r1 + m)), lambda: f"full-twist ratio at q = {q}")
        for shape, expected in ((((1,), ()), -(q ** (r1 + m))),
                                (((), (1,)), Rat(-1))):
            rep = skew_rep(shape, m, r1, q)
            t = to_rat(*rep.letter_matrix(T_LETTER))
            yield ({t[i, i] for i in range(rep.dimension)},
                   {expected},
                   lambda: f"t-spectrum on {shape_str(shape)} at q = {q}")


def _sample_words(n: int, samples: int, seed: int) -> list:
    """Deterministic word sample: identity, t, each generator, then random
    short words."""
    rng = random.Random(seed)
    words = [word((), n), word((T_LETTER,), n)]
    words += [word((g_letter(i),), n) for i in range(1, n)]
    while len(words) < samples:
        words.append(random_word(n, rng))
    return words[:samples]


@identity("Theorem 3.3")
def character_match_report(n: int, m: int, r1: int, qs, samples: int = 20,
                           seed: int = 0):
    """Characters of skew and generic realizations agree shape by shape on
    sampled words, and the samples separate distinct shapes."""
    if not (m > n and r1 > n):
        raise ValueError(f"need m > n and r1 > n (got m={m}, r1={r1}, n={n})")
    words = _sample_words(n, samples, seed)
    shapes = double_partitions(n)
    for q in map(Rat, qs):
        point = specialized_point(q, m, r1)
        vectors = {}
        for shape in shapes:
            skew = skew_rep(shape, m, r1, q)
            generic = typeB_rep(shape, point)
            vectors[shape] = []
            for w in words:
                vectors[shape].append(character(skew, w))
                yield (vectors[shape][-1], character(generic, w),
                       lambda: f"skew = generic character of {w} on "
                               f"{shape_str(shape)} at {point}")
        for i, s1 in enumerate(shapes):
            for s2 in shapes[i + 1:]:
                yield (len({tuple(vectors[s1]), tuple(vectors[s2])}), 2,
                       lambda: f"distinct sampled characters of "
                               f"{shape_str(s1)} and {shape_str(s2)} at "
                               f"{point}")


@identity("Eq. (13)")
def weight_ratio_report(n: int, m: int, r1: int, r2s, qs):
    """Normalized Schur value of the glued diagram, divided by the rectangle
    value, equals the weight at Q = -q^(r1+m), for every shape."""
    if not (m > n and r1 > n):
        raise ValueError(f"need m > n and r1 > n (got m={m}, r1={r1}, n={n})")
    for q in map(Rat, qs):
        point = specialized_point(q, m, r1)
        for r2 in r2s:
            rect = rectangle_schur(m, r1, r2, q)
            for shape in double_partitions(n):
                mu = embed_double(shape, m, r1)
                yield (schur_normalized(mu, r1 + r2, q) / rect,
                       weight_B(shape, r1, r2, point),
                       lambda: f"Schur ratio = weight of {shape_str(shape)}, "
                               f"r2 = {r2} at {point}")


@identity("Lemma 3.2")
def skew_dimension_report(n: int, m: int, r1: int, q):
    """Skew module dimension bookkeeping: (n choose |alpha|) f^alpha f^beta."""
    for shape in double_partitions(n):
        yield (skew_rep(shape, m, r1, q).dimension, dimension(shape),
               lambda: f"dimension of the skew module {shape_str(shape)}")


# -- type D ------------------------------------------------------------------

@identity("Prop 6.1")
def typeD_inclusion_weights(n, r1, r2, qs):
    """At Q = 1 a merged component weighs weight(alpha, beta) +
    weight(beta, alpha); each split half of (alpha, alpha) weighs
    weight(alpha, alpha)."""
    for q in qs:
        point1 = q1_point(q)
        rows = weight_D(n, r1, r2, point1)
        for shape in double_partitions(n):
            alpha, beta = shape
            if alpha == beta:
                want = [weight_B(shape, r1, r2, point1)] * 2
            else:
                want = [weight_B(shape, r1, r2, point1)
                        + weight_B((beta, alpha), r1, r2, point1)]
            got = [w for s, _, w, _ in rows if s in (shape, (beta, alpha))]
            yield (got, want,
                   lambda: f"type-D weights of {shape_str(shape)} at q = {q}")


@identity("Prop 6.1; Eq. (9)")
def typeD_normalization(n, r1, r2, qs):
    """The type-D weights times their dimensions sum to 1, a split half of
    (alpha, alpha) having half the dimension of the shape."""
    for q in qs:
        yield (sum(w * d for _, _, w, d in weight_D(n, r1, r2, q1_point(q))),
               1, lambda: f"sum of type-D weight * dimension over size {n} "
                          f"at q = {q}, Q = 1")


@identity("Section 6 (Geck)")
def typeD_markov_property(n, r1, r2, cases):
    """tr_D(h g_{n-1}) = z tr_D(h) for type-D words h of size n-1; cases are
    (q, words h) pairs."""
    for q, hs in cases:
        z, _ = markov_params(r1, r2, q1_point(q))
        for h in hs:
            yield (markov_trace_D(word(h.letters + (g_letter(n - 1),), n),
                                  n, r1, r2, q),
                   z * markov_trace_D(h, n - 1, r1, r2, q),
                   lambda: f"tr({h} g{n - 1}) = z tr({h}) at q = {q}, Q = 1")


def _type_d_relations(n):
    """The relations (D1)-(D5) of the index-2 subalgebra as (lhs, rhs) letter
    tuples; rhs None marks the quadratic relation of the letter lhs[0]."""
    if n < 2:
        return []
    text = [f"g{i} g{i + 1} g{i} = g{i + 1} g{i} g{i + 1}"
            for i in range(1, n - 1)]
    text += [f"g{i} g{j} = g{j} g{i}" for i in range(1, n)
             for j in range(i + 2, n)]
    # u commutes with g_1 and with g_i for i >= 3, and braids with g_2
    text += ["u g1 = g1 u"] + [f"u g{i} = g{i} u" for i in range(3, n)]
    text += ["u g2 u = g2 u g2"] if n >= 3 else []
    pairs = [tuple(parse_word(side, n).letters for side in t.split("="))
             for t in text]
    return pairs + [(parse_word(x, n).letters, None) for x in ("g1 g1", "u u")]


@identity("Section 6 (D1)-(D5)")
def typeD_relations(n, r1, r2, cases):
    """Each relation of ``_type_d_relations`` as a trace identity on every
    two-sided multiple, tr(a lhs b) = tr(a rhs b) or, for x^2 = (q-1)x + q,
    tr(a x x b) = (q-1) tr(a x b) + q tr(a b); cases are (q, pairs (a, b))."""
    relations = _type_d_relations(n)
    for q, pairs in cases:
        def tr(*parts):
            return markov_trace_D(word(sum(parts, ()), n), n, r1, r2, q)

        for a, b in pairs:
            a, b = a.letters, b.letters
            for lhs, rhs in relations:
                if rhs is None:
                    right = (q - 1) * tr(a, lhs[:1], b) + q * tr(a, b)
                else:
                    right = tr(a, rhs, b)
                yield (tr(a, lhs, b), right, lambda: (
                    f"relation {word(lhs, n)} = " + (
                        str(word(rhs, n)) if rhs else
                        f"(q-1) {word(lhs[:1], n)} + q")
                    + f" between {word(a, n)} and {word(b, n)} at q = {q}, "
                      f"Q = 1"))
