"""The catalogue of exact checks: one function per identity of the paper.

Each check takes sizes, row bounds, points (or q's) and, if it samples
words, a seed; it draws its own words, products and rectangles, and returns
a ``Report``: name, paper reference, the number of cases compared and the
first failure, which names the shape or word, the point and both exact
values as ``p/q``.  ``heckeweights verify --suite all`` runs every check
here, and the acceptance gate in ``tests/test_acceptance.py`` runs the same
functions at larger sizes.  Most checks are written as generators of
(lhs, rhs, describe) cases and turned into report-returning functions by
``identity``.  ``relations_report`` checks ``reps.relations`` on the
type-B modules, one stack per dimension (``reps.stacks``), which covers
every two-sided multiple of a relation at once: type B at p and at
Q = -q^(r1+m), and (D1)-(D5) at Q = 1.  ``character_match_report`` checks
Theorem 3.3 on the generators: at Q = -q^(r1+m) the skew and generic
modules have equal matrices of t and every g_i, so equal characters on
every element, and the relations hold on the skew modules there.
tr(ab) = tr(ba) has no check: a trace is taken of the exact product of
letter matrices, and AB and BA have equal traces.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .combinatorics import dimension, double_partitions, embed_double, \
    one_box_more, one_box_successors, pad, partitions, shape_str
from .reps import T_LETTER, full_twist_exponent, g_letter, random_word, \
    relation_residuals, relation_str, relations, skew_rep, stacks, \
    tprime_letter, typeB_rep, word
from .scalars import Rat, is_zero_matrix, specialized_point
from .schur import rectangle_schur, schur_normalized, schur_principal
from .traces import markov_params, markov_trace_B, q1_point, weight_B, \
    weight_B_schur_form, weight_D, weight_table


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
    """A value as p/q text; a list as its members' texts."""
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
    # family: (paper reference, relations' type, the point of size k at a
    # point p); each checks the type-B modules, type A's among them as
    # those of (mu, ())
    "typeB": ("Section 2 (H1)-(H6)", "B", lambda p, k: p),
    # at Q = -q^(r1+m) the skew modules have the generic modules' generators
    # (Theorem 3.3, character_match_report), so these stand for them
    "skew": ("Lemma 3.2", "B",
             lambda p, k: specialized_point(p.q, k + 1, k + 1)),
    # H(D_n) is the subalgebra of H(B_n) at Q = 1 generated by the g_i and
    # u = t g_1 t, so every type-B module at Q = 1 is a module of it
    "typeD": ("Section 6 (D1)-(D5)", "D", lambda p, k: q1_point(p.q)),
}


def relations_report(family: str, points, sizes, name=None) -> Report:
    """Every defining relation holds in every type-B module of the given
    sizes at the family's point: p ("typeB"), Q = -q^(r1+m) with m = r1 =
    size + 1 ("skew") or Q = 1 for (D1)-(D5) ("typeD"); one case a module,
    and a size with no relation counts none.  Each relation is checked once
    per ``reps.stacks`` stack, and its modules only when the stack fails."""
    paper_ref, kind, point_of = _RELATION_FAMILIES[family]
    report = Report(name or f"relations-{family}", paper_ref)
    for p in points:
        for k in sizes:
            rels = relations(k, kind)
            if not rels:
                continue
            shapes, point = double_partitions(k), point_of(p, k)
            bad = {}  # a module's first failing relation
            for rep in stacks(shapes, k, point):
                for rel, (num, _) in zip(rels, relation_residuals(rep, kind)):
                    if is_zero_matrix(num):
                        continue
                    for s, m in zip(rep.shapes, num):
                        if not is_zero_matrix(m):
                            bad.setdefault(s, rel)
            for s in shapes:
                report.check(s not in bad, lambda: (
                    f"{family} module {s} at {point}: relation "
                    f"{relation_str(bad[s])} fails"))
    return report


# -- traces ------------------------------------------------------------------

def _last_letter(n, r1, r2, points, seed, words, kind, make, i, c_name):
    """tr(h x) = c tr(h) at each point for ``words`` random type-``kind``
    words h of size n - 1, drawn from ``random.Random(seed)`` point by point,
    each distinct h once and none at n = 1: x = make(n - 1) and c is entry i
    of ``markov_params``, (z, y)."""
    rng = random.Random(seed)
    x = make(n - 1)
    for p in points if n >= 2 else ():
        c = markov_params(r1, r2, p)[i]
        for h in dict.fromkeys(random_word(n - 1, rng, kind=kind)
                               for _ in range(words)):
            yield (markov_trace_B(word(h.letters + (x,)), n, r1, r2, p),
                   c * markov_trace_B(h, n - 1, r1, r2, p),
                   lambda: f"tr({h} {word((x,))}) = {c_name} tr({h}) "
                           f"at {p}")


@identity("Section 4 definition; Lemma 5.2")
def markov_property(n, r1, r2, points, seed, words=5):
    """tr(h g_{n-1}) = z tr(h) for random words h of size n - 1."""
    return _last_letter(n, r1, r2, points, seed, words, "B", g_letter, 0, "z")


@identity("Prop 4.1")
def tprime_property(n, r1, r2, points, seed, words=5):
    """tr(h t'_{n-1}) = y tr(h) for random words h of size n - 1."""
    return _last_letter(n, r1, r2, points, seed, words, "B", tprime_letter, 1,
                        "y")


def _double_coset_products(n):
    """All products d_1 ... d_n with d_i in {1, g_{i-1}, t'_{i-1}}."""
    out = [()]
    for i in range(1, n + 1):
        choices = [()] + ([(g_letter(i - 1),)] if i >= 2 else []) \
            + [(tprime_letter(i - 1),)]
        out = [letters + c for letters in out for c in choices]
    return [word(letters) for letters in out]


@identity("Section 4; Lemma 5.4")
def double_coset_reduction(n, r1, r2, points):
    """tr(d_1 ... d_n) = z^a y^b for every d_i in {1, g_{i-1}, t'_{i-1}}, a and
    b the word's g and t' letters; t'_0 ... t'_{k-1} is Lemma 5.4's y^k."""
    words = _double_coset_products(n)
    for p in points:
        z, y = markov_params(r1, r2, p)
        for w in words:
            a = sum(kind == "g" for kind, _ in w.letters)
            b = sum(kind == "tprime" for kind, _ in w.letters)
            yield (markov_trace_B(w, n, r1, r2, p), z**a * y**b,
                   lambda: f"tr({w}) = z^{a} y^{b} at {p}")


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
def rectangle_closed_form(qs):
    """rectangle_schur(m, r1, r2) is the normalized Schur value of [m^r1]
    in r1 + r2 variables, for m, r1 in 1..3 and r2 in 0..2."""
    for q in qs:
        for m, r1, r2 in itertools.product(range(1, 4), range(1, 4), range(3)):
            yield (rectangle_schur(m, r1, r2, q),
                   schur_normalized((m,) * r1, r1 + r2, q),
                   lambda: f"closed form of [{m}^{r1}] with r2 = {r2} at "
                           f"q = {q}")


@identity("Eq. (4)")
def schur_factorization(n, m, r1, r2s, qs):
    """The normalized Schur value of the glued diagram factors into
    q^e ((1 - q) / (1 - q^r))^|mu| s_alpha s_beta times a cross product over
    r1 x r2 rows, built in integers with q = a/b, 1 - q^k = (b^k - a^k) / b^k,
    and one Rat (s_beta = 0 when beta has more than r2 rows)."""
    for q in qs:
        a, b = q.numerator, q.denominator
        principal = {(lam, rows): schur_principal(lam, rows, q)
                     for rows in {r1, *r2s}
                     for k in range(n + 1) for lam in partitions(k)}
        for r2 in r2s:
            r = r1 + r2
            for shape in double_partitions(n):
                (alpha, beta), mu = shape, embed_double(shape, m, r1)
                s_alpha, s_beta = principal[alpha, r1], principal[beta, r2]
                e, size = m * r1 * (r1 - 1) // 2 + r1 * sum(beta), sum(mu)
                num = a ** e * ((b - a) * b ** (r - 1)) ** size \
                    * s_alpha.numerator * s_beta.numerator
                den = b ** e * (b ** r - a ** r) ** size \
                    * s_alpha.denominator * s_beta.denominator
                for i, p in enumerate(pad(alpha, r1)):
                    for j, s in enumerate(pad(beta[:r2], r2)):
                        k, l = m + r1 + p - s + j - i, r1 + j - i
                        num *= (b ** k - a ** k) * b ** l
                        den *= (b ** l - a ** l) * b ** k
                yield (schur_normalized(mu, r, q), Rat(num, den),
                       lambda: f"glued Schur value = factored form for "
                               f"{shape_str(shape)}, r2 = {r2} at q = {q}")


@identity("Lemma 5.1 proof")
def pieri(qs, rs, sizes):
    """A normalized Schur value is the sum over one-box successors."""
    for q in qs:
        for r in rs:
            for k in sizes:
                for mu in partitions(k):
                    yield (schur_normalized(mu, r, q),
                           sum(schur_normalized(nu, r, q)
                               for nu in one_box_more(mu)),
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
    """The full twists of beta = [m+1, m^(r1-1)] and gamma = [m^r1, 1], the
    two one-box extensions of the rectangle, act by scalars of ratio
    q^(r1+m): t acts on the skew modules by -q^(r1+m) = Q and by -1."""
    if m < 2 or r1 < 2:
        raise ValueError("need m >= 2 and r1 >= 2")
    e = full_twist_exponent((m + 1,) + (m,) * (r1 - 1)) \
        - full_twist_exponent((m,) * r1 + (1,))
    for q in map(Rat, qs):
        yield (-(q ** e), -(q ** (r1 + m)),
               lambda: f"full-twist ratio at q = {q}")


def _first_difference(a, b) -> str | None:
    """None when the matrices (num, den) a and b are equal, else both
    dimensions or the first entry at which they differ with both values."""
    (na, da), (nb, db) = a, b
    if na.shape != nb.shape:
        return f"dimension {len(na)} != {len(nb)}"
    rows, cols = (na * db != nb * da).nonzero()
    if not len(rows):
        return None
    i, j = rows[0], cols[0]
    return f"entry ({i}, {j}): {Rat(na[i, j], da)} != {Rat(nb[i, j], db)}"


def character_match_report(n: int, m: int, r1: int, qs,
                           name="character-match-report") -> Report:
    """At Q = -q^(r1+m) the skew realization of every shape of size n has
    the generic module's matrices of t and of every g_i, entry for entry in
    the same tableau basis.  Equal generators give equal matrices, so equal
    characters, on every element of the algebra."""
    report = Report(name, "Theorem 3.3")
    letters = [T_LETTER] + [g_letter(i) for i in range(1, n)]
    for q in map(Rat, qs):
        point = specialized_point(q, m, r1)
        for shape in double_partitions(n):
            skew, generic = skew_rep(shape, m, r1, q), typeB_rep(shape, point)
            for letter in letters:
                diff = _first_difference(skew.letter_matrix(letter),
                                         generic.letter_matrix(letter))
                report.check(diff is None, lambda: (
                    f"skew = generic {word((letter,))} on "
                    f"{shape_str(shape)} at {point}: {diff}"))
    return report


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
    weight(alpha, alpha).  One case a class, so a missing row fails."""
    for q in qs:
        point1 = q1_point(q)
        rows, seen = weight_D(n, r1, r2, point1), set()
        for shape in double_partitions(n):
            alpha, beta = shape
            if (beta, alpha) in seen:
                continue
            seen.add(shape)
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
def typeD_markov_property(n, r1, r2, qs, seed, words=5):
    """tr_D(h g_{n-1}) = z tr_D(h) for random type-D words h of size n - 1."""
    return _last_letter(n, r1, r2, [q1_point(q) for q in qs], seed, words,
                        "D", g_letter, 0, "z")
