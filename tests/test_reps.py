import dataclasses
import random
import re

import pytest

from heckeweights.combinatorics import double_partitions, partitions
from heckeweights.homcheck import relations_report
from heckeweights.reps import REP_CACHE_SIZE, HeckeElement, T_LETTER, \
    U_LETTER, character, evaluate, expand_word, \
    full_twist_scalar, g_letter, ginv_letter, parse_word, random_word, \
    relation_residuals, skew_rep, tprime_letter, typeA_rep, typeB_rep, word
from heckeweights.scalars import ParameterPoint, Rat, identity, \
    is_zero_matrix, specialized_point, to_rat
from heckeweights.traces import plain_point, trace_table
from helpers import coset_representatives, mat_eq


def test_word_validation():
    word((g_letter(2), T_LETTER), 3)
    with pytest.raises(ValueError):
        word((g_letter(3),), 3)
    with pytest.raises(ValueError):
        word((tprime_letter(3),), 3)
    with pytest.raises(ValueError):
        word((("x", 1),), 3)
    for letter in (("t", 1), ("u", 2)):
        with pytest.raises(ValueError, match="takes index 0"):
            word((letter,), 3)
    word((U_LETTER,), 2)
    with pytest.raises(ValueError, match="u = t g1 t needs n >= 2"):
        word((U_LETTER,), 1)
    with pytest.raises(ValueError):
        word((), 0)


def test_parse_word():
    w = parse_word("t g1 G2 t'0 t'2", 3)
    assert w.letters == (T_LETTER, g_letter(1), ginv_letter(2),
                         tprime_letter(0), tprime_letter(2))
    assert str(w) == "t g1 G2 t'0 t'2"
    assert parse_word("", 2).letters == ()
    for bad in ("h1", "g", "t'x", "g1g2"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(bad, 3)


def test_typeA_relations(points):
    report = relations_report("typeA", points, range(1, 5))
    assert report.passed, report.failure


def test_typeB_relations(points):
    report = relations_report("typeB", points, range(1, 4))
    assert report.passed, report.failure


def test_skew_relations():
    pts = [plain_point(q) for q in (Rat(2), Rat(1, 2), Rat(3, 2))]
    report = relations_report("skew", pts, range(1, 3))
    assert report.passed, report.failure


def test_relation_residuals_catch_corruption(point):
    rep = typeB_rep(((1,), (1,)), point)
    num, den = rep.letter_matrix(g_letter(1))
    g = num.copy()
    g[0, 0] = g[0, 0] + den
    broken = dataclasses.replace(rep, letters={**rep.letters,
                                               g_letter(1): (g, den)})
    assert not all(is_zero_matrix(m) for m, _ in relation_residuals(broken))


def test_worked_example_matrices(point):
    # shape ([1],[1]) at q=2, Q=5: t = diag(Q, -1), g_1 has trace q-1 = 1
    # and determinant -q = -2
    rep = typeB_rep(((1,), (1,)), point)
    assert rep.dimension == 2
    t = to_rat(*rep.letter_matrix(T_LETTER))
    assert t[0, 0] == 5 and t[1, 1] == -1 and t[0, 1] == 0 and t[1, 0] == 0
    g = to_rat(*rep.letter_matrix(g_letter(1)))
    assert g[0, 0] + g[1, 1] == 1
    assert g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] == -2


def test_dimension_sum(points):
    p = points[0]
    import math
    for n in range(1, 5):
        total = sum(typeB_rep(shape, p).dimension ** 2
                    for shape in double_partitions(n))
        assert total == 2**n * math.factorial(n)


def test_ginv_is_inverse(points):
    # G_i inverts g_i; every letter, and every random word, evaluates to the
    # same matrix as its reference rewrite over {t, g}
    n = 3
    letters = [T_LETTER, U_LETTER] \
        + [g_letter(i) for i in range(1, n)] \
        + [ginv_letter(i) for i in range(1, n)] \
        + [tprime_letter(i) for i in range(n)]
    rng = random.Random(17)
    for p in points:
        words = [word((letter,), n) for letter in letters] \
            + [random_word(n, rng) for _ in range(10)]
        for shape in double_partitions(n):
            rep = typeB_rep(shape, p)
            for i in range(1, n):
                gg = evaluate(rep, word((g_letter(i), ginv_letter(i)), n))
                assert mat_eq(to_rat(*gg), identity(rep.dimension))
            for w in words:
                assert mat_eq(to_rat(*evaluate(rep, w)),
                              to_rat(*evaluate(rep, expand_word(w, p)))), \
                    (shape, w.letters)


def test_tprime_family(points):
    # t'_i is a conjugate of t: it satisfies the same quadratic relation,
    # and the cached matrix equals the literal conjugation product
    for p in points:
        for n in range(1, 4):
            for shape in double_partitions(n):
                rep = typeB_rep(shape, p)
                d = rep.dimension
                mats = [to_rat(*rep.letter_matrix(tprime_letter(i)))
                        for i in range(n)]
                for i, m in enumerate(mats):
                    assert mat_eq(m.dot(m), m * (p.Q - 1) + identity(d) * p.Q)
                    chain = tuple(g_letter(j) for j in range(i, 0, -1)) \
                        + (T_LETTER,) \
                        + tuple(ginv_letter(j) for j in range(1, i + 1))
                    direct = to_rat(*evaluate(rep,
                                              expand_word(word(chain, n), p)))
                    assert mat_eq(m, direct)


def test_tprime_zero_is_t(points):
    p = points[0]
    rep = typeB_rep(((1,), (1,)), p)
    assert mat_eq(to_rat(*rep.letter_matrix(tprime_letter(0))),
                  to_rat(*rep.letter_matrix(T_LETTER)))


def test_u_letter_is_t_g1_t(points):
    # the type-D generator u is the letter for t g_1 t, also inside a
    # weighted element
    for p in points:
        for shape in double_partitions(2):
            rep = typeB_rep(shape, p)
            tg1t = to_rat(*evaluate(rep, word((T_LETTER, g_letter(1),
                                                T_LETTER), 2)))
            assert mat_eq(to_rat(*evaluate(rep, word((U_LETTER,), 2))), tg1t)
            e = HeckeElement({word((U_LETTER, g_letter(1)), 2): Rat(3)}, 2)
            assert mat_eq(to_rat(*evaluate(rep, e)),
                          tg1t.dot(to_rat(*rep.letter_matrix(g_letter(1))))
                          * 3)


def test_coset_representatives_shape():
    for n in (1, 2, 3, 4):
        reps = coset_representatives(n)
        assert len(reps) == 2 * n
        assert len({r.letters for r in reps}) == 2 * n
        assert reps[0].letters == ()


def _rref_rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [e / lead for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_coset_products_span(points):
    # products d_1 d_2 with d_k a level-k coset representative give a basis
    # of the size-2 algebra: 8 elements, linearly independent in the sum of
    # all irreducible representations
    p = points[0]
    n = 2
    level1 = [w.letters for w in coset_representatives(1)]
    level2 = [w.letters for w in coset_representatives(2)]
    reps = [typeB_rep(shape, p) for shape in double_partitions(n)]
    vectors = []
    for l1 in level1:
        for l2 in level2:
            w = word(l1 + l2, n)
            vec = []
            for rep in reps:
                m = to_rat(*evaluate(rep, expand_word(w, p)))
                vec.extend(m.flat)
            vectors.append(vec)
    assert len(vectors) == 8
    assert _rref_rank(vectors) == 8


def test_skew_matches_generic_matrices():
    # at Q = -q^(r1+m) the skew realization reproduces the generic matrices
    # entry by entry (same canonical basis order)
    for q in (Rat(2), Rat(3, 2)):
        for n in (1, 2):
            m = r1 = 3
            p = specialized_point(q, m, r1)
            for shape in double_partitions(n):
                a = skew_rep(shape, m, r1, q)
                b = typeB_rep(shape, p)
                assert a.size == b.size == n
                assert a.dimension == b.dimension
                for letter in [T_LETTER] + [g_letter(i) for i in range(1, n)]:
                    assert mat_eq(to_rat(*a.letter_matrix(letter)),
                                  to_rat(*b.letter_matrix(letter))), \
                        (q, shape, letter)


def test_skew_rep_validation():
    with pytest.raises(ValueError):
        skew_rep(((1, 1), ()), 2, 2, Rat(2))


def test_full_twist_scalar_values():
    q = Rat(2)
    assert full_twist_scalar((1,), q) == 1
    assert full_twist_scalar((2,), q) == q**2
    assert full_twist_scalar((1, 1), q) == 1
    assert full_twist_scalar((2, 1), q) == q**3
    with pytest.raises(ValueError):
        full_twist_scalar((), q)


def test_full_twist_direct_evaluation(points):
    # (g_{f-1} ... g_1)^f acts on the irreducible module of nu as the scalar
    p = points[0]
    for f in range(1, 5):
        for nu in partitions(f):
            rep = typeA_rep(nu, p)
            cycle = tuple(g_letter(j) for j in range(f - 1, 0, -1))
            m = to_rat(*evaluate(rep, word(cycle * f, f)))
            expected = identity(rep.dimension) * full_twist_scalar(nu, p.q)
            assert mat_eq(m, expected)


def test_character_conjugation_invariance(points):
    p = points[0]
    rng = random.Random(5)
    rep = typeB_rep(((2,), (1,)), p)
    for _ in range(10):
        w = random_word(3, rng)
        for i in (1, 2):
            conj = word((g_letter(i),) + w.letters + (ginv_letter(i),), 3)
            assert character(rep, expand_word(conj, p)) \
                == character(rep, expand_word(w, p))


def test_cached_matrices_read_only(points):
    rep = typeB_rep(((1,), (1,)), points[0])
    for letter in (g_letter(1), T_LETTER, ginv_letter(1), tprime_letter(1),
                   U_LETTER):
        num, _ = evaluate(rep, word((letter,), 2))
        with pytest.raises(ValueError):
            num[0, 0] = 7
    assert evaluate(rep, word((g_letter(1),), 2))[0] \
        is rep.letter_matrix(g_letter(1))[0]


def test_letters_out_of_range(point):
    # every letter a store cannot build is a ValueError naming the letter,
    # in one module and in a stack of several, and nothing is cached for it;
    # type A keeps its own message for t
    n = 3
    groups, _ = trace_table(n, 4, 4, point)
    stack = max((s for _, s in groups), key=lambda s: len(s.shapes))
    assert len(stack.shapes) > 1
    for store in (typeB_rep(((2,), (1,)), point), stack):
        for letter in (("g", 0), ("g", -1), ("g", n), ("ginv", 0),
                       ("ginv", -1), ("ginv", n), ("tprime", -1),
                       ("tprime", n), ("t", 1), ("u", 1), ("x", 1)):
            with pytest.raises(ValueError, match=re.escape(repr(letter))):
                store.letter_matrix(letter)
            assert letter not in store.letters
    with pytest.raises(ValueError, match=re.escape(repr(U_LETTER))):
        typeB_rep(((1,), ()), point).letter_matrix(U_LETTER)
    for letter in (T_LETTER, tprime_letter(0), U_LETTER):
        with pytest.raises(ValueError, match="has no t generator"):
            typeA_rep((2, 1), point).letter_matrix(letter)


def test_evaluate_size_check(points):
    p = points[0]
    rep = typeB_rep(((1,), (1,)), p)
    with pytest.raises(ValueError):
        evaluate(rep, word((g_letter(2),), 3))


def fraction_letter(rep, letter):
    """A letter's matrix in Rat arithmetic, entry by entry from the
    generators: G_i = g_i / q + (1/q - 1), t'_i = g_i t'_{i-1} G_i,
    u = t g_1 t.  The reference for the integer letter matrices."""
    kind, i = letter
    q = rep.point.q
    if kind == "g":
        return to_rat(*rep.letter_matrix(letter))
    if kind == "ginv":
        return fraction_letter(rep, g_letter(i)) * (1 / q) \
            + identity(rep.dimension) * (1 / q - 1)
    t = to_rat(*rep.letter_matrix(T_LETTER))
    if kind == "u":
        return t.dot(fraction_letter(rep, g_letter(1))).dot(t)
    m = t  # t = t'_0
    for j in range(1, i + 1):
        m = fraction_letter(rep, g_letter(j)).dot(m) \
            .dot(fraction_letter(rep, ginv_letter(j)))
    return m


def fraction_product(rep, w):
    """The product of a word's letter matrices in Rat arithmetic."""
    m = identity(rep.dimension)
    for letter in w.letters:
        m = m.dot(fraction_letter(rep, letter))
    return m


def test_integer_product_matches_fraction_product():
    # evaluate's integer product over one denominator equals the Rat product
    # on every shape of size <= 4, at 3-digit points (two with Q < 0), on
    # random words with G_i, t'_i and u
    rng = random.Random(29)
    pts = [ParameterPoint(Rat(347, 512), Rat(-613, 229), 10),
           ParameterPoint(Rat(911, 127), Rat(389, 754), 10),
           ParameterPoint(Rat(128, 311), Rat(-7, 205), 10)]
    cases = 0
    for p in pts:
        for n in range(1, 5):
            reps = [(typeB_rep(shape, p), True)
                    for shape in double_partitions(n)] \
                + [(typeA_rep(mu, p), False) for mu in partitions(n)]
            for rep, use_t in reps:
                for _ in range(6):
                    letters = random_word(n, rng, max_len=8,
                                          use_t=use_t).letters
                    if use_t and n >= 2:
                        k = rng.randint(0, len(letters))
                        letters = letters[:k] + (U_LETTER,) + letters[k:]
                    w = word(letters, n)
                    assert mat_eq(to_rat(*evaluate(rep, w)),
                                  fraction_product(rep, w)), (p, str(w))
                    cases += 1
    assert cases == 3 * 6 * (37 + 1 + 2 + 3 + 5)


def test_character_of_empty_word_is_dimension(points):
    for n in range(1, 5):
        for shape in double_partitions(n):
            rep = typeB_rep(shape, points[0])
            assert character(rep, word((), n)) == rep.dimension


def test_rep_caches_are_bounded():
    # more distinct points than the caches hold: none keeps more than its
    # maxsize entries
    for k in range(REP_CACHE_SIZE + 5):
        q = Rat(k + 2, k + 3)
        p = plain_point(q)
        typeA_rep((1,), p)
        typeB_rep(((1,), ()), p)
        skew_rep(((1,), ()), 2, 2, q)
    for cached in (typeA_rep, typeB_rep, skew_rep):
        info = cached.cache_info()
        assert info.maxsize == REP_CACHE_SIZE
        assert info.currsize <= info.maxsize
