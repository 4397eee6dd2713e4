import random

import pytest

from heckeweights.combinatorics import box_stat, double_partitions, partitions
from heckeweights.reps import HeckeElement, T_LETTER, U_LETTER, character, \
    coset_representatives, evaluate, expand_word, full_twist_scalar, g_letter, \
    ginv_letter, parse_word, random_word, relation_residuals, skew_rep, \
    tprime_letter, typeA_rep, typeB_rep, word
from heckeweights.scalars import Rat, admissible_point, identity, \
    is_zero_matrix, mat_eq, specialized_point


def all_relations_hold(rep):
    return all(is_zero_matrix(m) for m in relation_residuals(rep))


def test_word_validation():
    word((g_letter(2), T_LETTER), 3)
    with pytest.raises(ValueError):
        word((g_letter(3),), 3)
    with pytest.raises(ValueError):
        word((tprime_letter(3),), 3)
    with pytest.raises(ValueError):
        word((("x", 1),), 3)
    word((U_LETTER,), 2)
    with pytest.raises(ValueError, match="u = t g1 t needs n >= 2"):
        word((U_LETTER,), 1)
    with pytest.raises(ValueError):
        word((), 0)


def test_parse_word():
    w = parse_word("t g1 G2 t'0 t'2", 3)
    assert w.letters == (T_LETTER, g_letter(1), ginv_letter(2),
                         tprime_letter(0), tprime_letter(2))
    assert parse_word("", 2).letters == ()
    for bad in ("h1", "g", "t'x", "g1g2"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(bad, 3)


def test_element_algebra():
    a = HeckeElement.from_word(word((T_LETTER,), 2), 2)
    b = HeckeElement.from_word(word((g_letter(1),), 2), 3)
    s = a + b
    assert len(s.terms) == 2
    assert (s - s).terms == {}
    p = a * b
    (w,) = p.terms
    assert w.letters == (T_LETTER, g_letter(1))
    assert p.terms[w] == 6


def test_typeA_relations(points):
    for p in points:
        for n in range(1, 5):
            for mu in partitions(n):
                assert all_relations_hold(typeA_rep(mu, p))


def test_typeB_relations(points):
    for p in points:
        for n in range(1, 4):
            for shape in double_partitions(n):
                assert all_relations_hold(typeB_rep(shape, p))


def test_skew_relations():
    for q in (Rat(2), Rat(1, 2), Rat(3, 2)):
        for n in range(1, 3):
            for shape in double_partitions(n):
                assert all_relations_hold(skew_rep(shape, n + 1, n + 1, q))


def test_relation_residuals_catch_corruption(point):
    rep = typeB_rep(((1,), (1,)), point)
    g = rep.g_matrices[0].copy()
    g[0, 0] = g[0, 0] + 1
    broken = type(rep)(label=rep.label, dimension=rep.dimension,
                       basis=rep.basis, t_matrix=rep.t_matrix,
                       g_matrices=[g], point=rep.point)
    assert not all_relations_hold(broken)


def test_worked_example_matrices(point):
    # shape ([1],[1]) at q=2, Q=5: t = diag(Q, -1), g_1 has trace q-1 = 1
    # and determinant -q = -2
    rep = typeB_rep(((1,), (1,)), point)
    assert rep.dimension == 2
    t = rep.t_matrix
    assert t[0, 0] == 5 and t[1, 1] == -1 and t[0, 1] == 0 and t[1, 0] == 0
    g = rep.g_matrices[0]
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
                assert mat_eq(gg, identity(rep.dimension))
            for w in words:
                assert mat_eq(evaluate(rep, w),
                              evaluate(rep, expand_word(w, p))), \
                    (shape, w.letters)


def test_tprime_family(points):
    # t'_i is a conjugate of t: it satisfies the same quadratic relation,
    # and the cached matrix equals the literal conjugation product
    for p in points:
        for n in range(1, 4):
            for shape in double_partitions(n):
                rep = typeB_rep(shape, p)
                d = rep.dimension
                mats = [rep.letter_matrix(tprime_letter(i)) for i in range(n)]
                for i, m in enumerate(mats):
                    assert mat_eq(m.dot(m), m * (p.Q - 1) + identity(d) * p.Q)
                    chain = tuple(g_letter(j) for j in range(i, 0, -1)) \
                        + (T_LETTER,) \
                        + tuple(ginv_letter(j) for j in range(1, i + 1))
                    direct = evaluate(rep, expand_word(word(chain, n), p))
                    assert mat_eq(m, direct)


def test_tprime_zero_is_t(points):
    p = points[0]
    rep = typeB_rep(((1,), (1,)), p)
    assert mat_eq(rep.letter_matrix(tprime_letter(0)), rep.t_matrix)


def test_u_letter_is_t_g1_t(points):
    # the type-D generator u is the letter for t g_1 t, also inside a
    # weighted element
    for p in points:
        for shape in double_partitions(2):
            rep = typeB_rep(shape, p)
            tg1t = evaluate(rep, word((T_LETTER, g_letter(1), T_LETTER), 2))
            assert mat_eq(evaluate(rep, word((U_LETTER,), 2)), tg1t)
            e = HeckeElement.from_word(word((U_LETTER, g_letter(1)), 2), 3)
            assert mat_eq(evaluate(rep, e), tg1t.dot(rep.g_matrices[0]) * 3)


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
                m = evaluate(rep, expand_word(w, p))
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
                assert mat_eq(a.t_matrix, b.t_matrix)
                for ga, gb in zip(a.g_matrices, b.g_matrices):
                    assert mat_eq(ga, gb)


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
            m = evaluate(rep, word(cycle * f, f))
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


def test_evaluate_size_check(points):
    p = points[0]
    rep = typeB_rep(((1,), (1,)), p)
    with pytest.raises(ValueError):
        evaluate(rep, word((g_letter(2),), 3))
