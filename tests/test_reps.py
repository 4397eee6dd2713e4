import dataclasses
import random
from collections import Counter

import pytest

from heckeweights import reps
from heckeweights.combinatorics import dimension, double_partitions, \
    partitions
from heckeweights.homcheck import relations_report
from heckeweights.reps import PLAN_CACHE_SIZE, REP_CACHE_SIZE, HeckeElement, \
    T_LETTER, U_LETTER, _seminormal_plan, character, evaluate, expand_word, \
    full_twist_exponent, g_letter, ginv_letter, parse_word, \
    random_word, relation_residuals, relation_str, relations, skew_rep, \
    tprime_letter, typeA_rep, typeB_rep, word
from heckeweights.scalars import ParameterPoint, Rat, identity, \
    is_zero_matrix, specialized_point
from heckeweights.schur import _schur_plan
from heckeweights.traces import _weight_plan, q1_point, trace_table
from helpers import coset_representatives, integer_form, linear, mat_eq, \
    rat_residuals, skew_generators, to_rat, typeB_generators


def _matrix(rep, element):
    """The Rat matrix of a linear combination of words, word by word."""
    return linear(lambda w: to_rat(*evaluate(rep, w)), element)


def test_parse_word():
    w = parse_word("t g1 G2 t'0 t'2")
    assert w.letters == (T_LETTER, g_letter(1), ginv_letter(2),
                         tprime_letter(0), tprime_letter(2))
    assert str(w) == "t g1 G2 t'0 t'2"
    assert parse_word("").letters == ()
    for bad in ("h1", "g", "t'x", "g1g2"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(bad)


def test_typeB_relations(points):
    # sizes to 4 hold the type-A modules of size 4, those of (mu, ())
    report = relations_report("typeB", points, range(1, 5))
    assert report.passed, report.failure


def test_skew_relations():
    pts = [q1_point(q) for q in (Rat(2), Rat(1, 2), Rat(3, 2))]
    report = relations_report("skew", pts, range(1, 3))
    assert report.passed, report.failure


def test_typeD_relations(points):
    # (D1)-(D5) hold on every type-B module at Q = 1, whatever Q the points
    # carry; size 1 has no relation, so it counts no module
    report = relations_report("typeD", points, range(1, 4))
    assert report.passed, report.failure
    assert report.cases == 3 * (5 + 10)
    assert relations_report("typeD", points, [1]).cases == 0


def _relation_family(relation):
    lhs, rhs = relation
    if isinstance(rhs, str):
        return "quadratic"
    return {2: "commutation", 3: "braid", 4: "t g1 t g1"}[len(lhs)]


def test_relation_list(point):
    # a dropped relation passes every module check, so the list is pinned:
    # the count of each family for n = 1..6, and the whole list at n = 3
    for n in range(1, 7):
        module = typeB_rep(((n,), ()), point)
        far = max(n - 2, 0) * max(n - 3, 0) // 2
        base = {"braid": max(n - 2, 0), "commutation": far,
                "quadratic": n - 1}
        extra = {
            # t t, t g1 t g1 = g1 t g1 t, t g_i = g_i t for i >= 2
            "B": {"quadratic": 1, "t g1 t g1": int(n >= 2),
                  "commutation": max(n - 2, 0)},
            # u u, u g1 = g1 u, u g_i = g_i u for i >= 3, u g2 u = g2 u g2
            "D": {"quadratic": 1, "commutation": 1 + max(n - 3, 0),
                  "braid": int(n >= 3)} if n >= 2 else {},
        }
        for kind, more in extra.items():
            rels = relations(n, kind)
            assert len(set(rels)) == len(rels), (n, kind)
            for lhs, rhs in rels:  # every letter is one of size n
                for letter in lhs + (() if isinstance(rhs, str) else rhs):
                    module.letter_matrix(letter)
            want = Counter(base) + Counter(more)
            assert Counter(map(_relation_family, rels)) == want, (n, kind)
        assert sum(_relation_family(r) == "commutation"
                   for r in relations(n, "B")) == (n - 1) * (n - 2) // 2
    common = ["g1 g2 g1 = g2 g1 g2", "g1 g1 = (q-1) g1 + q",
              "g2 g2 = (q-1) g2 + q"]
    assert [relation_str(r) for r in relations(3, "B")] == common + [
        "t t = (Q-1) t + Q", "t g1 t g1 = g1 t g1 t", "t g2 = g2 t"]
    assert [relation_str(r) for r in relations(3, "D")] == common + [
        "u u = (q-1) u + q", "u g1 = g1 u", "u g2 u = g2 u g2"]
    # type A is checked as type B on the modules of (mu, ())
    for kind in "AC":
        with pytest.raises(ValueError, match=f"no algebra of type '{kind}'"):
            relations(3, kind)


def _generators_with(rep, letter, num):
    """rep's module with the numerator of one generator replaced by num: a
    store of the generators t and g_i only, so that G_i, t'_i and u derive
    from the replacement."""
    letters = {x: m for x, m in rep.letters.items()
               if x == T_LETTER or x[0] == "g"}
    num.flags.writeable = False
    letters[letter] = num, letters[letter][1]
    return dataclasses.replace(rep, letters=letters)


def _shifted(rep, letter):
    """The numerator of one of rep's letters with entry (0, 0) raised by 1."""
    num, den = rep.letter_matrix(letter)
    num = num.copy()
    num[0, 0] = num[0, 0] + den
    return num


def test_relation_residuals_catch_corruption(point, monkeypatch):
    # g1 with one entry shifted by 1 breaks its quadratic relation, on a
    # module at p and on one at the skew family's point Q = -q^(r1+m), m =
    # r1 = 3; t with two rows swapped is still an involution, so u = t g1 t
    # keeps its quadratic relation, but not u g1 = g1 u.  The residuals see
    # each, and relations_report, whose stacks take their generators from
    # reps.typeB_rep, names the first relation that fails, the module and
    # the point
    real = reps.typeB_rep
    rep_b = real(((1,), (1,)), point)
    rep_s = real(((2,), ()), specialized_point(point.q, 3, 3))
    rep_d = real(((2,), (1,)), q1_point(Rat(2)))
    cases = [("typeB", "B", rep_b, ((1,), (1,)), g_letter(1),
              _shifted(rep_b, g_letter(1)),
              "q = 2, Q = 5: relation g1 g1 = (q-1) g1 + q"),
             ("skew", "B", rep_s, ((2,), ()), g_letter(1),
              _shifted(rep_s, g_letter(1)),
              "q = 2, Q = -64: relation g1 g1 = (q-1) g1 + q"),
             ("typeD", "D", rep_d, ((2,), (1,)), T_LETTER,
              rep_d.letter_matrix(T_LETTER)[0][[1, 0, 2]],
              "q = 2, Q = 1: relation u g1 = g1 u")]
    for family, kind, rep, shape, letter, num, failure in cases:
        broken = _generators_with(rep, letter, num)
        assert not all(is_zero_matrix(m) for m, _ in
                       relation_residuals(broken, kind))
        monkeypatch.setattr(reps, "typeB_rep", lambda s, p: broken
                            if s == shape else real(s, p))
        report = relations_report(family, [rep.point], [rep.size])
        assert report.failure == f"{family} module {shape} at {failure} fails"


def test_relations_report_names_the_failing_module_of_a_stack(
        point, monkeypatch):
    # the four modules of dimension 3 at n = 3 share one stack; g2 broken in
    # the third fails that stack, and the report names the third module,
    # with one case a module as before
    real = reps.typeB_rep
    shapes = double_partitions(3)
    group = [s for s in shapes if dimension(s) == 3]
    assert len(group) == 4
    rep = real(group[2], point)
    broken = _generators_with(rep, g_letter(2), _shifted(rep, g_letter(2)))
    monkeypatch.setattr(reps, "typeB_rep", lambda s, p: broken
                        if s == group[2] else real(s, p))
    report = relations_report("typeB", [point], [3])
    assert report.cases == len(shapes) == 10
    assert report.failure == (f"typeB module {group[2]} at {point}: relation "
                              f"g1 g2 g1 = g2 g1 g2 fails")


def test_relation_residuals_match_rat_oracle(monkeypatch):
    # with g1 of one module perturbed, each residual (num, den) is the
    # Rat-entry lhs - rhs, of types B and D: on the module alone, and as
    # the module's slice of the stack of the d = 3 modules at n = 3
    points = [ParameterPoint(Rat(2, 3), Rat(-5, 7), 10), q1_point(Rat(7, 2))]
    real = reps.typeB_rep
    group = [s for s in double_partitions(3) if dimension(s) == 3]
    cases = 0
    for p in points:
        oracle = {s: typeB_generators(s, p) for s in group}
        broken = oracle[group[2]]
        broken[g_letter(1)] = broken[g_letter(1)].copy()
        broken[g_letter(1)][0, 1] += Rat(1, 7)
        module = reps.Representation(3, 3, p, {
            x: integer_form(m) for x, m in broken.items()})
        monkeypatch.setattr(reps, "typeB_rep", lambda s, at: module
                            if s == group[2] else real(s, at))
        stack = reps.Representation(3, 3, p, shapes=tuple(group))
        for kind in "BD" if p.Q == 1 else "B":
            want = [rat_residuals(oracle[s], p, kind) for s in group]
            assert not all(is_zero_matrix(m) for m in want[2])
            for (num, den), lhs_rhs in zip(
                    relation_residuals(module, kind), want[2]):
                assert mat_eq(to_rat(num, den), lhs_rhs)
                cases += 1
            stacked = relation_residuals(stack, kind)
            for j, residuals in enumerate(want):
                for (num, den), lhs_rhs in zip(stacked, residuals):
                    assert mat_eq(to_rat(num[j], den), lhs_rhs), (p, j)
                    cases += 1
    # six relations of each type at n = 3, on the module and four slices
    assert cases == 3 * 6 * (1 + 4)


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
        words = [word((letter,)) for letter in letters] \
            + [random_word(n, rng) for _ in range(10)]
        for shape in double_partitions(n):
            rep = typeB_rep(shape, p)
            for i in range(1, n):
                gg = evaluate(rep, word((g_letter(i), ginv_letter(i))))
                assert mat_eq(to_rat(*gg), identity(rep.dimension))
            for w in words:
                assert mat_eq(to_rat(*evaluate(rep, w)),
                              _matrix(rep, expand_word(w, p))), \
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
                    direct = _matrix(rep, expand_word(word(chain), p))
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
                                                T_LETTER))))
            assert mat_eq(to_rat(*evaluate(rep, word((U_LETTER,)))), tg1t)
            e = HeckeElement({word((U_LETTER, g_letter(1))): Rat(3)})
            assert mat_eq(_matrix(rep, e),
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
            w = word(l1 + l2)
            vec = []
            for rep in reps:
                m = _matrix(rep, expand_word(w, p))
                vec.extend(m.flat)
            vectors.append(vec)
    assert len(vectors) == 8
    assert _rref_rank(vectors) == 8


def test_skew_rep_validation():
    with pytest.raises(ValueError):
        skew_rep(((1, 1), ()), 2, 2, Rat(2))
    # no module of size 0, in any of the three constructions
    point = q1_point(Rat(2))
    for build in (lambda: typeB_rep(((), ()), point),
                  lambda: typeA_rep((), point),
                  lambda: skew_rep(((), ()), 2, 2, Rat(2))):
        with pytest.raises(ValueError, match="size 0"):
            build()


def test_full_twist_scalar_values():
    q = Rat(2)
    assert q ** full_twist_exponent((1,)) == 1
    assert q ** full_twist_exponent((2,)) == q**2
    assert q ** full_twist_exponent((1, 1)) == 1
    assert q ** full_twist_exponent((2, 1)) == q**3
    with pytest.raises(ValueError):
        full_twist_exponent(())


def test_full_twist_direct_evaluation(points):
    # (g_{f-1} ... g_1)^f acts on the irreducible module of nu as the scalar
    p = points[0]
    for f in range(1, 5):
        for nu in partitions(f):
            rep = typeA_rep(nu, p)
            cycle = tuple(g_letter(j) for j in range(f - 1, 0, -1))
            m = to_rat(*evaluate(rep, word(cycle * f)))
            expected = identity(rep.dimension) \
                * p.q ** full_twist_exponent(nu)
            assert mat_eq(m, expected)


def test_character_conjugation_invariance(points):
    p = points[0]
    rng = random.Random(5)
    rep = typeB_rep(((2,), (1,)), p)
    for _ in range(10):
        w = random_word(3, rng)
        for i in (1, 2):
            conj = word((g_letter(i),) + w.letters + (ginv_letter(i),))
            assert linear(lambda v: character(rep, v), expand_word(conj, p)) \
                == linear(lambda v: character(rep, v), expand_word(w, p))


def test_cached_matrices_read_only(points):
    rep = typeB_rep(((1,), (1,)), points[0])
    for letter in (g_letter(1), T_LETTER, ginv_letter(1), tprime_letter(1),
                   U_LETTER):
        num, _ = evaluate(rep, word((letter,)))
        with pytest.raises(ValueError):
            num[0, 0] = 7
    assert evaluate(rep, word((g_letter(1),)))[0] \
        is rep.letter_matrix(g_letter(1))[0]
    # the empty word is the store's one identity, built once
    num, den = evaluate(rep, word(()))
    assert den == 1 and num.tolist() == identity(rep.dimension).tolist()
    with pytest.raises(ValueError):
        num[0, 0] = 7
    assert evaluate(rep, word(()))[0] is num


def test_letters_out_of_range(point):
    # every letter a store cannot build is a ValueError naming the letter,
    # in one module and in a stack of several, and nothing is cached for it:
    # by the token that parses to it, or by its tuple if no token does
    n = 3
    groups, _ = trace_table(n, 4, 4, point)
    stack = max((s for _, s, _ in groups), key=lambda s: len(s.shapes))
    assert len(stack.shapes) > 1
    for store in (typeB_rep(((2,), (1,)), point), stack):
        for letter, name in (
                (("g", 0), "g0"), (("g", -1), "g-1"), (("g", n), "g3"),
                (("ginv", 0), "G0"), (("ginv", -1), "G-1"),
                (("ginv", n), "G3"), (("tprime", -1), "t'-1"),
                (("tprime", n), "t'3"), (("t", 1), "('t', 1)"),
                (("u", 1), "('u', 1)"), (("x", 1), "('x', 1)")):
            with pytest.raises(ValueError) as error:
                store.letter_matrix(letter)
            assert str(error.value) \
                == f"no letter {name} in a representation of size {n}"
            assert letter not in store.letters
    with pytest.raises(ValueError, match="no letter u in a representation "
                                         "of size 1$"):
        typeB_rep(((1,), ()), point).letter_matrix(U_LETTER)


def test_typeA_rep_is_the_beta_empty_typeB_rep(points):
    # type A is type B with beta empty: the same generators g_i, and t acts
    # as the scalar Q
    cases = 0
    for p in points[:2]:
        for n in range(1, 5):
            for mu in partitions(n):
                rep, module = typeA_rep(mu, p), typeB_rep((mu, ()), p)
                assert (rep.dimension, rep.size, rep.point) \
                    == (module.dimension, module.size, module.point)
                for letter in [T_LETTER] + [g_letter(i) for i in range(1, n)]:
                    assert mat_eq(to_rat(*rep.letter_matrix(letter)),
                                  to_rat(*module.letter_matrix(letter)))
                assert mat_eq(to_rat(*rep.letter_matrix(T_LETTER)),
                              identity(rep.dimension) * p.Q), (mu, p)
                cases += 1
    assert cases == 2 * (1 + 2 + 3 + 5)


def test_evaluate_size_check(points):
    p = points[0]
    rep = typeB_rep(((1,), (1,)), p)
    with pytest.raises(ValueError):
        evaluate(rep, word((g_letter(2),)))


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
            reps = [(typeB_rep(shape, p), "B")
                    for shape in double_partitions(n)] \
                + [(typeA_rep(mu, p), "A") for mu in partitions(n)]
            for rep, kind in reps:
                for _ in range(6):
                    letters = random_word(n, rng, max_len=8,
                                          kind=kind).letters
                    if kind == "B" and n >= 2:
                        k = rng.randint(0, len(letters))
                        letters = letters[:k] + (U_LETTER,) + letters[k:]
                    w = word(letters)
                    assert mat_eq(to_rat(*evaluate(rep, w)),
                                  fraction_product(rep, w)), (p, str(w))
                    cases += 1
    assert cases == 3 * 6 * (37 + 1 + 2 + 3 + 5)


def test_generators_match_rat_oracle():
    # every generator and t of typeB_rep and skew_rep, numerator and
    # denominator, is the Rat-entry seminormal matrix over the least common
    # denominator of its entries: every shape of size <= 4, at a point with
    # Q < 0 (and there of size 5 too), one with q > 1 and one with
    # three-digit values, and skew_rep at each point's q with m = r1 = n + 1
    pts = [ParameterPoint(Rat(2, 3), Rat(-5, 7), 10),
           ParameterPoint(Rat(7, 2), Rat(3), 10),
           ParameterPoint(Rat(347, 512), Rat(613, 229), 10)]
    cases = 0
    for p in pts:
        for n in range(1, 6 if p.Q < 0 else 5):
            for shape in double_partitions(n):
                for rep, oracle in (
                        (typeB_rep(shape, p), typeB_generators(shape, p)),
                        (skew_rep(shape, n + 1, n + 1, p.q),
                         skew_generators(shape, n + 1, n + 1, p.q))):
                    assert (rep.dimension, rep.size) \
                        == (len(oracle[T_LETTER]), n)
                    assert len(oracle) == n
                    for letter, m in oracle.items():
                        num, den = rep.letter_matrix(letter)
                        want, want_den = integer_form(m)
                        assert (num.tolist(), den) \
                            == (want.tolist(), want_den), \
                            (shape, letter, str(rep.point))
                        cases += 1
    assert cases == 2 * 3 * (2 + 5 * 2 + 10 * 3 + 20 * 4) + 2 * 36 * 5


def test_character_of_empty_word_is_dimension(points):
    for n in range(1, 5):
        for shape in double_partitions(n):
            rep = typeB_rep(shape, points[0])
            assert character(rep, word(())) == rep.dimension


def test_rep_caches_are_bounded():
    # more distinct points than the caches hold: none keeps more than its
    # maxsize entries
    for k in range(REP_CACHE_SIZE + 5):
        q = Rat(k + 2, k + 3)
        p = q1_point(q)
        typeA_rep((1,), p)
        typeB_rep(((1,), ()), p)
        skew_rep(((1,), ()), 2, 2, q)
    for cached in (typeB_rep, skew_rep):
        info = cached.cache_info()
        assert info.maxsize == REP_CACHE_SIZE
        assert info.currsize <= info.maxsize
    # the type-A alias holds no module of its own
    assert typeA_rep.cache_info().currsize == 0


def _frozen(plan) -> bool:
    """Whether plan is built of tuples of ints and None only."""
    return plan is None or isinstance(plan, int) \
        or isinstance(plan, tuple) and all(map(_frozen, plan))


def test_plan_caches_are_bounded_and_read_only():
    # more shapes (one row in either component), (partition, r) pairs (the
    # 2713 partitions of sizes 1..20, each at r = its length + 1) and weight
    # plan keys (72: sizes 1..3, r1 = 0..11, r2 = 2, kinds B and D) than the
    # point-free plans hold: none keeps more than its maxsize, and every plan
    # is tuples all the way down
    rows = range(1, PLAN_CACHE_SIZE // 2 + 4)
    for cached, keys, maxsize in (
            (_seminormal_plan, [(((k,), ()),) for k in rows]
             + [(((), (k,)),) for k in rows], PLAN_CACHE_SIZE),
            (_schur_plan, [(a, len(a) + 1) for n in range(1, 21)
                           for a in partitions(n)], 2048),
            (_weight_plan, [(n, r1, 2, kind) for n in range(1, 4)
                            for r1 in range(12) for kind in "BD"], 64)):
        assert len(keys) > maxsize
        for key in keys:
            assert _frozen(cached(*key)), key
            info = cached.cache_info()
            assert info.maxsize == maxsize
            assert info.currsize <= info.maxsize
