import random

import pytest

from heckeweights.combinatorics import dimension, double_partitions, \
    partitions
from heckeweights.homcheck import weight_branching, weight_normalization, \
    weight_two_forms
from heckeweights.reps import T_LETTER, U_LETTER, HeckeElement, evaluate, \
    expand_word, g_letter, ginv_letter, parse_word, random_word, \
    tprime_letter, typeB_rep, word
from heckeweights.scalars import ParameterPoint, Rat, to_rat
from heckeweights.schur import schur_normalized
from heckeweights.traces import markov_params, markov_trace_B, \
    markov_trace_D, plain_point, q1_point, trace_table, weight_B, weight_D, \
    weight_table
from helpers import markov_trace_by_shape, mat_eq, typeA_markov_trace


def test_worked_example(point):
    # n = 1, r1 = r2 = 1 at q = 2, Q = 5
    assert weight_B(((1,), ()), 1, 1, point) == Rat(11, 18)
    assert weight_B(((), (1,)), 1, 1, point) == Rat(7, 18)
    z, y = markov_params(1, 1, point)
    assert z == Rat(4, 3)
    assert y == Rat(8, 3)


def test_single_box_closed_forms(points):
    # both one-box weights in closed form, for several row bounds
    for p in points:
        q, Q = p.q, p.Q
        for r1 in (1, 2, 3):
            for r2 in (1, 2, 3):
                r = r1 + r2
                w1 = (1 - q**r1) * (1 + Q * q**r2) / ((1 - q**r) * (1 + Q))
                w2 = q**r1 * (1 - q**r2) * (1 + Q * q**-r1) \
                    / ((1 - q**r) * (1 + Q))
                assert weight_B(((1,), ()), r1, r2, p) == w1
                assert weight_B(((), (1,)), r1, r2, p) == w2
                assert w1 + w2 == 1


def test_row_bounds_give_zero(point):
    assert weight_B(((1, 1), ()), 1, 2, point) == 0
    assert weight_B(((), (1, 1, 1)), 2, 2, point) == 0


def test_normalization(points):
    for n in range(1, 5):
        for (r1, r2) in ((n + 1, n + 1), (n + 1, n + 2)):
            report = weight_normalization(n, r1, r2, points)
            assert report.passed, report.failure


# 3-digit points, two with negative Q, guarded for n <= 6 and r1 + r2 <= 14
THREE_DIGIT = [ParameterPoint(Rat(347, 512), Rat(-613, 229), 14),
               ParameterPoint(Rat(911, 127), Rat(389, 754), 14),
               ParameterPoint(Rat(100, 999), Rat(-998, 7), 14)]


def test_two_forms_agree(points):
    report = weight_two_forms(5, 5, points, range(1, 5))
    assert report.passed, report.failure
    for r1, r2 in ((2, 4), (4, 2), (0, 3), (3, 0), (1, 5)):
        report = weight_two_forms(r1, r2, THREE_DIGIT, range(7))
        assert report.passed, report.failure
        assert report.cases == 3 * 139  # 139 shapes of sizes 0..6
    # the row bounds of the weights-sweep tables: (n + 1, n + 1) for types
    # B and D, (2n + 2, 0) for type A
    for n in range(3, 7):
        for r1, r2 in ((n + 1, n + 1), (2 * n + 2, 0)):
            report = weight_two_forms(r1, r2, THREE_DIGIT, [n])
            assert report.passed, report.failure
            assert report.cases == 3 * {3: 10, 4: 20, 5: 36, 6: 65}[n]
    # weight_B reads the table at the trimmed shape
    p = THREE_DIGIT[0]
    assert weight_B(((2, 0), (1,)), 2, 2, p) \
        == weight_table(3, 2, 2, p)[(2,), (1,)] != 0


def test_branching(points):
    report = weight_branching(5, 5, points, range(0, 4))
    assert report.passed, report.failure


def test_weight_table(point):
    table = weight_table(2, 3, 3, point)
    assert set(table) == set(double_partitions(2))
    assert sum(w * dimension(s) for s, w in table.items()) == 1


def test_weight_table_cache_is_bounded():
    maxsize = weight_table.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 5):
        weight_table(1, 2, 2, ParameterPoint(Rat(2 * k + 1, 2), Rat(5), 4))
    assert weight_table.cache_info().currsize <= maxsize


def test_weight_table_is_read_only(point):
    table = weight_table(2, 3, 3, point)
    with pytest.raises(TypeError):
        table[((2,), ())] = Rat(0)
    assert weight_table(2, 3, 3, point) is table


def _oracle_words(n, rng):
    """The empty word, a word with every letter kind that exists at size n,
    two random words, and two elements: a weighted sum of words with an
    empty-word term, and the expansion of the every-kind word."""
    kinds = [T_LETTER, tprime_letter(n - 1)]
    if n >= 2:
        kinds += [g_letter(1), ginv_letter(n - 1), U_LETTER]
    every = word(kinds, n)
    w1, w2 = random_word(n, rng, max_len=5), random_word(n, rng, max_len=5)
    mixed = HeckeElement({w1: Rat(3, 2), w2: Rat(-2), word((), n): Rat(1, 7)},
                         n)
    return [word((), n), every, w1, w2, mixed,
            expand_word(every, THREE_DIGIT[0])]


def test_markov_trace_matches_shape_by_shape():
    """The trace by table and stacks equals the weighted character sum
    taken one shape at a time, with row bounds that zero some weights and
    empty some dimension groups, at points with Q < 0."""
    rng = random.Random(23)
    cases = 0
    for n in range(1, 5):
        words = _oracle_words(n, rng)
        for r1, r2 in ((n + 1, n + 1), (0, 3), (3, 0), (1, 1)):
            for p in THREE_DIGIT:
                for w in words:
                    value = markov_trace_B(w, n, r1, r2, p)
                    assert value == markov_trace_by_shape(w, n, r1, r2, p), \
                        (w, n, r1, r2, str(p))
                    cases += 1
                assert markov_trace_B(words[0], n, r1, r2, p) == 1
    for r1, r2 in ((6, 6), (3, 0)):
        for p in THREE_DIGIT:
            for w in (word((U_LETTER, g_letter(4), tprime_letter(3)), 5),
                      random_word(5, rng, max_len=5)):
                assert markov_trace_B(w, 5, r1, r2, p) \
                    == markov_trace_by_shape(w, 5, r1, r2, p), (w, str(p))
                cases += 1
    for n in range(2, 5):
        words = [word((), n), word((U_LETTER, g_letter(1), U_LETTER), n),
                 word((g_letter(n - 1), U_LETTER, ginv_letter(1)), n)]
        for p in THREE_DIGIT:
            p1 = q1_point(p.q)
            for w in words:
                assert markov_trace_D(w, n, n + 1, n + 1, p.q) \
                    == markov_trace_by_shape(w, n, n + 1, n + 1, p1), (w, p.q)
                cases += 1
    assert cases == 4 * 4 * 3 * 6 + 2 * 3 * 2 + 3 * 3 * 3


def test_trace_table_groups_by_dimension(point):
    def sizes(r1, r2):
        groups, _ = trace_table(3, r1, r2, point)
        return sorted((s.dimension, len(s.shapes)) for _, s in groups)

    assert sizes(4, 4) == [(1, 4), (2, 2), (3, 4)]
    # at (1, 1) only shapes with one row in each component have weight
    assert sizes(1, 1) == [(1, 2), (3, 2)]


def test_trace_table_cache_is_bounded():
    maxsize = trace_table.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 5):
        trace_table(1, 2, 2, ParameterPoint(Rat(2 * k + 1, 2), Rat(5), 4))
    assert trace_table.cache_info().currsize <= maxsize


def test_trace_table_is_read_only(point):
    for n, r1, r2 in ((3, 4, 4), (2, 3, 3)):
        groups, _ = trace_table(n, r1, r2, point)
        for nums, stack in groups:
            with pytest.raises(ValueError):
                nums[0] = 7
            for letter in (T_LETTER, g_letter(1), ginv_letter(1),
                           tprime_letter(1), U_LETTER):
                num, _ = stack.letter_matrix(letter)
                with pytest.raises(ValueError):
                    num[0, 0, 0] = 7
                num, _ = evaluate(stack, word((letter,), n))
                with pytest.raises(ValueError):
                    num[0, 0, 0] = 7
    # a stack of one is a view of its representation's own matrix
    (stack,) = [s for _, s in trace_table(2, 3, 3, point)[0]
                if len(s.shapes) == 1]
    rep = typeB_rep(stack.shapes[0], point)
    assert stack.letter_matrix(g_letter(1))[0].base \
        is rep.letter_matrix(g_letter(1))[0]


def derived_letters(n):
    """The letters a store derives from its generators at size n."""
    return [ginv_letter(i) for i in range(1, n)] \
        + [tprime_letter(i) for i in range(n)] + [U_LETTER] * (n >= 2)


def test_stacked_derived_letters_match_each_shape():
    # a stack derives G_i, t'_i and u on its (k, d, d) arrays; slice by
    # slice they equal each shape's own letter, in groups of one shape and
    # of several
    group_sizes = set()
    for p in THREE_DIGIT:
        for n in range(1, 5):
            for _, stack in trace_table(n, n + 1, n + 1, p)[0]:
                k, d = len(stack.shapes), stack.dimension
                group_sizes.add(min(k, 2))
                for letter in derived_letters(n):
                    num, den = stack.letter_matrix(letter)
                    assert num.shape == (k, d, d)
                    for s, shape in enumerate(stack.shapes):
                        own = typeB_rep(shape, p).letter_matrix(letter)
                        assert mat_eq(to_rat(num[s], den), to_rat(*own)), \
                            (p, shape, letter)
    assert group_sizes == {1, 2}


def test_trace_derives_letters_on_the_stacks_only():
    # after a trace with G, t' and u letters at a point no other test uses,
    # every stack holds the word's derived letters and every module of the
    # table still holds only its generators
    p = ParameterPoint(Rat(419, 283), Rat(-271, 613), 8)
    n = 3
    w = parse_word("G1 t'2 u g2 t", n)
    markov_trace_B(w, n, 4, 4, p)
    derived = {ginv_letter(1), ginv_letter(2), tprime_letter(1),
               tprime_letter(2), U_LETTER}
    generators = {T_LETTER, g_letter(1), g_letter(2)}
    shapes = 0
    for _, stack in trace_table(n, 4, 4, p)[0]:
        assert derived <= stack.letters.keys()
        for shape in stack.shapes:
            assert typeB_rep(shape, p).letters.keys() == generators, shape
            shapes += 1
    assert shapes == len(double_partitions(n))


def test_trace_of_identity_and_t(points):
    for p in points:
        for n in (1, 2, 3):
            r1 = r2 = n + 1
            assert markov_trace_B(word((), n), n, r1, r2, p) == 1
            _, y = markov_params(r1, r2, p)
            assert markov_trace_B(word((T_LETTER,), n), n, r1, r2, p) == y


def test_markov_property(points):
    rng = random.Random(11)
    for p in points:
        for n in (2, 3):
            r1 = r2 = n + 1
            z, y = markov_params(r1, r2, p)
            for _ in range(8):
                h = random_word(n - 1, rng)
                base = markov_trace_B(expand_word(h, p), n - 1, r1, r2, p)
                hg = word(h.letters + (g_letter(n - 1),), n)
                assert markov_trace_B(expand_word(hg, p), n, r1, r2, p) \
                    == z * base
                ht = word(h.letters + (tprime_letter(n - 1),), n)
                assert markov_trace_B(expand_word(ht, p), n, r1, r2, p) \
                    == y * base
                hginv = word(h.letters + (ginv_letter(n - 1),), n)
                zbar = z / p.q + (1 / p.q - 1)
                assert markov_trace_B(expand_word(hginv, p), n, r1, r2, p) \
                    == zbar * base


def test_trace_symmetry(points):
    rng = random.Random(13)
    p = points[0]
    n, r1, r2 = 3, 4, 4
    for _ in range(6):
        a, b = random_word(n, rng), random_word(n, rng)
        ab = expand_word(word(a.letters + b.letters, n), p)
        ba = expand_word(word(b.letters + a.letters, n), p)
        assert markov_trace_B(ab, n, r1, r2, p) \
            == markov_trace_B(ba, n, r1, r2, p)


def test_typeA_trace(points):
    rng = random.Random(7)
    q = points[0].q
    for n in (2, 3):
        for r in (n, n + 2):
            assert typeA_markov_trace(word((), n), n, r, q) == 1
            z = q**r * (1 - q) / (1 - q**r)
            for _ in range(6):
                h = random_word(n - 1, rng, use_t=False)
                p0 = plain_point(q)
                base = typeA_markov_trace(expand_word(h, p0), n - 1, r, q)
                hg = word(h.letters + (g_letter(n - 1),), n)
                assert typeA_markov_trace(expand_word(hg, p0), n, r, q) \
                    == z * base


# -- type D -------------------------------------------------------------------

def test_weight_D_structure():
    q = Rat(2)
    entries = weight_D(((1,), (1,)), 3, 3, q)
    assert len(entries) == 2
    assert entries[0].split_index == 1 and entries[1].split_index == 2
    assert entries[0].weight == entries[1].weight
    merged = weight_D(((2,), ()), 3, 3, q)
    assert len(merged) == 1 and merged[0].split_index is None
    point1 = q1_point(q)
    assert merged[0].weight == weight_B(((2,), ()), 3, 3, point1) \
        + weight_B(((), (2,)), 3, 3, point1)


def test_u_quadratic_trace_identity():
    # at Q = 1 the element u = t g_1 t satisfies u^2 = (q-1) u + q, checked
    # as an identity of traces against arbitrary left and right factors
    rng = random.Random(3)
    q = Rat(3, 2)
    n, r1, r2 = 3, 4, 4
    uu = word((U_LETTER,), n)
    for _ in range(6):
        a = random_word(n, rng, use_t=False)
        b = random_word(n, rng, use_t=False)
        lhs = word(a.letters + uu.letters + uu.letters + b.letters, n)
        mid = word(a.letters + uu.letters + b.letters, n)
        one = word(a.letters + b.letters, n)
        assert markov_trace_D(lhs, n, r1, r2, q) \
            == (q - 1) * markov_trace_D(mid, n, r1, r2, q) \
            + q * markov_trace_D(one, n, r1, r2, q)


def test_markov_trace_D_matches_B_at_Q1():
    rng = random.Random(9)
    q = Rat(2)
    n, r1, r2 = 3, 4, 4
    point1 = q1_point(q)
    for _ in range(6):
        h = random_word(n, rng)
        assert markov_trace_D(h, n, r1, r2, q) \
            == markov_trace_B(expand_word(h, point1), n, r1, r2, point1)



def test_typeA_weight_is_normalized_schur_value():
    # the type-A weight of mu in r rows is weight_B((mu, ()), r, 0); the
    # normalized Schur value stays its independent reference
    cases = 0
    for q in (Rat(347, 512), Rat(911, 127), Rat(128, 311), Rat(2),
              Rat(1, 3)):
        p = plain_point(q)
        for n in range(8):
            for mu in partitions(n):
                for r in range(1, 9):
                    assert weight_B((mu, ()), r, 0, p) \
                        == schur_normalized(mu, r, q), (mu, r, q)
                    cases += 1
    assert cases == 5 * 8 * 45
