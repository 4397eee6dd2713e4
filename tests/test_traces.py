import random

import pytest

from heckeweights.combinatorics import double_partitions, one_box_successors, \
    standard_tableaux
from heckeweights.reps import T_LETTER, U_LETTER, expand_word, g_letter, \
    ginv_letter, random_word, tprime_letter, word
from heckeweights.scalars import ParameterPoint, Rat, admissible_point
from heckeweights.traces import markov_params, markov_trace_B, \
    markov_trace_D, plain_point, q1_point, typeA_markov_trace, weight_B, \
    weight_B_schur_form, weight_D, weight_table


def dim(shape):
    return len(standard_tableaux(shape))


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
    for p in points:
        for n in range(1, 5):
            for (r1, r2) in ((n + 1, n + 1), (n + 1, n + 2)):
                total = sum(weight_B(shape, r1, r2, p) * dim(shape)
                            for shape in double_partitions(n))
                assert total == 1


def test_two_forms_agree(points):
    for p in points:
        for n in range(1, 5):
            for shape in double_partitions(n):
                assert weight_B(shape, 5, 5, p) \
                    == weight_B_schur_form(shape, 5, 5, p)


def test_branching(points):
    for p in points:
        for n in range(0, 4):
            for shape in double_partitions(n):
                total = sum(weight_B(s, 5, 5, p)
                            for s in one_box_successors(shape))
                assert weight_B(shape, 5, 5, p) == total


def test_weight_table(point):
    table = weight_table(2, 3, 3, point)
    assert set(table.entries) == set(double_partitions(2))
    assert sum(w * dim(s) for s, w in table.entries.items()) == 1
    assert (table.z, table.y) == markov_params(3, 3, point)


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
    point1 = q1_point(q, 2, 3, 3)
    assert merged[0].weight == weight_B(((2,), ()), 3, 3, point1) \
        + weight_B(((), (2,)), 3, 3, point1)


def test_weight_D_normalization():
    for q in (Rat(2), Rat(1, 2), Rat(5, 3)):
        for n in (1, 2, 3):
            r1 = r2 = n + 1
            total = Rat(0)
            seen = set()
            for alpha, beta in double_partitions(n):
                if (beta, alpha) in seen:
                    continue
                seen.add((alpha, beta))
                d = dim((alpha, beta))
                for e in weight_D((alpha, beta), r1, r2, q):
                    total += e.weight * (d if e.split_index is None else d // 2)
            assert total == 1


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
    point1 = q1_point(q, n, r1, r2)
    for _ in range(6):
        h = random_word(n, rng)
        assert markov_trace_D(h, n, r1, r2, q) \
            == markov_trace_B(expand_word(h, point1), n, r1, r2, point1)

