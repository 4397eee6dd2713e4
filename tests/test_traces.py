import math
import random

import pytest

from heckeweights.combinatorics import dimension, double_partitions, \
    partitions
from heckeweights.homcheck import weight_branching, weight_normalization, \
    weight_two_forms
from heckeweights.reps import T_LETTER, U_LETTER, HeckeElement, evaluate, \
    expand_word, g_letter, ginv_letter, parse_word, random_word, \
    tprime_letter, typeB_rep, word
from heckeweights.scalars import ParameterPoint, Rat, admissible_point, \
    guard_bound
from heckeweights.schur import schur_normalized
from heckeweights.traces import _atoms, _weight_plan, markov_params, \
    markov_trace_B, markov_trace_D, q1_point, trace_table, weight_B, \
    weight_B_schur_form, weight_D, weight_table
from helpers import linear, markov_trace_by_shape, mat_eq, to_rat, \
    typeA_markov_trace


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
    # type D reads the tables of those bounds at Q = 1
    q1_points = [q1_point(p.q) for p in THREE_DIGIT]
    cases = 0
    for n in range(3, 7):
        report = weight_two_forms(n + 1, n + 1, q1_points, [n])
        assert report.passed, report.failure
        cases += report.cases
    assert cases == 393  # 3 * (10 + 20 + 36 + 65)
    # weight_B reads the table at the trimmed shape
    p = THREE_DIGIT[0]
    assert weight_B(((2, 0), (1,)), 2, 2, p) \
        == weight_table(3, 2, 2, p)[(2,), (1,)] != 0


def _names(code) -> set:
    """The global and attribute names a function's code and its nested
    functions read."""
    return set(code.co_names).union(*(_names(c) for c in code.co_consts
                                      if hasattr(c, "co_names")))


def test_weight_oracle_is_independent():
    # the Schur form is the oracle for the table: neither reads the other
    oracle = _names(weight_B_schur_form.__code__)
    assert not oracle & {"weight_table", "_weight_plan", "weight_B",
                         "trace_table"}
    for f in (weight_table, _weight_plan):
        table = _names(f.__wrapped__.__code__)
        assert not [name for name in table if "schur" in name], f


def test_weight_table_every_frame():
    # every pair (l1, l2) of nonempty row counts under every pair of row
    # bounds up to 3, including full components (l = r), one empty row
    # bound and shapes beyond the row bounds
    cases = 0
    for r1 in range(4):
        for r2 in range(4):
            if r1 + r2:
                report = weight_two_forms(r1, r2, THREE_DIGIT, range(6))
                assert report.passed, report.failure
                cases += report.cases
    assert cases == 15 * 3 * 74  # 74 shapes of sizes 0..5


def test_weight_table_swap_symmetry():
    # at Q = 1 with r1 = r2, swapping alpha and beta keeps every weight: the
    # cross factors C(x) of beta's rows, x < 0, mirror those of alpha's
    for q in (Rat(2), Rat(347, 512), Rat(5, 3)):
        p = q1_point(q)
        for n in range(7):
            for r in range(n + 2):
                table = weight_table(n, r, r, p)
                assert all(w == table[beta, alpha]
                           for (alpha, beta), w in table.items()), (q, n, r)
    table = weight_table(1, 1, 2, q1_point(Rat(2)))
    assert table[(1,), ()] != table[(), (1,)]


def test_branching(points):
    report = weight_branching(5, 5, points, range(0, 4))
    assert report.passed, report.failure


def test_weight_table(point):
    table = weight_table(2, 3, 3, point)
    assert set(table) == set(double_partitions(2))
    assert sum(w * dimension(s) for s, w in table.items()) == 1


def test_weight_plan():
    # one plan per size and type serves the tables and the type-D rows at
    # every point, and it cancels each atom met on both sides of a weight
    assert _weight_plan.cache_info().maxsize is not None
    _weight_plan.cache_clear()
    for k in range(5):
        p = ParameterPoint(Rat(2 * k + 3, 13), Rat(-9), guard_bound(4, 3, 5))
        weight_table(4, 3, 5, p)
        weight_D(4, 3, 5, q1_point(p.q))
    info = _weight_plan.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 8)
    entries = []
    for n in range(7):
        for r1, r2 in ((n + 1, n + 1), (0, 3), (2, 1), (2 * n + 2, 0)):
            rows, powers = _weight_plan(n, r1, r2, "B")
            assert [(s, splits, d) for s, splits, d, _ in rows] \
                == [(s, (None,), dimension(s)) for s in double_partitions(n)]
            _check_powers(rows, powers)
            entries += [entry for _, _, _, entry in rows]
    for num, den, *terms in filter(None, entries):
        # a class of one shape: weight_table reads G over L only
        assert terms == [()]
    # 556 shapes, 314 of them beyond their row bounds
    assert (len(entries), entries.count(None)) == (556, 314)


def test_cyclotomic_atoms():
    # atom k of the plans is Phi_k(b, a): over the divisors j of k the atoms
    # multiply to b^k - a^k, and each Phi_k with k >= 2 is positive
    for q in (Rat(2), Rat(1, 2), Rat(347, 512), Rat(911, 127), Rat(100, 999)):
        a, b = q.numerator, q.denominator
        for m in range(1, 24):
            atoms = _atoms(m, q1_point(q), [(k, 1) for k in range(1, m + 1)])
            for k in range(1, m + 1):
                assert math.prod(atoms[j] for j in range(1, k + 1)
                                 if k % j == 0) == b ** k - a ** k, (q, m, k)
                # named alone, Phi_k sieves only up to k
                assert _atoms(m, q1_point(q), [(k, 1)])[k] == atoms[k]
            assert all(atoms[k] > 0 for k in range(2, m + 1)), (q, m)


def _check_powers(rows, powers):
    # each distinct (atom, exponent > 0) pair once, sorted and used; every
    # index of an entry in range, no atom twice in one part and none on both
    # sides of an entry
    assert list(powers) == sorted(set(powers))
    assert all(k > 0 for _, k in powers)
    used = set()
    for _, _, _, entry in rows:
        if entry is None:
            continue
        num, den = entry[:2]
        assert all(0 <= i < len(powers) for part in entry for i in part)
        assert not {powers[i][0] for i in num} & {powers[i][0] for i in den}
        for part in entry:
            assert len({powers[i][0] for i in part}) == len(part)
            used.update(part)
    assert used == set(range(len(powers)))


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
    two random words, and the expansion of the every-kind word over {t, g}.
    All are elements, a word the one term of its own."""
    kinds = [T_LETTER, tprime_letter(n - 1)]
    if n >= 2:
        kinds += [g_letter(1), ginv_letter(n - 1), U_LETTER]
    every = word(kinds)
    words = (word(()), every, random_word(n, rng, max_len=5),
             random_word(n, rng, max_len=5))
    return [HeckeElement({w: Rat(1)}) for w in words] \
        + [expand_word(every, THREE_DIGIT[0])]


def test_markov_trace_matches_shape_by_shape():
    """The trace by table and stacks equals the weighted character sum
    taken one shape at a time, with row bounds that zero some weights and
    empty some dimension groups, at points with Q < 0."""
    rng = random.Random(23)
    cases = 0
    for n in range(1, 5):
        elements = _oracle_words(n, rng)
        for r1, r2 in ((n + 1, n + 1), (0, 3), (3, 0), (1, 1)):
            for p in THREE_DIGIT:
                for e in elements:
                    value = linear(
                        lambda w: markov_trace_B(w, n, r1, r2, p), e)
                    assert value == linear(
                        lambda w: markov_trace_by_shape(w, n, r1, r2, p), e), \
                        (e, n, r1, r2, str(p))
                    cases += 1
                assert markov_trace_B(word(()), n, r1, r2, p) == 1
    for r1, r2 in ((6, 6), (3, 0)):
        for p in THREE_DIGIT:
            for w in (word((U_LETTER, g_letter(4), tprime_letter(3))),
                      random_word(5, rng, max_len=5)):
                assert markov_trace_B(w, 5, r1, r2, p) \
                    == markov_trace_by_shape(w, 5, r1, r2, p), (w, str(p))
                cases += 1
    for n in range(2, 5):
        words = [word(()), word((U_LETTER, g_letter(1), U_LETTER)),
                 word((g_letter(n - 1), U_LETTER, ginv_letter(1)))]
        for p in THREE_DIGIT:
            p1 = q1_point(p.q)
            for w in words:
                assert markov_trace_D(w, n, n + 1, n + 1, p.q) \
                    == markov_trace_by_shape(w, n, n + 1, n + 1, p1), (w, p.q)
                cases += 1
    assert cases == 4 * 4 * 3 * 5 + 2 * 3 * 2 + 3 * 3 * 3


def test_markov_trace_pairs_every_last_letter():
    """A trace pairs the word's prefix with its last letter: against the
    shape-by-shape oracle on the empty word, every one-letter word and a
    two-letter word ending in each letter kind, with row bounds that empty
    some dimension groups, at points with Q < 0."""
    cases = 0
    for n in range(1, 5):
        # g_1's off-diagonal pair is not symmetric, so it tells a letter
        # from its transpose
        first = g_letter(1) if n >= 2 else T_LETTER
        lasts = [T_LETTER, tprime_letter(n - 1)]
        lasts += [U_LETTER, g_letter(n - 1), ginv_letter(1)] * (n >= 2)
        alone = [T_LETTER] + [g_letter(i) for i in range(1, n)] \
            + derived_letters(n)
        words = [word(())] + [word((x,)) for x in alone] \
            + [word((first, x)) for x in lasts]
        for r1, r2 in ((n + 1, n + 1), (0, 3), (3, 0)):
            for p in THREE_DIGIT:
                for w in words:
                    assert markov_trace_B(w, n, r1, r2, p) \
                        == markov_trace_by_shape(w, n, r1, r2, p), \
                        (str(w), n, r1, r2, str(p))
                    cases += 1
    for x in (U_LETTER, ginv_letter(4), tprime_letter(4)):
        w = word((g_letter(2), tprime_letter(3), x))
        for p in THREE_DIGIT:
            assert markov_trace_B(w, 5, 6, 6, p) \
                == markov_trace_by_shape(w, 5, 6, 6, p), (str(w), str(p))
            cases += 1
    # 5, 12, 15 and 18 words at n = 1..4
    assert cases == 3 * 3 * (5 + 12 + 15 + 18) + 3 * 3


def test_trace_table_groups_by_dimension(point):
    def sizes(r1, r2):
        groups, _ = trace_table(3, r1, r2, point)
        return sorted((s.dimension, len(s.shapes)) for _, s, _ in groups)

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
    # the numerators, the stacks' empty word and letters and, after a trace
    # ending in a letter, the groups' pairing of that letter
    for n, r1, r2 in ((3, 4, 4), (2, 3, 3)):
        groups, _ = trace_table(n, r1, r2, point)
        for letter in (T_LETTER, g_letter(1), ginv_letter(1),
                       tprime_letter(1), U_LETTER):
            markov_trace_B(word((g_letter(1), letter)), n, r1, r2, point)
        for nums, stack, pairings in groups:
            with pytest.raises(ValueError):
                nums[0] = 7
            num, _ = evaluate(stack, word(()))
            with pytest.raises(ValueError):
                num[0, 0, 0] = 7
            for letter in (T_LETTER, g_letter(1), ginv_letter(1),
                           tprime_letter(1), U_LETTER):
                num, _ = stack.letter_matrix(letter)
                with pytest.raises(ValueError):
                    num[0, 0, 0] = 7
                num, _ = evaluate(stack, word((letter,)))
                with pytest.raises(ValueError):
                    num[0, 0, 0] = 7
                flat, _ = pairings[letter]
                with pytest.raises(ValueError):
                    flat[0] = 7
    # a stack of one is a view of its representation's own matrix
    (stack,) = [s for _, s, _ in trace_table(2, 3, 3, point)[0]
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
            for _, stack, _ in trace_table(n, n + 1, n + 1, p)[0]:
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
    w = parse_word("G1 t'2 u g2 t")
    markov_trace_B(w, n, 4, 4, p)
    derived = {ginv_letter(1), ginv_letter(2), tprime_letter(1),
               tprime_letter(2), U_LETTER}
    generators = {T_LETTER, g_letter(1), g_letter(2)}
    shapes = 0
    for _, stack, _ in trace_table(n, 4, 4, p)[0]:
        assert derived <= stack.letters.keys()
        for shape in stack.shapes:
            assert typeB_rep(shape, p).letters.keys() == generators, shape
            shapes += 1
    assert shapes == len(double_partitions(n))


def test_trace_of_identity_and_t(points):
    for p in points:
        for n in (1, 2, 3):
            r1 = r2 = n + 1
            assert markov_trace_B(word(()), n, r1, r2, p) == 1
            _, y = markov_params(r1, r2, p)
            assert markov_trace_B(word((T_LETTER,)), n, r1, r2, p) == y


def test_traced_size_checks_the_word(point):
    # a word carries no size: the algebra that traces it checks its letters
    w = word((g_letter(2),))
    with pytest.raises(ValueError, match="no letter g2 in a representation "
                                         "of size 2"):
        markov_trace_B(w, 2, 3, 3, point)
    assert markov_trace_B(w, 3, 4, 4, point) \
        == markov_trace_by_shape(w, 3, 4, 4, point)


def test_markov_property(points):
    rng = random.Random(11)
    for p in points:
        for n in (2, 3):
            r1 = r2 = n + 1
            z, y = markov_params(r1, r2, p)

            def trace(w, m):  # the size-m trace of the word's expansion
                return linear(lambda v: markov_trace_B(v, m, r1, r2, p),
                              expand_word(w, p))
            for _ in range(8):
                h = random_word(n - 1, rng)
                base = trace(h, n - 1)
                hg = word(h.letters + (g_letter(n - 1),))
                assert trace(hg, n) == z * base
                ht = word(h.letters + (tprime_letter(n - 1),))
                assert trace(ht, n) == y * base
                hginv = word(h.letters + (ginv_letter(n - 1),))
                zbar = z / p.q + (1 / p.q - 1)
                assert trace(hginv, n) == zbar * base


def test_trace_symmetry(points):
    rng = random.Random(13)
    p = points[0]
    n, r1, r2 = 3, 4, 4
    for _ in range(6):
        a, b = random_word(n, rng), random_word(n, rng)
        ab = expand_word(word(a.letters + b.letters), p)
        ba = expand_word(word(b.letters + a.letters), p)
        assert linear(lambda w: markov_trace_B(w, n, r1, r2, p), ab) \
            == linear(lambda w: markov_trace_B(w, n, r1, r2, p), ba)


def test_typeA_trace(points):
    rng = random.Random(7)
    q = points[0].q
    for n in (2, 3):
        for r in (n, n + 2):
            assert typeA_markov_trace(word(()), n, r, q) == 1
            z = q**r * (1 - q) / (1 - q**r)
            for _ in range(6):
                h = random_word(n - 1, rng, kind="A")
                p0 = q1_point(q)
                base = linear(lambda w: typeA_markov_trace(w, n - 1, r, q),
                              expand_word(h, p0))
                hg = word(h.letters + (g_letter(n - 1),))
                assert linear(lambda w: typeA_markov_trace(w, n, r, q),
                              expand_word(hg, p0)) == z * base


# -- type D -------------------------------------------------------------------

def test_weight_D_structure():
    point1 = q1_point(Rat(2))
    d = dimension(((1,), (1,)))
    halves = [row for row in weight_D(2, 3, 3, point1)
              if row[0] == ((1,), (1,))]
    assert len(halves) == 2
    assert [(split, dim) for _, split, _, dim in halves] \
        == [(1, d // 2), (2, d // 2)]
    assert halves[0][2] == halves[1][2]
    # r1 != r2 too, where the two shapes of a merged class weigh differently
    for r1, r2 in ((3, 3), (3, 2)):
        merged = [row for row in weight_D(2, r1, r2, point1)
                  if row[0] == ((2,), ())]
        assert len(merged) == 1 and merged[0][1] is None
        assert merged[0][3] == dimension(((2,), ()))
        assert merged[0][2] == weight_B(((2,), ()), r1, r2, point1) \
            + weight_B(((), (2,)), r1, r2, point1)
    assert ((), (2,)) not in [row[0] for row in weight_D(2, 3, 3, point1)]
    with pytest.raises(ValueError, match="Q = 1"):
        weight_D(2, 3, 3, ParameterPoint(Rat(2), Rat(2), 0))


def test_weight_D_rows_are_weight_B_sums():
    # every row against the two-parameter weights it sums, at row bounds
    # that put no shape, one shape or both shapes of a class beyond them
    cases = 0
    for q in (p.q for p in THREE_DIGIT):
        point1 = q1_point(q)
        for n in range(1, 7):
            for r1, r2 in ((n + 1, n + 1), (n + 1, n + 2), (0, 3), (3, 0),
                           (1, 5), (2, 2)):
                rows = weight_D(n, r1, r2, point1)
                for (alpha, beta), split, w, d in rows:
                    want = weight_B((alpha, beta), r1, r2, point1)
                    if split is None:
                        want += weight_B((beta, alpha), r1, r2, point1)
                    assert (w, d) == (want, dimension((alpha, beta))
                                      // (1 if split is None else 2)), \
                        (alpha, beta, split, n, r1, r2, q)
                    cases += 1
                covered = {s for (alpha, beta), _, _, _ in rows
                           for s in ((alpha, beta), (beta, alpha))}
                assert covered == set(double_partitions(n))
    # 1 + 4 + 5 + 13 + 18 + 37 rows for n = 1..6
    assert cases == 3 * 6 * 78
    # the plan puts each merged class over one denominator with positive
    # exponents
    merged = empty = 0
    for n in range(1, 7):
        for r1, r2 in ((n + 1, n + 1), (n + 1, n + 2), (1, 5)):
            rows, powers = _weight_plan(n, r1, r2, "D")
            _check_powers(rows, powers)
            for _, _, _, entry in rows:
                if entry is None:
                    empty += 1
                    continue
                merged += len(entry) == 4
    # 11 classes at (1, 5) have no shape within the row bounds
    assert (merged, empty) == (144, 11)


def test_weight_D_needs_a_size():
    # the one shape []|[] would split into two halves of dimension 0, whose
    # weight times dimension sums to 0, not 1
    with pytest.raises(ValueError, match="type D needs --n >= 1"):
        weight_D(0, 1, 1, q1_point(Rat(2)))


def test_markov_params_textbook_form():
    # the integer form against z = q^r (1 - q) / (1 - q^r) and
    # y = (Q q^r2 + 1)(1 - q^r1) / (1 - q^r) - 1 taken in Rat
    cases = negative = 0
    for seed in range(300):
        p = admissible_point(5, 5, 5, seed)
        q, Q = p.q, p.Q
        negative += Q < 0
        for r1 in range(6):
            for r2 in range(6):
                if r1 + r2 == 0:
                    continue
                r = r1 + r2
                z = q**r * (1 - q) / (1 - q**r)
                y = (Q * q**r2 + 1) * (1 - q**r1) / (1 - q**r) - 1
                assert markov_params(r1, r2, p) == (z, y), (r1, r2, p)
                cases += 1
    assert (cases, negative) == (300 * 35, 141)


def test_u_quadratic_trace_identity():
    # at Q = 1 the element u = t g_1 t satisfies u^2 = (q-1) u + q, checked
    # as an identity of traces against arbitrary left and right factors
    rng = random.Random(3)
    q = Rat(3, 2)
    n, r1, r2 = 3, 4, 4
    uu = word((U_LETTER,))
    for _ in range(6):
        a = random_word(n, rng, kind="D")
        b = random_word(n, rng, kind="D")
        lhs = word(a.letters + uu.letters + uu.letters + b.letters)
        mid = word(a.letters + uu.letters + b.letters)
        one = word(a.letters + b.letters)
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
            == linear(lambda w: markov_trace_B(w, n, r1, r2, point1),
                      expand_word(h, point1))



def test_typeA_weight_is_normalized_schur_value():
    # the type-A weight of mu in r rows is weight_B((mu, ()), r, 0); the
    # normalized Schur value stays its independent reference.  With r2 = 0
    # every cross ratio is C(x) / C(x), so the table does not depend on Q,
    # which lets type A read it at Q = 1: up to n = 6 it is the same at
    # Q = 2 and at a negative Q
    cases = tables = 0
    for q in (Rat(347, 512), Rat(911, 127), Rat(128, 311), Rat(2),
              Rat(1, 3)):
        p = q1_point(q)
        for n in range(8):
            for r in range(1, 9):
                for mu in partitions(n):
                    assert weight_B((mu, ()), r, 0, p) \
                        == schur_normalized(mu, r, q), (mu, r, q)
                    cases += 1
                if n > 6:
                    continue
                for Q in (Rat(2), Rat(-613, 229)):
                    other = ParameterPoint(q, Q, guard_bound(n, r, 0))
                    assert weight_table(n, r, 0, other) \
                        == weight_table(n, r, 0, p), (n, r, other)
                    tables += 1
    assert cases == 5 * 8 * 45
    assert tables == 5 * 7 * 8 * 2
