import math

import pytest

from heckeweights.combinatorics import dimension, double_partitions, \
    embed_double, mu_content, n_stat, one_box_more, one_box_successors, pad, \
    partition_str, partitions, shape_str, standard_tableaux, trim
from heckeweights.reps import _seminormal_plan
from helpers import apply_transposition


def hook_count(alpha):
    """Standard tableau count by the hook length formula (independent of the
    recursive enumeration under test)."""
    alpha = trim(alpha)
    n = sum(alpha)
    if n == 0:
        return 1
    conj = [sum(1 for a in alpha if a > c) for c in range(alpha[0])]
    prod = 1
    for r, a in enumerate(alpha):
        for c in range(a):
            prod *= (a - c) + (conj[c] - r) - 1
    return math.factorial(n) // prod


def test_trim_pad():
    assert trim((3, 2, 0, 0)) == (3, 2)
    assert trim(()) == ()
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


def test_partitions_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)
    assert len(partitions(8)) == 22


def test_double_partitions():
    assert double_partitions(2) == (
        ((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1)))
    assert [len(double_partitions(n)) for n in range(5)] == [1, 2, 5, 10, 20]


def test_n_stat():
    assert n_stat((3, 2, 1)) == 4
    assert n_stat(()) == 0
    assert n_stat((5,)) == 0


def test_corners():
    assert one_box_more(()) == [(1,)]
    assert one_box_more((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]
    # equal parts: no box goes below a row of the same length
    assert one_box_more((2, 2, 1)) == [(3, 2, 1), (2, 2, 2), (2, 2, 1, 1)]
    assert one_box_more((3, 0)) == [(4,), (3, 1)]
    # every partition one box larger, each once, by the row of the new box
    for n in range(7):
        for alpha in partitions(n):
            more = one_box_more(alpha)
            gains = {nu: [b - a for a, b in zip(pad(alpha, n + 1),
                                                pad(nu, n + 1))]
                     for nu in partitions(n + 1)}
            assert sorted(more) == sorted(
                nu for nu, gain in gains.items() if min(gain) >= 0)
            rows = [gains[nu].index(1) for nu in more]
            assert rows == sorted(rows), alpha


def test_one_box_successors():
    assert one_box_successors(((1,), ())) == [
        ((2,), ()), ((1, 1), ()), ((1,), (1,))]
    for shape in double_partitions(3):
        for s in one_box_successors(shape):
            assert sum(s[0]) + sum(s[1]) == 4


def test_embed_double():
    assert embed_double(((2, 1), (1,)), 3, 2) == (5, 4, 1)
    assert embed_double(((), ()), 2, 3) == (2, 2, 2)
    with pytest.raises(ValueError):
        embed_double(((1, 1, 1), ()), 3, 2)
    with pytest.raises(ValueError):
        embed_double(((4,), ()), 3, 2)


def test_standard_tableaux_counts():
    for n in range(5):
        for mu in partitions(n):
            assert len(standard_tableaux((mu, ()))) == hook_count(mu)
    # double shapes: binomial times the two single-shape counts
    for n in range(5):
        for alpha, beta in double_partitions(n):
            expected = math.comb(n, sum(alpha)) \
                * hook_count(alpha) * hook_count(beta)
            assert len(standard_tableaux((alpha, beta))) == expected


def test_dimension_counts_standard_tableaux():
    for n in range(7):
        for shape in double_partitions(n):
            assert dimension(shape) == len(standard_tableaux(shape)), shape


def test_tableaux_sorted_and_standard():
    for n in range(7):
        for shape in double_partitions(n):
            ts = standard_tableaux(shape)
            assert ts == sorted(ts), shape
            for t in ts:
                filled = set()
                for comp, row, col in t:
                    if row > 1:
                        assert (comp, row - 1, col) in filled
                    if col > 1:
                        assert (comp, row, col - 1) in filled
                    filled.add((comp, row, col))


def test_worked_double_tableau():
    # the 9-box filling of ([2,1,1], [3,2]) used as a running example
    boxes = {1: (0, 1, 1), 2: (0, 2, 1), 3: (1, 1, 1), 4: (0, 3, 1),
             5: (1, 2, 1), 6: (0, 1, 2), 7: (1, 1, 2), 8: (1, 2, 2),
             9: (1, 1, 3)}
    t = tuple(boxes[k] for k in range(1, 10))
    assert t in standard_tableaux(((2, 1, 1), (3, 2)))
    # entry 6 sits in the first component at content 1, entry 5 in the
    # second at content -1
    assert t[5] == (0, 1, 2) and t[4] == (1, 2, 1)


def test_apply_transposition():
    ts = standard_tableaux(((2,), (1,)))
    for t in ts:
        for i in (1, 2):
            t2 = apply_transposition(t, i)
            if t2 is None:
                b1, b2 = t[i - 1], t[i]
                assert b1[0] == b2[0] and (b1[1] == b2[1] or b1[2] == b2[2])
            else:
                assert apply_transposition(t2, i) == t
                assert t2 in ts
    with pytest.raises(ValueError):
        apply_transposition(ts[0], 5)


def _exponents(shape):
    """The blocks of each g_i of the shape's plan beside their (e, kind),
    after checking the plan's largest |e|."""
    _, _, generators, exponents, top = _seminormal_plan(shape)
    assert top == max((abs(e) for pairs in exponents for e, _ in pairs),
                      default=0)
    return [list(zip(blocks, pairs))
            for blocks, pairs in zip(generators, exponents)]


def test_axial_parameter_same_component():
    # the axial ratio q^e (-1/Q)^kind: row neighbours give q, column
    # neighbours 1/q, each one block with no standard swap
    assert _exponents(((2,), ())) == [[((0, None, (0, 1, 1), (0, 1, 2)),
                                        (1, 0))]]
    assert _exponents(((1, 1), ())) == [[((0, None, (0, 1, 1), (0, 2, 1)),
                                          (-1, 0))]]


def test_axial_parameter_cross_component():
    # a cross pair is one block, held by its earlier tableau, the one with i
    # in the first component: kind +1, the ratio -q^e / Q; the later
    # tableau's ratio is its inverse -q^-e Q, of kind -1.  So every cross
    # block of sizes 2..4 is of kind +1
    ts = standard_tableaux(((1,), (1,)))
    assert [t[0][0] for t in ts] == [0, 1]
    assert _exponents(((1,), (1,))) == [[((0, 1, (0, 1, 1), (1, 1, 1)),
                                          (0, 1))]]
    kinds = {kind for n in range(2, 5) for shape in double_partitions(n)
             for blocks in _exponents(shape) for _, (_, kind) in blocks}
    assert kinds == {0, 1}


def test_axial_reciprocity():
    # each block's (e, kind) is read off the boxes of i and i+1 of its
    # tableau; the later tableau of a swap pair holds them exchanged, so its
    # ratio is the inverse: q^-e (-1/Q)^-kind
    def content(box):
        return box[2] - box[1]

    for n in range(2, 5):
        for shape in double_partitions(n):
            basis = standard_tableaux(shape)
            for i, blocks in enumerate(_exponents(shape), 1):
                later = []
                for (s, s2, box1, box2), (e, kind) in blocks:
                    assert basis[s][i - 1:i + 1] == (box1, box2)
                    assert (e, kind) == (content(box2) - content(box1),
                                         box2[0] - box1[0])
                    # s2 is the standard swap of i and i+1, if there is one
                    swapped = apply_transposition(basis[s], i)
                    assert s2 == (swapped and basis.index(swapped))
                    if s2 is not None:
                        assert basis[s2][i - 1:i + 1] == (box2, box1)
                        later.append(s2)
                # every tableau is in one block or the later of a pair
                assert sorted([s for (s, *_), _ in blocks] + later) \
                    == list(range(len(basis)))


def test_mu_content():
    assert mu_content((0, 1, 1), 3, 2) == 3
    assert mu_content((1, 1, 1), 3, 2) == -2
    assert mu_content((0, 2, 3), 5, 4) == 6
    assert mu_content((1, 2, 1), 5, 4) == -5


def test_text_encoding():
    assert partition_str((2, 1)) == "[2,1]"
    assert partition_str(()) == "[]"
    assert shape_str(((2, 1), (1,))) == "[2,1]|[1]"
