import dataclasses
from fractions import Fraction

import pytest

from heckeweights.scalars import ParameterPoint, Rat, admissible_point, \
    identity, is_zero_matrix, parse_int, parse_rational, \
    specialized_point, zeros
from heckeweights.traces import weight_table
from helpers import mat_eq, matrix, qpow, rat


def test_rat_basics():
    assert rat(6, 4) == rat(3, 2)
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2) ** -3 == rat(1, 8)


def test_parse_int():
    """What int() takes, less "_", "+" and other scripts' digits; spaces
    around the integer are allowed.  int()'s own error stands where int()
    fails."""
    assert parse_int("07") == 7
    assert parse_int(" -3 ") == -3
    assert parse_int("\t12\n") == 12
    for bad in ("1_0", "+3", " +3", "\u0663", "3\u2003"):
        with pytest.raises(ValueError,
                           match="not ASCII digits after an optional '-'"):
            parse_int(bad)
    for bad in ("", "-", "--3", "3a", "1 0", "\u00b2"):
        with pytest.raises(ValueError, match="invalid literal for int()"):
            parse_int(bad)


def test_parse_rational():
    assert parse_rational("3/4") == Rat(3, 4)
    assert parse_rational("-5") == Rat(-5)
    assert parse_rational(" 7/2 ") == Rat(7, 2)
    assert parse_rational("-06/-4") == Rat(3, 2)
    assert parse_rational(" 1 / 2") == Rat(1, 2)
    # each integer as parse_int reads it
    for bad in ("", "a", "1/0/2", "1.5", "1/0", "-3/0", "1_0/3", "+3/2",
                "3/+2", "\u0663/2", "--3", "-"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_point_validation():
    # q > 0, q != 1 and Q != 0 at construction; Q = -1 = -q^0 at any guard
    ParameterPoint(Rat(2), Rat(3)).guard(8)
    with pytest.raises(ValueError):
        ParameterPoint(Rat(1), Rat(3))
    with pytest.raises(ValueError):
        ParameterPoint(Rat(-2), Rat(3))
    with pytest.raises(ValueError):
        ParameterPoint(Rat(2), Rat(0))
    with pytest.raises(ValueError):
        ParameterPoint(Rat(2), Rat(-1)).guard(8)
    with pytest.raises(ValueError, match=r"Q = -q\^0 is excluded"):
        ParameterPoint(Rat(2), Rat(-1)).guard(0)


def test_point_guard():
    q = Rat(2)
    for s in range(-4, 5):
        with pytest.raises(ValueError, match="excluded"):
            ParameterPoint(q, -(q**s)).guard(4)
    # outside the guard the same values are allowed
    for Q in (-(q**5), -(q**-5)):
        p = ParameterPoint(q, Q)
        assert p.guard(4) is p


def brute_force_exponent(q, Q, guard):
    """The s with Q = -q^s and |s| <= guard, or None, by trying every s:
    the reference for ParameterPoint.guard's integer search."""
    for s in range(-guard, guard + 1):
        if Q == -(q**s):
            return s
    return None


def test_point_guard_matches_brute_force():
    # q > 1 and q < 1, integer q and q = 1/b, q next to 1 on both sides; Q
    # at -q^s for |s| up to guard + 2 (so at the guard and one past it), at
    # near misses that share a numerator or a denominator with -q^s, and
    # at -1; guards 0 and 1 at the smallest powers, 6 past them
    qs = [Rat(3, 2), Rat(17, 23), Rat(2), Rat(5), Rat(1, 3), Rat(1, 7),
          Rat(1001, 1000), Rat(1000, 1001)]
    for guard in (0, 1, 6):
        for q in qs:
            excluded = set()
            a, b = q.numerator, q.denominator
            Qs = [Rat(-1), Rat(-31, 7), -(q + 1)]
            for s in range(guard + 3):
                Qs += [-(q**s), -(q**-s), -Rat(a**s, b**(s + 1)),
                       -Rat(a**(s + 1), b**s), -(q**s) - Rat(1, 10**9)]
            for Q in Qs:
                p, s = ParameterPoint(q, Q), brute_force_exponent(q, Q, guard)
                if s is None:
                    assert p.guard(guard) is p
                else:
                    with pytest.raises(ValueError, match=rf"Q = -q\^{s} is "):
                        p.guard(guard)
                    excluded.add(s)
            assert excluded == set(range(-guard, guard + 1)), (q, guard)
    # the search ends where the bit lengths of max(-c, d) and max(a, b)
    # allow no larger |s|, not at the bound: a bound of 10**12 still finds
    # s = 40 and passes Q = -3 at once
    q = Rat(3, 2)
    with pytest.raises(ValueError, match=r"Q = -q\^40 is "):
        ParameterPoint(q, -(q**40)).guard(10**12)
    p = ParameterPoint(q, Rat(-3))
    assert p.guard(10**12) is p


def test_admissible_point_deterministic():
    p1 = admissible_point(3, 17)
    p2 = admissible_point(3, 17)
    assert (p1.q, p1.Q) == (p2.q, p2.Q) and p1 == p2
    assert p1.guard(2) is p1
    assert Rat(1, 4) < p1.q < 4 and p1.q != 1


def test_admissible_point_respects_guard():
    # the first draw with no Q = -q^s at |s| <= n - 1, and no bound larger:
    # seeds 88, 124 and 274 first draw Q = -q^-1, -q^-2 and -q^3, kept at
    # n = 1, 2, 3 and redrawn at the next size
    for n in range(1, 5):
        for seed in range(20):
            p = admissible_point(n, seed)
            for s in range(1 - n, n):
                assert p.Q != -(p.q**s)
    for n, seed, s in ((1, 88, -1), (2, 124, -2), (3, 274, 3)):
        p = admissible_point(n, seed)
        assert p.Q == -(p.q**s)
        assert admissible_point(n + 1, seed) != p


def test_point_hash_is_cached_and_unchanged():
    # a point is its (q, Q), and it hashes and compares as their integers
    # in lowest terms: equal fields, equal points, across every field
    assert [f.name for f in dataclasses.fields(ParameterPoint)] == ["q", "Q"]
    points = [ParameterPoint(Rat(2), Rat(5)),
              ParameterPoint(Rat(347, 512), Rat(-613, 229)),
              ParameterPoint(Rat(3, 2), Rat(1)),
              admissible_point(3, 17)]
    for p in points:
        assert hash(p) == hash((p.q.numerator, p.q.denominator,
                                p.Q.numerator, p.Q.denominator))
        twin = dataclasses.replace(p)
        assert twin == p and twin is not p and hash(twin) == hash(p)
        for field, value in (("q", p.q + 1), ("Q", p.Q + 1)):
            assert dataclasses.replace(p, **{field: value}) != p
        # never equal to a tuple of its fields or of its integers
        assert p != (p.q, p.Q)
        assert p != (p.q.numerator, p.q.denominator, p.Q.numerator,
                     p.Q.denominator)
    assert len({*points, *map(dataclasses.replace, points)}) == len(points)
    # Q and -Q differ
    for q, Q in ((Rat(2), Rat(5)), (Rat(347, 512), Rat(613, 229))):
        assert ParameterPoint(q, Q) != ParameterPoint(q, -Q)

    class Counted(Fraction):
        reads = 0

        @property
        def numerator(self):
            Counted.reads += 1
            return super().numerator

    # construction reads the integers, and no guard, hash or lookup reads
    # them again
    p = ParameterPoint(Counted(3, 2), Counted(-7, 5))
    before = Counted.reads
    assert p.guard(8) is p
    assert hash(p) == hash((3, 2, -7, 5))
    assert {p: 1}[p] == 1 and hash(p) == hash(p)
    assert Counted.reads == before


def test_guard_leaves_the_point_unchanged():
    # the guard is no part of a point: one (q, Q) checked at two bounds is
    # one point, and a point-keyed cache returns the same table for both
    q, Q = Rat(3, 2), Rat(-5, 7)
    p3, p9 = ParameterPoint(q, Q).guard(3), ParameterPoint(q, Q).guard(9)
    assert p3 == p9 and hash(p3) == hash(p9) and p3 is not p9
    assert weight_table(2, 3, 3, p3) is weight_table(2, 3, 3, p9)


def test_specialized_point():
    # Q = -q^7 by construction, unguarded: it passes guards below 7 only
    p = specialized_point(Rat(3, 2), 4, 3)
    assert p == ParameterPoint(Rat(3, 2), -(Rat(3, 2) ** 7))
    assert p.guard(6) is p
    with pytest.raises(ValueError, match=r"Q = -q\^7 is excluded"):
        p.guard(7)
    with pytest.raises(ValueError):
        specialized_point(Rat(1), 4, 3)


def test_qpow(point):
    assert qpow(point, 3) == 8
    assert qpow(point, -2) == Rat(1, 4)


def test_matrix_helpers():
    a = matrix([[1, 2], [3, 4]])
    i = identity(2)
    assert mat_eq(a.dot(i), a)
    assert is_zero_matrix(zeros(3, 2))
    assert not is_zero_matrix(a)
    assert not mat_eq(a, identity(2))
    b = matrix([[Rat(1, 2), 0], [0, 1]])
    assert (b.dot(b))[0, 0] == Rat(1, 4)
