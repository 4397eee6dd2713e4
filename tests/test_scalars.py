import dataclasses
from fractions import Fraction

import pytest

from heckeweights.scalars import ParameterPoint, Rat, admissible_point, \
    guard_bound, identity, is_zero_matrix, parse_int, parse_rational, \
    specialized_point, zeros
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
    ParameterPoint(Rat(2), Rat(3), 8)
    with pytest.raises(ValueError):
        ParameterPoint(Rat(1), Rat(3), 8)
    with pytest.raises(ValueError):
        ParameterPoint(Rat(-2), Rat(3), 8)
    with pytest.raises(ValueError):
        ParameterPoint(Rat(2), Rat(0), 8)
    with pytest.raises(ValueError):
        ParameterPoint(Rat(2), Rat(-1), 8)
    with pytest.raises(ValueError, match=r"Q = -q\^0 is excluded"):
        ParameterPoint(Rat(2), Rat(-1), 0)


def test_point_guard():
    q = Rat(2)
    for s in range(-4, 5):
        with pytest.raises(ValueError, match="excluded"):
            ParameterPoint(q, -(q**s), 4)
    # outside the guard the same values are allowed
    ParameterPoint(q, -(q**5), 4)
    ParameterPoint(q, -(q**-5), 4)


def brute_force_exponent(q, Q, guard):
    """The s with Q = -q^s and |s| <= guard, or None, by trying every s:
    the reference for ParameterPoint's one integer test."""
    for s in range(-guard, guard + 1):
        if Q == -(q**s):
            return s
    return None


def test_point_guard_matches_brute_force():
    # q > 1 and q < 1, integer q and q = 1/b, q next to 1 on both sides; Q
    # at -q^s for |s| up to guard + 2 (so at the guard and one past it), at
    # near misses that share a numerator or a denominator with -q^s, and
    # at -1
    guard = 6
    qs = [Rat(3, 2), Rat(17, 23), Rat(2), Rat(5), Rat(1, 3), Rat(1, 7),
          Rat(1001, 1000), Rat(1000, 1001)]
    for q in qs:
        excluded = set()
        a, b = q.numerator, q.denominator
        Qs = [Rat(-1), Rat(-31, 7), -(q + 1)]
        for s in range(guard + 3):
            Qs += [-(q**s), -(q**-s), -Rat(a**s, b**(s + 1)),
                   -Rat(a**(s + 1), b**s), -(q**s) - Rat(1, 10**9)]
        for Q in Qs:
            s = brute_force_exponent(q, Q, guard)
            if s is None:
                ParameterPoint(q, Q, guard)
            else:
                with pytest.raises(ValueError, match=rf"Q = -q\^{s} is "):
                    ParameterPoint(q, Q, guard)
                excluded.add(s)
        assert excluded == set(range(-guard, guard + 1)), q


def test_admissible_point_deterministic():
    p1 = admissible_point(3, 4, 4, 17)
    p2 = admissible_point(3, 4, 4, 17)
    assert (p1.q, p1.Q, p1.guard_bound) == (p2.q, p2.Q, p2.guard_bound)
    assert p1.guard_bound == guard_bound(3, 4, 4) == max(3, 8, 8)
    assert Rat(1, 4) < p1.q < 4 and p1.q != 1


def test_admissible_point_respects_guard():
    for seed in range(20):
        p = admissible_point(2, 3, 3, seed)
        for s in range(-p.guard_bound, p.guard_bound + 1):
            assert p.Q != -(p.q**s)


def test_point_hash_is_cached_and_unchanged():
    # a point hashes and compares as the integers of its fields, q and Q in
    # lowest terms: equal fields, equal points, across every field
    points = [ParameterPoint(Rat(2), Rat(5), 4),
              ParameterPoint(Rat(347, 512), Rat(-613, 229), 10),
              ParameterPoint(Rat(3, 2), Rat(1), 0),
              admissible_point(3, 4, 4, 17)]
    for p in points:
        assert hash(p) == hash((p.q.numerator, p.q.denominator,
                                p.Q.numerator, p.Q.denominator,
                                p.guard_bound))
        twin = dataclasses.replace(p)
        assert twin == p and twin is not p and hash(twin) == hash(p)
        for field, value in (("q", p.q + 1), ("Q", p.Q + 1),
                             ("guard_bound", p.guard_bound + 1)):
            assert dataclasses.replace(p, **{field: value}) != p
        # never equal to a tuple of its fields or of its integers
        assert p != (p.q, p.Q, p.guard_bound)
        assert p != (p.q.numerator, p.q.denominator, p.Q.numerator,
                     p.Q.denominator, p.guard_bound)
    assert len({*points, *map(dataclasses.replace, points)}) == len(points)
    # Q and -Q differ
    for q, Q in ((Rat(2), Rat(5)), (Rat(347, 512), Rat(613, 229))):
        assert ParameterPoint(q, Q, 4) != ParameterPoint(q, -Q, 4)

    class Counted(Fraction):
        reads = 0

        @property
        def numerator(self):
            Counted.reads += 1
            return super().numerator

    # construction reads the integers, and no hash or lookup reads them again
    p = ParameterPoint(Counted(3, 2), Counted(-7, 5), 4)
    before = Counted.reads
    assert hash(p) == hash((3, 2, -7, 5, 4))
    assert {p: 1}[p] == 1 and hash(p) == hash(p)
    assert Counted.reads == before


def test_specialized_point():
    p = specialized_point(Rat(3, 2), 4, 3)
    assert p.Q == -(Rat(3, 2) ** 7)
    assert p.guard_bound == 6
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
