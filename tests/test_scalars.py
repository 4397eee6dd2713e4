import pytest

from heckeweights.scalars import ParameterPoint, Rat, admissible_point, \
    guard_bound, identity, is_zero_matrix, parse_rational, specialized_point, \
    zeros
from helpers import mat_eq, matrix, qpow, rat


def test_rat_basics():
    assert rat(6, 4) == rat(3, 2)
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2) ** -3 == rat(1, 8)


def test_parse_rational():
    assert parse_rational("3/4") == Rat(3, 4)
    assert parse_rational("-5") == Rat(-5)
    assert parse_rational(" 7/2 ") == Rat(7, 2)
    for bad in ("", "a", "1/0/2", "1.5", "1/0", "-3/0"):
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
