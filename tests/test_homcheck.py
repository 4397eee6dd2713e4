import dataclasses

import pytest

from heckeweights import homcheck
from heckeweights.combinatorics import double_partitions, embed_double
from heckeweights.homcheck import character_match_report, \
    double_coset_reduction, markov_property, relations_report, \
    rho_eigenvalue_report, schur_factorization, skew_dimension_report, \
    tprime_property, weight_normalization, weight_ratio_report, \
    weight_two_forms
from heckeweights.reps import g_letter
from heckeweights.scalars import ParameterPoint, Rat, admissible_point, \
    identity, specialized_point
from heckeweights.schur import schur_normalized

# the q's of the three-digit points of test_traces.py, on both sides of 1
THREE_DIGIT_QS = [Rat(347, 512), Rat(911, 127), Rat(100, 999)]


def test_double_coset_reduction_takes_every_product():
    """d_i ranges over {1, t'_0} at i = 1 and {1, g_{i-1}, t'_{i-1}} after,
    so 2 * 3^(n-1) products per point."""
    for n in range(1, 5):
        points = [admissible_point(n, seed) for seed in (0, 1)]
        report = double_coset_reduction(n, n + 1, n + 1, points)
        assert report.passed, report.failure
        assert report.cases == 2 * 2 * 3 ** (n - 1)


def test_checks_pass_just_past_the_guard():
    """guard(n - 1) admits Q = -q^s for every |s| >= n: there the trace is
    a Markov trace and the weights normalize and agree in both forms, at
    n <= s <= 2n + 2 on both sides of q = 1 and of s = 0."""
    cases = []
    for n in range(1, 4):
        r1, r2 = n + 1, n + 2
        pts = [ParameterPoint(q, -(q ** s)).guard(n - 1)
               for q in (Rat(3, 2), Rat(2, 5))
               for s in (*range(n, 2 * n + 3), *range(-2 * n - 2, 1 - n))]
        reports = [markov_property(n, r1, r2, pts, n),
                   tprime_property(n, r1, r2, pts, n),
                   double_coset_reduction(n, r1, r2, pts),
                   relations_report("typeB", pts, range(1, n + 1)),
                   weight_normalization(n, r1, r2, pts),
                   weight_two_forms(r1, r2, pts, range(1, n + 1))]
        for report in reports:
            assert report.passed, (report.name, report.failure)
        cases.append([report.cases for report in reports])
    # the Markov and t' checks take no case at n = 1
    assert cases == [[0, 0, 32, 32, 16, 32], [63, 63, 120, 140, 20, 140],
                     [110, 110, 432, 408, 24, 408]]


@pytest.mark.parametrize("q", [Rat(2), Rat(1, 2), Rat(3, 2)])
def test_rho_eigenvalues(q):
    report = rho_eigenvalue_report(3, 3, [q])
    assert report.passed, report.failure
    report = rho_eigenvalue_report(4, 2, [q])
    assert report.passed, report.failure


def test_rho_eigenvalue_validation():
    with pytest.raises(ValueError):
        rho_eigenvalue_report(1, 3, [Rat(2)])


@pytest.mark.parametrize("q", [Rat(2), Rat(3, 2)])
def test_character_match(q):
    for n in (1, 2):
        report = character_match_report(n, 3, 3, [q])
        assert report.passed, report.failure
        # one case per shape and generator t, g_1 ... g_{n-1}
        assert report.cases == len(double_partitions(n)) * n


def test_character_match_names_the_first_difference(monkeypatch):
    q, shape, letter = Rat(2), ((1,), (1,)), g_letter(1)
    real = homcheck.skew_rep
    num, den = real(shape, 3, 3, q).letter_matrix(letter)
    bent = num.copy()
    bent[1, 0] += den

    def skew_rep(s, m, r1, q):
        rep = real(s, m, r1, q)
        if s != shape:
            return rep
        return dataclasses.replace(rep, letters={**rep.letters,
                                                 letter: (bent, den)})

    monkeypatch.setattr(homcheck, "skew_rep", skew_rep)
    report = character_match_report(2, 3, 3, [q])
    assert report.cases == 10
    assert report.failure == (
        f"skew = generic g1 on [1]|[1] at {specialized_point(q, 3, 3)}: "
        f"entry (1, 0): {Rat(bent[1, 0], den)} != {Rat(num[1, 0], den)}")


def test_character_match_names_a_dimension_difference(monkeypatch):
    q, shape, letter = Rat(2), ((1,), (1,)), g_letter(1)
    real = homcheck.skew_rep

    def skew_rep(s, m, r1, q):
        rep = real(s, m, r1, q)
        if s != shape:
            return rep
        return dataclasses.replace(rep, letters={**rep.letters,
                                                 letter: (identity(3), 1)})

    monkeypatch.setattr(homcheck, "skew_rep", skew_rep)
    report = character_match_report(2, 3, 3, [q])
    assert report.cases == 10
    assert report.failure == (
        f"skew = generic g1 on [1]|[1] at {specialized_point(q, 3, 3)}: "
        f"dimension 3 != 2")


def test_character_match_validation():
    with pytest.raises(ValueError):
        character_match_report(3, 3, 3, [Rat(2)])


@pytest.mark.parametrize("q", [Rat(2), Rat(1, 2)])
def test_weight_ratio(q):
    for n in (1, 2):
        report = weight_ratio_report(n, 3, 3, (3, 4), [q])
        assert report.passed, report.failure


def test_schur_factorization():
    # r2 = 1 leaves beta = [1, 1] more rows than r2: both sides are zero
    for n in range(1, 5):
        report = schur_factorization(n, n + 1, n + 1, (n + 1, n + 2, 1),
                                     THREE_DIGIT_QS)
        assert report.passed, report.failure
        assert report.cases == 3 * 3 * {1: 2, 2: 5, 3: 10, 4: 20}[n]


def test_schur_factorization_names_the_failure(monkeypatch):
    # s_beta doubled for beta = [1] in r2 = 4 variables: only [1]|[1] at
    # r2 = 4 fails
    real = homcheck.schur_principal

    def schur_principal(alpha, r, q):
        value = real(alpha, r, q)
        return 2 * value if (alpha, r) == ((1,), 4) else value

    monkeypatch.setattr(homcheck, "schur_principal", schur_principal)
    q = THREE_DIGIT_QS[0]
    report = schur_factorization(2, 3, 3, (3, 4), [q])
    assert report.cases == 10
    glued = schur_normalized(embed_double(((1,), (1,)), 3, 3), 7, q)
    assert report.failure == (
        f"glued Schur value = factored form for [1]|[1], r2 = 4 at "
        f"q = 347/512: {glued} != {2 * glued}")


def test_skew_dimensions():
    for n in (1, 2, 3):
        report = skew_dimension_report(n, n + 1, n + 1, Rat(2))
        assert report.passed, report.failure
        assert report.cases == len(double_partitions(n))


def test_report_records_failures():
    from heckeweights.homcheck import Report
    r = Report(name="demo", paper_ref="Eq. (0)")
    r.check(True, lambda: pytest.fail("message built for a passing case"))
    assert r.passed and r.failure is None and r.cases == 1
    r.check(False, lambda: "broken")
    r.check(False, lambda: "broken again")
    assert not r.passed and r.failure == "broken" and r.cases == 3
