import pytest

from heckeweights.combinatorics import double_partitions
from heckeweights.homcheck import character_match_report, \
    rho_eigenvalue_report, skew_dimension_report, weight_ratio_report
from heckeweights.scalars import Rat


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
        report = character_match_report(n, 3, 3, [q], seed=4)
        assert report.passed, report.failure


def test_character_match_validation():
    with pytest.raises(ValueError):
        character_match_report(3, 3, 3, [Rat(2)])


@pytest.mark.parametrize("q", [Rat(2), Rat(1, 2)])
def test_weight_ratio(q):
    for n in (1, 2):
        report = weight_ratio_report(n, 3, 3, (3, 4), [q])
        assert report.passed, report.failure


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
