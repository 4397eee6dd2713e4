from heckeweights.combinatorics import partitions, trim
from heckeweights.homcheck import rectangle_closed_form, typeA_normalization
from heckeweights.scalars import Rat
from heckeweights.schur import schur_normalized, schur_principal


def semistandard_sum(alpha, r, q):
    """Brute-force principal specialization: enumerate all semistandard
    fillings with entries 1..r and sum q^(sum of entries - n).  Independent
    oracle for the ratio-product formula."""
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    cells = [(i, j) for i, a in enumerate(alpha) for j in range(a)]
    total = Rat(0)

    def fill(k, values):
        nonlocal total
        if k == len(cells):
            total += q ** (sum(values.values()) - len(cells))
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, values[(i, j - 1)])
        if i > 0:
            lo = max(lo, values[(i - 1, j)] + 1)
        for v in range(lo, r + 1):
            values[(i, j)] = v
            fill(k + 1, values)
        values.pop((i, j), None)

    fill(0, {})
    return total


def test_schur_principal_against_enumeration():
    for q in (Rat(2), Rat(1, 2), Rat(3, 2)):
        for n in range(5):
            for alpha in partitions(n):
                for r in (1, 2, 3):
                    assert schur_principal(alpha, r, q) \
                        == semistandard_sum(alpha, r, q)


def test_single_box():
    for q in (Rat(2), Rat(5, 3)):
        for r in (1, 2, 5):
            assert schur_principal((1,), r, q) == (1 - q**r) / (1 - q)


def test_row_bound():
    assert schur_principal((1, 1, 1), 2, Rat(2)) == 0
    assert schur_normalized((2, 2, 2), 2, Rat(2)) == 0


def test_frozen_values():
    q = Rat(2)
    assert schur_principal((2,), 2, q) == 7
    assert schur_normalized((2,), 2, q) == Rat(7, 9)
    assert schur_principal((1, 1), 2, q) == 2
    assert schur_normalized((1, 1), 2, q) == Rat(2, 9)


def test_normalization_sums_to_one():
    report = typeA_normalization((Rat(2), Rat(1, 2), Rat(7, 4)),
                                 [(n, r) for r in (1, 2, 3, 5)
                                  for n in range(1, 5)])
    assert report.passed and report.cases == 48, report.failure


def test_rectangle_closed_form():
    report = rectangle_closed_form((Rat(2), Rat(2, 3)),
                                   [(m, r1, r2) for m in range(1, 4)
                                    for r1 in range(1, 4) for r2 in range(3)])
    assert report.passed and report.cases == 54, report.failure
