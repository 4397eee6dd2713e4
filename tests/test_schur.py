from heckeweights.combinatorics import n_stat, pad, partitions, trim
from heckeweights.homcheck import rectangle_closed_form, typeA_normalization
from heckeweights.scalars import Rat
from heckeweights.schur import _schur_plan, rectangle_schur, \
    schur_normalized, schur_principal


def ratio_product(alpha, r, q):
    """Reference for schur_principal, in Rat arithmetic by the row-pair
    ratio product

        q^n(alpha) prod_{i<j<=r} (1 - q^(a_i - a_j + j - i)) / (1 - q^(j - i)).
    """
    alpha = trim(alpha)
    if len(alpha) > r:
        return Rat(0)
    a = pad(alpha, r)
    value = q ** n_stat(alpha)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            value *= (1 - q ** (a[i - 1] - a[j - 1] + j - i)) \
                / (1 - q ** (j - i))
    return value


def ratio_normalized(alpha, r, q):
    """Reference for schur_normalized: ratio_product divided by the one-box
    value to the power |alpha|, zero beyond r rows."""
    if len(trim(alpha)) > r:
        return Rat(0)
    return ratio_product(alpha, r, q) / ratio_product((1,), r, q) ** sum(alpha)


def rectangle_product(m, r1, r2, q):
    """Reference for rectangle_schur: the closed-form product in Rat."""
    value = q ** (m * r1 * (r1 - 1) // 2)
    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            value *= (1 - q ** (m + r1 + j - i)) / (1 - q ** (r1 + j - i))
    return value / ratio_product((1,), r1 + r2, q) ** (m * r1)


# q > 1 and q < 1, with 3-digit numerators and denominators among them
QS = (Rat(2), Rat(1, 2), Rat(911, 127), Rat(347, 512), Rat(998, 101),
      Rat(123, 997))


def semistandard_sum(alpha, r, q):
    """Brute-force principal specialization: enumerate all semistandard
    fillings with entries 1..r and sum q^(sum of entries - n).  Independent
    oracle for the hook-content formula."""
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
    # 27 rectangles: m, r1 in 1..3 and r2 in 0..2
    report = rectangle_closed_form((Rat(2), Rat(2, 3)))
    assert report.passed and report.cases == 54, report.failure


def test_hook_content_matches_ratio_product():
    """Every partition of size <= 8, every r from 0 to len + 5 (the ones
    with more rows than r give zero) and six q."""
    cases = zeros = 0
    for n in range(9):
        for alpha in partitions(n):
            for r in range(len(alpha) + 6):
                for q in QS:
                    assert schur_principal(alpha, r, q) \
                        == ratio_product(alpha, r, q), (alpha, r, q)
                    assert schur_normalized(alpha, r, q) \
                        == ratio_normalized(alpha, r, q), (alpha, r, q)
                    cases += 1
                    zeros += len(alpha) > r
    assert (cases, zeros) == (3714, 1302)


def test_normalized_plan_of_one_box_is_empty():
    # s_[1] / s_[1] = 1: the box's content atom b^r - a^r and hook atom
    # b - a cancel against the folded (b - a) / (b^r - a^r), at every r
    for r in range(1, 41):
        assert _schur_plan((1,), r)[3] == ((), ()), r


def test_rectangle_matches_product():
    cases = 0
    for m in range(5):
        for r1 in range(5):
            for r2 in range(6):
                for q in QS:
                    assert rectangle_schur(m, r1, r2, q) \
                        == rectangle_product(m, r1, r2, q), (m, r1, r2, q)
                    cases += 1
    assert cases == 900
