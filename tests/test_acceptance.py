"""Acceptance criteria: twelve exact end-to-end checks.

Each test prints exactly one PASS/FAIL line.  Every comparison is exact
rational equality (zero tolerance) and every criterion carries a wall-clock
budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

from heckeweights.combinatorics import dimension, double_partitions, \
    partitions
from heckeweights.homcheck import character_match_report, \
    double_coset_reduction, markov_property, relations_report, \
    rho_eigenvalue_report, skew_dimension_report, tprime_property, \
    typeA_normalization, typeD_inclusion_weights, typeD_markov_property, \
    typeD_normalization, weight_branching, weight_normalization, \
    weight_ratio_report, weight_two_forms
from heckeweights.reps import evaluate, full_twist_exponent, g_letter, \
    ginv_letter, typeA_rep, word
from heckeweights.scalars import Rat, admissible_point, identity
from heckeweights.traces import markov_params, q1_point, weight_B
from helpers import mat_eq, to_rat, typeA_markov_trace


def criterion(num, label, limit_s, body):
    start = time.monotonic()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    elapsed = time.monotonic() - start
    ok = failure is None and elapsed <= limit_s
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} "
          f"({elapsed:5.1f}s / {limit_s}s): {label}"
          + (f" -- {failure}" if failure else ""))
    assert failure is None, failure
    assert elapsed <= limit_s, f"criterion {num} exceeded {limit_s}s"


def five_points(n, r1, r2):
    return [admissible_point(n, r1, r2, 100 + 7 * k) for k in range(5)]


def assert_reports(reports, cases):
    """Every report passed, and together they compared ``cases`` cases."""
    for report in reports:
        assert report.passed, (report.name, report.failure)
    assert sum(r.cases for r in reports) == cases


def test_criterion_01_defining_relations():
    def body():
        pts = five_points(5, 6, 6)
        # type B to size 5 holds the type-A modules, those of (mu, ())
        assert_reports([relations_report("typeB", pts, range(1, 6)),
                        relations_report("skew", pts, range(1, 4))], 450)
    criterion(1, "defining relations hold for all generic and skew "
                 "representations (types A, B; sizes to 5)", 60, body)


def test_criterion_02_markov_property():
    def body():
        # 20 words h per point, each distinct h once: at n = 2 the words use
        # only t and t'_0, so 35 of 100 are distinct
        assert_reports([markov_property(n, n + 1, n + 1,
                                        five_points(n, n + 1, n + 1), 2024,
                                        words=20)
                        for n in range(2, 6)], 290)
    criterion(2, "Markov property tr(h g_{n-1}) = z tr(h) on random words, "
                 "sizes 2..5", 120, body)


def test_criterion_03_tprime_property_and_powers():
    def body():
        reports = [tprime_property(n, n + 1, n + 1,
                                   five_points(n, n + 1, n + 1)[:3], 31,
                                   words=10)
                   for n in range(2, 5)]
        # 61 distinct h, and all 54 products d_1 ... d_4 at each point,
        # Lemma 5.4's t'_0 ... t'_{k-1} among them
        reports.append(double_coset_reduction(4, 5, 5,
                                              five_points(4, 5, 5)[:3]))
        assert_reports(reports, 223)
    criterion(3, "trace eats a trailing t'_{n-1} as a factor y; products "
                 "t'_0..t'_{k-1} trace to y^k", 120, body)


def test_criterion_04_trace_of_t_closed_form():
    def body():
        for r1 in range(1, 5):
            for r2 in range(1, 5):
                for p in five_points(1, r1, r2):
                    q, Q = p.q, p.Q
                    _, y = markov_params(r1, r2, p)
                    assert y == (Q * q**r2 + 1) * (1 - q**r1) / (1 - q**(r1 + r2)) - 1
                    summed = Q * weight_B(((1,), ()), r1, r2, p) \
                        - weight_B(((), (1,)), r1, r2, p)
                    assert summed == y, (r1, r2, p)
    criterion(4, "tr(t) closed form equals the weighted character sum for "
                 "all row bounds to 4", 60, body)


def test_criterion_05_weight_branching():
    def body():
        pts = five_points(4, 5, 5)
        assert_reports([weight_branching(5, 5, pts, range(0, 4)),
                        weight_normalization(4, 5, 5, pts)], 95)
    criterion(5, "weights branch over one-box successors and normalize to 1, "
                 "sizes to 4", 60, body)


def test_criterion_06_weight_two_forms():
    def body():
        assert_reports([weight_two_forms(5, 5, five_points(4, 5, 5),
                                         range(1, 5))], 185)
    criterion(6, "product form and Schur form of the weight agree, "
                 "sizes to 4", 60, body)


def test_criterion_07_schur_ratio_specialization():
    def body():
        qs = (Rat(2), Rat(1, 2), Rat(3, 2), Rat(5, 3), Rat(7, 4))
        assert_reports([weight_ratio_report(n, 4, 4, (4, 5), qs)
                        for n in (1, 2, 3)], 170)
    criterion(7, "normalized Schur ratio of the glued diagram equals the "
                 "weight at Q = -q^(r1+m)", 60, body)


def test_criterion_08_skew_characters_match():
    def body():
        qs = (Rat(2), Rat(3, 2))
        # one case per q, shape and generator t, g_1 ... g_{n-1}: 2 * (2 +
        # 5 * 2 + 10 * 3 + 20 * 4), and one full-twist ratio per q
        assert_reports([character_match_report(n, m, m, qs)
                        for n, m in ((1, 3), (2, 3), (3, 4), (4, 5))]
                       + [rho_eigenvalue_report(3, 3, qs)], 246)
    criterion(8, "skew realization and generic construction have identical "
                 "generators, so identical characters", 120, body)


def test_criterion_09_full_twist():
    def body():
        for p in five_points(4, 5, 5)[:3]:
            for f in range(1, 5):
                for nu in partitions(f):
                    rep = typeA_rep(nu, p)
                    cycle = tuple(g_letter(j) for j in range(f - 1, 0, -1))
                    got = to_rat(*evaluate(rep, word(cycle * f)))
                    want = identity(rep.dimension) \
                        * p.q ** full_twist_exponent(nu)
                    assert mat_eq(got, want), (nu, p)
    criterion(9, "full twist acts by the predicted scalar on every "
                 "irreducible module of size to 4", 60, body)


def test_criterion_10_dimension_bookkeeping():
    def body():
        for n in range(1, 6):
            total = sum(dimension(shape) ** 2
                        for shape in double_partitions(n))
            assert total == 2**n * math.factorial(n), n
        assert_reports([skew_dimension_report(n, n + 1, n + 1, Rat(2))
                        for n in range(1, 5)], 37)
    criterion(10, "squared dimensions sum to 2^n n!; skew modules have the "
                  "binomial-product dimensions", 60, body)


def test_criterion_11_type_d():
    def body():
        qs = (Rat(2), Rat(1, 2), Rat(5, 3))
        reports = []
        for q in qs:
            for n in (1, 2, 3):
                # r1 != r2 tells a merged weight from twice one shape's
                r1, r2 = n + 1, n + 2
                reports += [typeD_inclusion_weights(n, r1, r2, [q]),
                            typeD_normalization(n, r1, r2, [q])]
        # the Markov property on type-D words h, in g_1, G_1 and u
        reports.append(typeD_markov_property(3, 4, 4, qs, 61))
        # (D1)-(D5) on every type-B module at Q = 1
        reports.append(relations_report("typeD", map(q1_point, qs), (2, 3)))
        assert_reports(reports, 96)
    criterion(11, "index-2 subalgebra at Q = 1: merged/split weights sum the "
                  "linked generic weights and normalize to 1, every module "
                  "satisfies the relations (D1)-(D5), and the trace has the "
                  "Markov property on words in g, G and u", 120, body)


def test_criterion_12_type_a_trace():
    def body():
        qs = (Rat(2), Rat(1, 2), Rat(4, 3))
        # the one-parameter trace is the two-parameter one at r2 = 0 and
        # Q = 1, where t and every t'_i act as 1 on the modules of nonzero
        # weight, so words h of H(B_{n-1}) stand for their type-A images
        assert_reports([typeA_normalization(
            qs, [(n, r) for n in range(1, 6) for r in (2, 3, n + 1)])]
            + [markov_property(n, n + 1, 0, list(map(q1_point, qs)), 77,
                               words=20) for n in range(2, 6)], 199)
        # the type-A oracle, built shape by shape from typeA_rep, on every
        # word of length <= 2 in g_i and G_i of size n - 1: 1, 7, 21 and 43
        # words at n = 2..5
        compared = 0
        for q in qs:
            for n in range(2, 6):
                r = n + 1
                z = q**r * (1 - q) / (1 - q**r)
                letters = [f(i) for i in range(1, n - 1)
                           for f in (g_letter, ginv_letter)]
                for length in range(3):
                    for hl in itertools.product(letters, repeat=length):
                        h = word(hl)
                        hg = word(hl + (g_letter(n - 1),))
                        assert typeA_markov_trace(hg, n, r, q) \
                            == z * typeA_markov_trace(h, n - 1, r, q), \
                            (n, q, hl)
                        compared += 1
        assert compared == 216
    criterion(12, "one-parameter trace: normalized Schur weights sum to 1 "
                  "and satisfy the Markov property, sizes to 5", 120, body)
