"""Acceptance criteria: twelve exact end-to-end checks.

Each test prints exactly one PASS/FAIL line.  Every comparison is exact
rational equality (zero tolerance) and every criterion carries a wall-clock
budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

from heckeweights.combinatorics import double_partitions, one_box_successors, \
    partitions, standard_tableaux
from heckeweights.homcheck import character_match_report, \
    rho_eigenvalue_report, skew_dimension_ok, weight_ratio_report
from heckeweights.reps import T_LETTER, U_LETTER, evaluate, expand_word, \
    full_twist_scalar, g_letter, random_word, relation_residuals, skew_rep, \
    tprime_letter, typeA_rep, typeB_rep, word
from heckeweights.scalars import Rat, admissible_point, identity, \
    is_zero_matrix, mat_eq
from heckeweights.schur import schur_normalized
from heckeweights.traces import markov_params, markov_trace_B, markov_trace_D, \
    plain_point, q1_point, typeA_markov_trace, weight_B, \
    weight_B_schur_form, weight_D, weight_table


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


def dim(shape):
    return len(standard_tableaux(shape))


def five_points(n, r1, r2):
    return [admissible_point(n, r1, r2, 100 + 7 * k) for k in range(5)]


def relations_hold(rep):
    return all(is_zero_matrix(m) for m in relation_residuals(rep))


def test_criterion_01_defining_relations():
    def body():
        pts = five_points(5, 6, 6)
        for p in pts:
            for n in range(1, 6):
                for mu in partitions(n):
                    assert relations_hold(typeA_rep(mu, p)), ("A", mu, p)
            for n in range(1, 5):
                for shape in double_partitions(n):
                    assert relations_hold(typeB_rep(shape, p)), ("B", shape, p)
            for n in range(1, 4):
                for shape in double_partitions(n):
                    rep = skew_rep(shape, n + 1, n + 1, p.q)
                    assert relations_hold(rep), ("skew", shape, p.q)
    criterion(1, "defining relations hold for all generic and skew "
                 "representations (types A, B; sizes to 5)", 60, body)


def test_criterion_02_markov_property():
    def body():
        rng = random.Random(2024)
        for n in range(2, 6):
            pts = five_points(n, n + 1, n + 1)
            for p in pts:
                r1 = r2 = n + 1
                z, _ = markov_params(r1, r2, p)
                for _ in range(20):
                    h = random_word(n - 1, rng)
                    base = markov_trace_B(h, n - 1, r1, r2, p)
                    hg = word(h.letters + (g_letter(n - 1),), n)
                    assert markov_trace_B(hg, n, r1, r2, p) == z * base, \
                        (n, p, h.letters)
    criterion(2, "Markov property tr(h g_{n-1}) = z tr(h) on random words, "
                 "sizes 2..5", 120, body)


def test_criterion_03_tprime_property_and_powers():
    def body():
        rng = random.Random(31)
        for n in range(2, 5):
            pts = five_points(n, n + 1, n + 1)[:3]
            for p in pts:
                r1 = r2 = n + 1
                _, y = markov_params(r1, r2, p)
                for _ in range(10):
                    h = random_word(n - 1, rng)
                    base = markov_trace_B(h, n - 1, r1, r2, p)
                    ht = word(h.letters + (tprime_letter(n - 1),), n)
                    assert markov_trace_B(ht, n, r1, r2, p) == y * base, \
                        (n, p, h.letters)
        n = 4
        for p in five_points(n, n + 1, n + 1)[:3]:
            _, y = markov_params(n + 1, n + 1, p)
            for k in range(1, 5):
                w = word(tuple(tprime_letter(j) for j in range(k)), n)
                assert markov_trace_B(w, n, n + 1, n + 1, p) == y**k, (k, p)
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
        for p in five_points(4, 5, 5):
            for n in range(0, 4):
                for shape in double_partitions(n):
                    total = sum(weight_B(s, 5, 5, p)
                                for s in one_box_successors(shape))
                    assert weight_B(shape, 5, 5, p) == total, (shape, p)
            total = sum(weight_B(s, 5, 5, p) * dim(s)
                        for s in double_partitions(4))
            assert total == 1, p
    criterion(5, "weights branch over one-box successors and normalize to 1, "
                 "sizes to 4", 60, body)


def test_criterion_06_weight_two_forms():
    def body():
        for p in five_points(4, 5, 5):
            for n in range(1, 5):
                for shape in double_partitions(n):
                    assert weight_B(shape, 5, 5, p) \
                        == weight_B_schur_form(shape, 5, 5, p), (shape, p)
    criterion(6, "product form and Schur form of the weight agree, "
                 "sizes to 4", 60, body)


def test_criterion_07_schur_ratio_specialization():
    def body():
        for q in (Rat(2), Rat(1, 2), Rat(3, 2), Rat(5, 3), Rat(7, 4)):
            for n in (1, 2, 3):
                for r2 in (4, 5):
                    report = weight_ratio_report(n, 4, 4, r2, q)
                    assert report.passed, report.failures
    criterion(7, "normalized Schur ratio of the glued diagram equals the "
                 "weight at Q = -q^(r1+m)", 60, body)


def test_criterion_08_skew_characters_match():
    def body():
        for q in (Rat(2), Rat(3, 2)):
            for n, m in ((1, 3), (2, 3), (3, 4)):
                report = character_match_report(n, m, m, q, samples=20,
                                                seed=88)
                assert report.passed, report.failures
            report = rho_eigenvalue_report(3, 3, q)
            assert report.passed, report.failures
    criterion(8, "skew realization and generic construction have identical "
                 "characters; sampled words separate distinct shapes", 120, body)


def test_criterion_09_full_twist():
    def body():
        for p in five_points(4, 5, 5)[:3]:
            for f in range(1, 5):
                for nu in partitions(f):
                    rep = typeA_rep(nu, p)
                    cycle = tuple(g_letter(j) for j in range(f - 1, 0, -1))
                    got = evaluate(rep, word(cycle * f, f))
                    want = identity(rep.dimension) * full_twist_scalar(nu, p.q)
                    assert mat_eq(got, want), (nu, p)
    criterion(9, "full twist acts by the predicted scalar on every "
                 "irreducible module of size to 4", 60, body)


def test_criterion_10_dimension_bookkeeping():
    def body():
        for n in range(1, 6):
            total = sum(dim(shape) ** 2 for shape in double_partitions(n))
            assert total == 2**n * math.factorial(n), n
        for n in range(1, 5):
            assert skew_dimension_ok(n, n + 1, n + 1, Rat(2)), n
    criterion(10, "squared dimensions sum to 2^n n!; skew modules have the "
                  "binomial-product dimensions", 60, body)


def test_criterion_11_type_d():
    def body():
        rng = random.Random(61)
        for q in (Rat(2), Rat(1, 2), Rat(5, 3)):
            for n in (1, 2, 3):
                r1 = r2 = n + 1
                point1 = q1_point(q, n, r1, r2)
                total = Rat(0)
                seen = set()
                for alpha, beta in double_partitions(n):
                    entries = weight_D((alpha, beta), r1, r2, q)
                    if alpha == beta:
                        w = weight_B((alpha, alpha), r1, r2, point1)
                        assert [e.weight for e in entries] == [w, w]
                    else:
                        assert entries[0].weight \
                            == weight_B((alpha, beta), r1, r2, point1) \
                            + weight_B((beta, alpha), r1, r2, point1)
                    if (beta, alpha) not in seen:
                        seen.add((alpha, beta))
                        d = dim((alpha, beta))
                        for e in entries:
                            total += e.weight * (d if e.split_index is None
                                                 else d // 2)
                assert total == 1, (q, n)
            # Markov property and u-relations as exact trace identities
            n, r1, r2 = 3, 4, 4
            z, _ = markov_params(r1, r2, q1_point(q, n, r1, r2))
            uu = word((U_LETTER,), n)
            for _ in range(5):
                a = random_word(n, rng, use_t=False)
                b = random_word(n, rng, use_t=False)
                hg = word(a.letters + (g_letter(n - 1),), n)
                small = word(a.letters, n - 1) \
                    if all(i < n - 1 for _, i in a.letters) else None
                if small is not None:
                    assert markov_trace_D(hg, n, r1, r2, q) \
                        == z * markov_trace_D(small, n - 1, r1, r2, q)
                sq = word(a.letters + uu.letters + uu.letters + b.letters, n)
                lin = word(a.letters + uu.letters + b.letters, n)
                one = word(a.letters + b.letters, n)
                assert markov_trace_D(sq, n, r1, r2, q) \
                    == (q - 1) * markov_trace_D(lin, n, r1, r2, q) \
                    + q * markov_trace_D(one, n, r1, r2, q)
                for i, braids in ((1, False), (2, True)):
                    gi = (g_letter(i),)
                    if braids:
                        lhs = word(a.letters + uu.letters + gi + uu.letters
                                   + b.letters, n)
                        rhs = word(a.letters + gi + uu.letters + gi
                                   + b.letters, n)
                    else:
                        lhs = word(a.letters + uu.letters + gi + b.letters, n)
                        rhs = word(a.letters + gi + uu.letters + b.letters, n)
                    assert markov_trace_D(lhs, n, r1, r2, q) \
                        == markov_trace_D(rhs, n, r1, r2, q), (i, q)
    criterion(11, "index-2 subalgebra at Q = 1: merged/split weights sum the "
                  "linked generic weights, normalize to 1, and the trace "
                  "satisfies the u-relations and Markov property", 120, body)


def test_criterion_12_type_a_trace():
    def body():
        rng = random.Random(77)
        for q in (Rat(2), Rat(1, 2), Rat(4, 3)):
            for n in range(1, 6):
                for r in (2, 3, n + 1):
                    total = sum(schur_normalized(mu, r, q) * dim((mu, ()))
                                for mu in partitions(n) if len(mu) <= r)
                    assert total == 1, (n, r, q)
            for n in range(2, 6):
                r = n + 1
                z = q**r * (1 - q) / (1 - q**r)
                for _ in range(10):
                    h = random_word(n - 1, rng, use_t=False)
                    base = typeA_markov_trace(h, n - 1, r, q)
                    hg = word(h.letters + (g_letter(n - 1),), n)
                    assert typeA_markov_trace(hg, n, r, q) == z * base, \
                        (n, q, h.letters)
    criterion(12, "one-parameter trace: normalized Schur weights sum to 1 "
                  "and satisfy the Markov property, sizes to 5", 120, body)
