"""Command-line front end: weight tables, trace evaluation, verification.

Output is deterministic given the flags and seed.  Rationals are printed as
decimal-free ``p/q`` strings.  Exit codes: 0 success, 1 verification
failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from . import homcheck
from .combinatorics import double_partitions, embed_double, one_box_successors, \
    partition_str, partitions, shape_str, standard_tableaux, trim
from .reps import U_LETTER, g_letter, parse_word, random_word, \
    relation_residuals, skew_rep, tprime_letter, typeA_rep, typeB_rep, word
from .scalars import ParameterPoint, admissible_point, guard_bound, \
    is_zero_matrix, parse_rational
from .schur import rectangle_schur, schur_normalized, schur_principal
from .traces import markov_params, markov_trace_B, markov_trace_D, \
    plain_point, q1_point, weight_B, weight_B_schur_form, weight_D, \
    weight_table


def _rat_str(x):
    return None if x is None else str(x)


def _dimension(shape) -> int:
    return len(standard_tableaux(shape))


def _or_exit(make, *args):
    """make(*args); a ValueError is reported as a parameter error (exit 2)."""
    try:
        return make(*args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _point_or_exit(q, Q, n, r1, r2):
    return _or_exit(ParameterPoint, q, Q, guard_bound(n, r1, r2))


# -- weights -----------------------------------------------------------------

def cmd_weights(args) -> int:
    n, r1, r2 = args.n, args.r1, args.r2
    q = args.q
    rows = []
    if args.type == "A":
        r = r1 + r2
        z, _ = markov_params(r1, r2, _or_exit(plain_point, q, 0))
        y = None
        Q_out = None
        for mu in partitions(n):
            rows.append((partition_str(mu), schur_normalized(mu, r, q),
                         _dimension((mu, ()))))
    elif args.type == "B":
        if args.Q is None:
            print("error: --Q is required for type B", file=sys.stderr)
            return 2
        point = _point_or_exit(q, args.Q, n, r1, r2)
        table = weight_table(n, r1, r2, point)
        z, y = table.z, table.y
        Q_out = point.Q
        for shape in double_partitions(n):
            rows.append((shape_str(shape), table.entries[shape],
                         _dimension(shape)))
    else:  # type D
        point = _or_exit(q1_point, q, n, r1, r2)
        z, y = markov_params(r1, r2, point)
        Q_out = point.Q
        seen = set()
        for shape in double_partitions(n):
            alpha, beta = shape
            if (beta, alpha) in seen:
                continue
            seen.add(shape)
            dim = _dimension(shape)
            for entry in weight_D(shape, r1, r2, q):
                if entry.split_index is None:
                    rows.append((shape_str(shape), entry.weight, dim))
                else:
                    rows.append((f"{shape_str(shape)}_{entry.split_index}",
                                 entry.weight, dim // 2))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "weight", "dimension"])
        for shape, weight, dim in rows:
            writer.writerow([shape, str(weight), dim])
        sys.stdout.write(buf.getvalue())
    else:
        doc = {
            "params": {"n": n, "r1": r1, "r2": r2, "q": str(q),
                       "Q": _rat_str(Q_out)},
            "z": _rat_str(z),
            "y": _rat_str(y),
            "weights": [{"shape": shape, "weight": str(weight),
                         "dimension": dim} for shape, weight, dim in rows],
        }
        print(json.dumps(doc, indent=2))
    return 0


# -- trace -------------------------------------------------------------------

def cmd_trace(args) -> int:
    n, r1, r2 = args.n, args.r1, args.r2
    if args.Q is None:
        print("error: --Q is required for trace evaluation", file=sys.stderr)
        return 2
    point = _point_or_exit(args.q, args.Q, n, r1, r2)
    w = _or_exit(parse_word, args.word, n)
    value = markov_trace_B(w, n, r1, r2, point)
    print(str(value))
    return 0


# -- verify ------------------------------------------------------------------

def _points(n, r1, r2, seed, count):
    return [admissible_point(n, r1, r2, seed + 1000 * i) for i in range(count)]


def _all_zero(residuals) -> bool:
    return all(is_zero_matrix(m) for m in residuals)


def suite_relations(n, seed, points):
    pts = _points(n, n + 1, n + 1, seed, points)
    type_a = all(_all_zero(relation_residuals(typeA_rep(mu, p)))
                 for p in pts for k in range(1, n + 1) for mu in partitions(k))
    type_b = all(_all_zero(relation_residuals(typeB_rep(s, p)))
                 for p in pts for k in range(1, n + 1)
                 for s in double_partitions(k))
    skew = all(_all_zero(relation_residuals(skew_rep(s, k + 1, k + 1, p.q)))
               for p in pts for k in range(1, min(n, 3) + 1)
               for s in double_partitions(k))
    return [
        {"name": f"relations-typeA-n{n}", "paper_ref": "Section 2 (H1)-(H3)",
         "pass": type_a},
        {"name": f"relations-typeB-n{n}", "paper_ref": "Section 2 (H1)-(H6)",
         "pass": type_b},
        {"name": f"relations-skew-n{min(n, 3)}", "paper_ref": "Lemma 3.2",
         "pass": skew},
    ]


def suite_markov(n, seed, points):
    checks = []
    rng = random.Random(seed)
    pts = _points(n, n + 1, n + 1, seed, points)
    markov_ok = tprime_ok = powers_ok = coset_ok = symmetry_ok = True
    for p in pts:
        r1 = r2 = n + 1
        z, y = markov_params(r1, r2, p)
        for _ in range(5):
            h = random_word(max(n - 1, 1), rng)
            h_n = word(h.letters, n)
            hg = word(h.letters + (g_letter(n - 1),), n) if n >= 2 else h_n
            lhs = markov_trace_B(hg, n, r1, r2, p)
            rhs = z * markov_trace_B(h, max(n - 1, 1), r1, r2, p) \
                if n >= 2 else markov_trace_B(h_n, n, r1, r2, p)
            if lhs != rhs:
                markov_ok = False
            ht = word(h.letters + (tprime_letter(n - 1),), n)
            lhs = markov_trace_B(ht, n, r1, r2, p)
            rhs = y * markov_trace_B(h, max(n - 1, 1), r1, r2, p)
            if n >= 2 and lhs != rhs:
                tprime_ok = False
        for k in range(1, min(n, 4) + 1):
            w_k = word(tuple(tprime_letter(j) for j in range(k)), n)
            if markov_trace_B(w_k, n, r1, r2, p) != y**k:
                powers_ok = False
        for d_choice in _double_coset_products(n):
            letters, a, b = d_choice
            w_d = word(letters, n)
            if markov_trace_B(w_d, n, r1, r2, p) != z**a * y**b:
                coset_ok = False
        for _ in range(5):
            wa, wb = random_word(n, rng), random_word(n, rng)
            ab = word(wa.letters + wb.letters, n)
            ba = word(wb.letters + wa.letters, n)
            if markov_trace_B(ab, n, r1, r2, p) != markov_trace_B(ba, n, r1, r2, p):
                symmetry_ok = False
    checks.append({"name": f"markov-property-n{n}",
                   "paper_ref": "Section 4 definition; Lemma 5.2", "pass": markov_ok})
    checks.append({"name": f"tprime-property-n{n}", "paper_ref": "Prop 4.1",
                   "pass": tprime_ok})
    checks.append({"name": "tprime-powers", "paper_ref": "Lemma 5.4",
                   "pass": powers_ok})
    checks.append({"name": "double-coset-reduction", "paper_ref": "Section 4",
                   "pass": coset_ok})
    checks.append({"name": "trace-symmetry", "paper_ref": "Section 4 definition",
                   "pass": symmetry_ok})
    return checks


def _double_coset_products(n):
    """All products d_1 ... d_n with d_i in {1, g_{i-1}, t'_{i-1}}, with the
    g- and t'-factor counts."""
    out = [((), 0, 0)]
    for i in range(1, n + 1):
        grown = []
        for letters, a, b in out:
            grown.append((letters, a, b))
            if i >= 2:
                grown.append((letters + (g_letter(i - 1),), a + 1, b))
            grown.append((letters + (tprime_letter(i - 1),), a, b + 1))
        out = grown
    return out


def suite_branching(n, seed, points):
    pts = _points(n, n + 2, n + 2, seed, points)
    branch_ok = norm_ok = forms_ok = True
    for p in pts:
        r1 = r2 = n + 2
        for k in range(0, n):
            for shape in double_partitions(k):
                total = sum(weight_B(s, r1, r2, p)
                            for s in one_box_successors(shape))
                if weight_B(shape, r1, r2, p) != total:
                    branch_ok = False
        table = weight_table(n, r1, r2, p)
        if sum(w * _dimension(s) for s, w in table.entries.items()) != 1:
            norm_ok = False
        for shape in double_partitions(n):
            if weight_B(shape, r1, r2, p) != weight_B_schur_form(shape, r1, r2, p):
                forms_ok = False
    return [
        {"name": f"weight-branching-n{n}", "paper_ref": "Lemma 5.1",
         "pass": branch_ok},
        {"name": f"weight-normalization-n{n}", "paper_ref": "Eq. (9)",
         "pass": norm_ok},
        {"name": f"weight-two-forms-n{n}", "paper_ref": "Eq. (10) = Eq. (11)",
         "pass": forms_ok},
    ]


def suite_schur(n, seed, points):
    pts = _points(n, n + 1, n + 1, seed, points)
    rect_ok = fact_ok = pieri_ok = norm_ok = True
    for p in pts:
        q = p.q
        for m in range(1, 4):
            for r1 in range(1, 4):
                for r2 in range(0, 3):
                    if rectangle_schur(m, r1, r2, q) != \
                            schur_normalized((m,) * r1, r1 + r2, q):
                        rect_ok = False
        m = r1 = n + 1
        for r2 in (n + 1, n + 2):
            r = r1 + r2
            for shape in double_partitions(n):
                mu = embed_double(shape, m, r1)
                alpha, beta = shape
                rhs = q ** (m * r1 * (r1 - 1) // 2 + r1 * sum(beta)) \
                    * ((1 - q) / (1 - q**r)) ** sum(mu) \
                    * schur_principal(alpha, r1, q) \
                    * schur_principal(beta, r2, q)
                for i in range(1, r1 + 1):
                    for j in range(1, r2 + 1):
                        a_i = alpha[i - 1] if i <= len(alpha) else 0
                        b_j = beta[j - 1] if j <= len(beta) else 0
                        rhs *= (1 - q ** (m + r1 + a_i - b_j + j - i)) \
                            / (1 - q ** (r1 + j - i))
                if schur_normalized(mu, r, q) != rhs:
                    fact_ok = False
        for r in (2, 3, 4):
            for k in range(0, n):
                for mu in partitions(k):
                    succ = {trim(s[0]) for s in
                            one_box_successors((mu, ())) if s[1] == ()}
                    if schur_normalized(mu, r, q) != \
                            sum(schur_normalized(nu, r, q) for nu in succ):
                        pieri_ok = False
            total = sum(schur_normalized(mu, r, q) * _dimension((mu, ()))
                        for mu in partitions(n) if len(mu) <= r)
            if total != 1:
                norm_ok = False
    return [
        {"name": "rectangle-closed-form", "paper_ref": "Section 5 rectangle display",
         "pass": rect_ok},
        {"name": f"schur-factorization-n{n}", "paper_ref": "Eq. (4)",
         "pass": fact_ok},
        {"name": f"pieri-n{n}", "paper_ref": "Lemma 5.1 proof", "pass": pieri_ok},
        {"name": f"typeA-normalization-n{n}", "paper_ref": "Section 5 (Wenzl weights)",
         "pass": norm_ok},
    ]


def suite_hom(n, seed, points):
    n = min(n, 3)
    pts = _points(n, n + 1, n + 1, seed, min(points, 3))
    eig_ok = match_ok = ratio_ok = True
    for p in pts:
        q = p.q
        m = r1 = n + 1
        if not homcheck.rho_eigenvalue_report(m, r1, q).passed:
            eig_ok = False
        if not homcheck.character_match_report(n, m, r1, q, samples=20,
                                               seed=seed).passed:
            match_ok = False
        for r2 in (n + 1, n + 2):
            if not homcheck.weight_ratio_report(n, m, r1, r2, q).passed:
                ratio_ok = False
    return [
        {"name": "rho-eigenvalues", "paper_ref": "Lemma 3.2", "pass": eig_ok},
        {"name": f"character-match-n{n}", "paper_ref": "Theorem 3.3",
         "pass": match_ok},
        {"name": f"weight-ratio-n{n}", "paper_ref": "Eq. (13)", "pass": ratio_ok},
    ]


def suite_typeD(n, seed, points):
    pts = _points(n, n + 1, n + 1, seed, points)
    rng = random.Random(seed)
    incl_ok = markov_ok = rel_ok = True
    for p in pts:
        q = p.q
        r1 = r2 = n + 1
        point1 = q1_point(q, n, r1, r2)
        for shape in double_partitions(n):
            alpha, beta = shape
            entries = weight_D(shape, r1, r2, q)
            if alpha == beta:
                ok = all(e.weight == weight_B(shape, r1, r2, point1)
                         for e in entries)
            else:
                ok = entries[0].weight == \
                    weight_B((alpha, beta), r1, r2, point1) \
                    + weight_B((beta, alpha), r1, r2, point1)
            if not ok:
                incl_ok = False
        z, _ = markov_params(r1, r2, point1)
        for _ in range(5):
            h = _random_d_word(max(n - 1, 1), rng)
            if n >= 2:
                hg = word(h.letters + (g_letter(n - 1),), n)
                lhs = markov_trace_D(hg, n, r1, r2, q)
                rhs = z * markov_trace_D(h, max(n - 1, 1), r1, r2, q)
                if lhs != rhs:
                    markov_ok = False
        if not _type_d_relations_ok(n, r1, r2, q, rng):
            rel_ok = False
    return [
        {"name": f"typeD-inclusion-weights-n{n}", "paper_ref": "Prop 6.1",
         "pass": incl_ok},
        {"name": f"typeD-markov-property-n{n}", "paper_ref": "Section 6 (Geck)",
         "pass": markov_ok},
        {"name": "typeD-relations", "paper_ref": "Section 6 (D1)-(D5)",
         "pass": rel_ok},
    ]


def _random_d_word(n, rng, max_len=4):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if n < 2:
            break
        if rng.random() < 0.7:
            letters.append(g_letter(rng.randint(1, n - 1)))
        else:
            letters.append(U_LETTER)
    return word(letters, n)


def _type_d_relations_ok(n, r1, r2, q, rng) -> bool:
    """Defining relations of the index-2 subalgebra as trace identities on
    random two-sided multiples: tr(a*lhs*b) == tr(a*rhs*b)."""
    if n < 2:
        return True
    u = (U_LETTER,)
    pairs = []
    for i in range(1, n - 1):
        pairs.append(((g_letter(i), g_letter(i + 1), g_letter(i)),
                      (g_letter(i + 1), g_letter(i), g_letter(i + 1))))
    for i in range(1, n):
        for j in range(i + 2, n):
            pairs.append(((g_letter(i), g_letter(j)),
                          (g_letter(j), g_letter(i))))
    # u commutes with g_1 and with g_i for i >= 3, and braids with g_2
    pairs.append((u + (g_letter(1),), (g_letter(1),) + u))
    for i in range(3, n):
        pairs.append((u + (g_letter(i),), (g_letter(i),) + u))
    if n >= 3:
        pairs.append((u + (g_letter(2),) + u, (g_letter(2),) + u + (g_letter(2),)))
    point = q1_point(q, n, r1, r2)
    for lhs, rhs in pairs + [((g_letter(1), g_letter(1)), None),
                             (u + u, None)]:
        for _ in range(3):
            a = _random_d_word(n, rng, max_len=2)
            b = _random_d_word(n, rng, max_len=2)
            left = word(a.letters + lhs + b.letters, n)
            if rhs is None:
                # quadratic relation x^2 = (q-1)x + q
                x = word(a.letters + lhs[:1] + b.letters, n)
                one = word(a.letters + b.letters, n)
                target = markov_trace_D(x, n, r1, r2, q) * (q - 1) \
                    + markov_trace_D(one, n, r1, r2, q) * q
                if markov_trace_D(left, n, r1, r2, q) != target:
                    return False
            else:
                right = word(a.letters + rhs + b.letters, n)
                if markov_trace_D(left, n, r1, r2, q) != \
                        markov_trace_D(right, n, r1, r2, q):
                    return False
    return True


SUITES = {
    "relations": suite_relations,
    "markov": suite_markov,
    "branching": suite_branching,
    "schur": suite_schur,
    "hom": suite_hom,
    "typeD": suite_typeD,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(SUITES[name](args.n, args.seed, args.points))
    doc = {
        "params": {"n": args.n, "seed": args.seed, "points": args.points,
                   "suite": args.suite},
        "checks": checks,
    }
    print(json.dumps(doc, indent=2))
    return 0 if all(c["pass"] for c in checks) else 1


# -- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeweights",
        description="Exact Markov-trace weights and representations for "
                    "Hecke algebras of types A, B and D.")
    sub = parser.add_subparsers(dest="command", required=True)

    def rational(text):
        try:
            return parse_rational(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    w = sub.add_parser("weights", help="print a weight table")
    w.add_argument("--type", choices=["A", "B", "D"], required=True)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--r1", type=int, default=None)
    w.add_argument("--r2", type=int, default=None)
    w.add_argument("--q", type=rational, required=True)
    w.add_argument("--Q", type=rational, default=None)
    w.add_argument("--format", choices=["json", "csv"], default="json")
    w.set_defaults(func=cmd_weights)

    t = sub.add_parser("trace", help="evaluate the Markov trace of a word")
    t.add_argument("--word", required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--r1", type=int, default=None)
    t.add_argument("--r2", type=int, default=None)
    t.add_argument("--q", type=rational, required=True)
    t.add_argument("--Q", type=rational, default=None)
    t.set_defaults(func=cmd_trace)

    v = sub.add_parser("verify", help="run exact verification suites")
    v.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--points", type=int, default=5)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "n", None) is not None and args.n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return 2
    if hasattr(args, "r1"):
        if args.r1 is None:
            args.r1 = args.n + 1
        if args.r2 is None:
            args.r2 = args.n + 1
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def entrypoint():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
