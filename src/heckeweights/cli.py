"""Command-line front end: weight tables, trace evaluation, verification.

Output is deterministic given the flags and seed.  Rationals are printed as
decimal-free ``p/q`` strings.  Exit codes: 0 success, 1 verification
failure, 2 a bad input: its ValueError as one ``error:`` line on stderr.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import homcheck
from .combinatorics import dimension, partition_str, shape_str
from .reps import parse_word
from .scalars import ParameterPoint, admissible_point, parse_int, \
    parse_rational
from .traces import markov_params, markov_trace_B, q1_point, weight_D, \
    weight_table


def _row_bounds(args):
    """n, r1, r2, each row bound n + 1 unless given."""
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    r1 = args.n + 1 if args.r1 is None else args.r1
    r2 = args.n + 1 if args.r2 is None else args.r2
    if r1 < 0 or r2 < 0 or r1 + r2 < 1:
        raise ValueError("--r1 and --r2 must be nonnegative with r1 + r2 >= 1")
    return args.n, r1, r2


# -- weights -----------------------------------------------------------------

def cmd_weights(args) -> int:
    n, r1, r2 = _row_bounds(args)
    kind, q = args.type, args.q
    if kind == "B":
        if args.Q is None:
            raise ValueError("--Q is required for type B")
        point = ParameterPoint(q, args.Q).guard(n - 1)
    elif kind == "D" and n < 1:
        # weight_D says the same, but only after q has been checked
        raise ValueError("type D needs --n >= 1")
    else:
        point = q1_point(q)
    if kind == "A":
        rows = [(partition_str(alpha), w, dimension((alpha, beta)))
                for (alpha, beta), w in
                weight_table(n, r1 + r2, 0, point).items() if not beta]
    elif kind == "B":
        rows = [(shape_str(shape), w, dimension(shape))
                for shape, w in weight_table(n, r1, r2, point).items()]
    else:
        rows = [(shape_str(shape) + (f"_{split}" if split else ""), w, d)
                for shape, split, w, d in weight_D(n, r1, r2, point)]
    # Written out, the bytes of csv.writer(lineterminator="\n") and of
    # json.dumps(indent=2): no field needs JSON escaping, and a label needs
    # CSV quoting exactly when it holds a comma.
    if args.format == "csv":
        sys.stdout.write("shape,weight,dimension\n" + "".join(
            f'"{s}",{w!s},{d}\n' if "," in s else f"{s},{w!s},{d}\n"
            for s, w, d in rows))
        return 0
    z, y = markov_params(r1, r2, point)
    Q, y = ("null", "null") if kind == "A" else (f'"{point.Q!s}"', f'"{y!s}"')
    weights = ",\n".join(
        f'    {{\n      "shape": "{s}",\n      "weight": "{w!s}",\n'
        f'      "dimension": {d}\n    }}' for s, w, d in rows)
    print(f'{{\n  "params": {{\n    "n": {n},\n    "r1": {r1},\n'
          f'    "r2": {r2},\n    "q": "{q!s}",\n    "Q": {Q}\n  }},\n'
          f'  "z": "{z!s}",\n  "y": {y},\n  "weights": [\n{weights}\n  ]\n}}')
    return 0


# -- trace -------------------------------------------------------------------

def cmd_trace(args) -> int:
    n, r1, r2 = _row_bounds(args)
    if n < 1:
        raise ValueError("trace needs --n >= 1")
    point = ParameterPoint(args.q, args.Q).guard(n - 1)
    print(markov_trace_B(parse_word(args.word), n, r1, r2, point))
    return 0


# -- verify ------------------------------------------------------------------
#
# A suite picks points, sizes and row bounds and hands them, with the seed, to
# the check catalogue in ``homcheck``, which draws its own words; it compares
# nothing itself.

def _points(n, seed, count):
    return [admissible_point(n, seed + 1000 * i) for i in range(count)]


def suite_relations(n, seed, points):
    pts = _points(n, seed, points)
    k = min(n, 3)
    return [
        homcheck.relations_report("typeB", pts, range(1, n + 1),
                                  name=f"relations-typeB-n{n}"),
        homcheck.relations_report("skew", pts, range(1, k + 1),
                                  name=f"relations-skew-n{k}"),
    ]


def suite_markov(n, seed, points):
    pts = _points(n, seed, points)
    r = n + 1
    return [
        homcheck.markov_property(n, r, r, pts, seed,
                                 name=f"markov-property-n{n}"),
        homcheck.tprime_property(n, r, r, pts, seed,
                                 name=f"tprime-property-n{n}"),
        homcheck.double_coset_reduction(n, r, r, pts),
    ]


def suite_branching(n, seed, points):
    pts = _points(n, seed, points)
    r = n + 2
    return [
        homcheck.weight_branching(r, r, pts, range(n),
                                  name=f"weight-branching-n{n}"),
        homcheck.weight_normalization(n, r, r, pts,
                                      name=f"weight-normalization-n{n}"),
        homcheck.weight_two_forms(r, r, pts, [n],
                                  name=f"weight-two-forms-n{n}"),
        # the weights of ``weights --type A``: Wenzl's s_alpha / s_[1]^n
        homcheck.weight_two_forms(2 * n + 2, 0, [q1_point(p.q) for p in pts],
                                  [n], name=f"weight-two-forms-typeA-n{n}"),
    ]


def suite_schur(n, seed, points):
    qs = [p.q for p in _points(n, seed, points)]
    return [
        homcheck.rectangle_closed_form(qs),
        homcheck.schur_factorization(n, n + 1, n + 1, (n + 1, n + 2), qs,
                                     name=f"schur-factorization-n{n}"),
        homcheck.pieri(qs, (2, 3, 4), range(n), name=f"pieri-n{n}"),
        homcheck.typeA_normalization(qs, [(n, r) for r in (2, 3, 4)],
                                     name=f"typeA-normalization-n{n}"),
    ]


def suite_hom(n, seed, points):
    qs = [p.q for p in _points(n, seed, min(points, 3))]
    m = r1 = n + 1
    return [
        homcheck.rho_eigenvalue_report(m, r1, qs, name="rho-eigenvalues"),
        homcheck.character_match_report(n, m, r1, qs,
                                        name=f"character-match-n{n}"),
        homcheck.skew_dimension_report(n, m, r1, qs[0],
                                       name=f"skew-dimensions-n{n}"),
        homcheck.weight_ratio_report(n, m, r1, (n + 1, n + 2), qs,
                                     name=f"weight-ratio-n{n}"),
    ]


def suite_typeD(n, seed, points):
    pts = _points(n, seed, points)
    qs = [p.q for p in pts]
    # r1 != r2: at Q = 1 and r1 = r2 a shape and its swap weigh the same
    r1, r2 = n + 1, n + 2
    return [
        homcheck.typeD_inclusion_weights(n, r1, r2, qs,
                                         name=f"typeD-inclusion-weights-n{n}"),
        homcheck.typeD_normalization(n, r1, r2, qs,
                                     name=f"typeD-normalization-n{n}"),
        homcheck.typeD_markov_property(n, r1, r2, qs, seed,
                                       name=f"typeD-markov-property-n{n}"),
        homcheck.relations_report("typeD", pts, range(1, n + 1),
                                  name=f"relations-typeD-n{n}"),
    ]


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
    if args.n < 1 or args.points < 1:
        raise ValueError("verify needs --n >= 1 and --points >= 1")
    reports = [report for name in names
               for report in SUITES[name](args.n, args.seed, args.points)]
    # Written out, the bytes of json.dumps(indent=2) of the document: params
    # n, seed, points, suite, then one object a check; strings go through
    # json.dumps
    checks = ",\n".join(
        f'    {{\n      "name": {json.dumps(r.name)},\n'
        f'      "paper_ref": {json.dumps(r.paper_ref)},\n'
        f'      "pass": {"true" if r.passed else "false"},\n'
        f'      "cases": {r.cases},\n      "failure": '
        f'{"null" if r.failure is None else json.dumps(r.failure)}\n    }}'
        for r in reports)
    print(f'{{\n  "params": {{\n    "n": {args.n},\n    "seed": {args.seed},\n'
          f'    "points": {args.points},\n'
          f'    "suite": {json.dumps(args.suite)}\n  }},\n'
          f'  "checks": [\n{checks}\n  ]\n}}')
    return 0 if all(r.passed for r in reports) else 1


# -- argument parsing ---------------------------------------------------------

# the size and row bounds that ``_row_bounds`` reads
_SIZE = {"n": (parse_int,), "r1": (parse_int, None), "r2": (parse_int, None)}
COMMANDS = {
    # command: (function, {option: (converter or choices, default)}); an
    # option given no default is required
    "weights": (cmd_weights, {
        "type": (("A", "B", "D"),), **_SIZE, "q": (parse_rational,),
        "Q": (parse_rational, None), "format": (("json", "csv"), "json")}),
    "trace": (cmd_trace, {"word": (str,), **_SIZE, "q": (parse_rational,),
                          "Q": (parse_rational,)}),
    "verify": (cmd_verify, {
        "suite": ((*SUITES, "all"),), "n": (parse_int, 3),
        "seed": (parse_int, 0), "points": (parse_int, 5)}),
}


# per command, built once: its options "--name" -> (name, converter or
# choices), and the defaults that each parse copies
_OPTIONS = {command: ({f"--{name}": (name, kind)
                       for name, (kind, *_) in spec.items()},
                      {name: default[0]
                       for name, (_, *default) in spec.items() if default})
            for command, (_, spec) in COMMANDS.items()}


def cmd_help(_args) -> int:
    """Print one usage line per command, optional options in brackets."""
    for command, (_, spec) in COMMANDS.items():
        print("usage: heckeweights", command, *(
            ("[--{} {}]" if default else "--{} {}").format(
                name, "|".join(kind) if isinstance(kind, tuple)
                else f"<{name}>")
            for name, (kind, *default) in spec.items()))
    return 0


def parse_args(argv):
    """(function, options) of ``command (--option value | --option=value)*``:
    the token after an option is its value whatever it looks like, as in
    "--Q -3/2".  A fault in argv raises ValueError naming it."""
    if len(argv) <= 2 and argv[-1:] in (["-h"], ["--help"]) \
            and set(argv[:-1]) <= set(COMMANDS):
        return cmd_help, None
    command, *tokens = argv or [None]
    if command not in COMMANDS:
        raise ValueError(f"expected a command, one of {', '.join(COMMANDS)} "
                         f"(heckeweights -h prints usage)")
    func, spec = COMMANDS[command]
    options, defaults = _OPTIONS[command]
    values, tokens = defaults.copy(), iter(tokens)
    for token in tokens:
        option, joined, text = token.partition("=")
        if (entry := options.get(option)) is None:
            raise ValueError(f"{command} has no option {option!r}")
        if not joined and (text := next(tokens, None)) is None:
            raise ValueError(f"{option} needs a value")
        name, kind = entry
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"{option} takes {'|'.join(kind)}, not {text!r}")
        try:
            values[name] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            raise ValueError(f"{option} {text!r}: {exc}") from None
    if len(values) < len(spec):
        missing = [f"--{name}" for name in spec if name not in values]
        raise ValueError(f"{command} requires {', '.join(missing)}")
    return func, SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run argv's command; a ValueError prints as one error line, exit 2."""
    try:
        func, args = parse_args(list(sys.argv[1:] if argv is None else argv))
        return func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # pragma: no cover
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: silence the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
