"""Input generators and output checks for the three benchmark workloads.

Every generator takes the workload seed and yields argv lists of strings for
``heckeweights.cli.main``; the program never sees the seed itself.  Every
parameter point is admissible by construction (q > 0, q != 1, Q > 0), so no
op can land on the excluded locus Q = -q^s and any failed op is a real
failure.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("trace-hot", "weights-sweep", "verify-cold")

# Per workload, the highest percentile that keeps at least ten samples
# beyond it at the op count a 30-s run reaches on the seed commit:
# trace-hot 600-930, weights-sweep 480-800, verify-cold 610-1040.
TAIL_PERCENTILE = {"trace-hot": 98, "weights-sweep": 97, "verify-cold": 98}

# -- trace-hot ---------------------------------------------------------------

TRACE_N = 3
TRACE_POINTS = (("2", "5"), ("3/2", "7/3"))
# Tokens by how many terms expand_word rewrites them into: G_i gives 2 and
# t'_i gives 2^i (t'_1 = g1 t G1 is longer than G_i, so it is its own class).
TRACE_CLASSES = (("t", "g1", "g2", "t'0"), ("G1", "G2"), ("t'1",), ("t'2",))
TRACE_FANOUT = (1, 2, 2, 4)
# Words whose expansion may exceed this many terms are left out: six t'_2
# tokens expand to 4096 terms and take about a minute, which would make a
# fixed-length run neither steady nor bounded in time.
TRACE_MAX_FANOUT = 16
TRACE_ROUNDS = 4


def trace_profiles() -> list[tuple[int, ...]]:
    """Token counts per class of every word of 1-6 tokens whose expansion
    has at most TRACE_MAX_FANOUT terms."""
    profiles = []
    for counts in itertools.product(range(7), repeat=len(TRACE_CLASSES)):
        fanout = math.prod(f ** k for f, k in zip(TRACE_FANOUT, counts))
        if 1 <= sum(counts) <= 6 and fanout <= TRACE_MAX_FANOUT:
            profiles.append(counts)
    return profiles


def trace_op_list(seed: int) -> list[list[str]]:
    """The trace-hot op cycle.  Each round holds one random word per profile,
    in random order, and queries it at both fixed points.  Stratifying by
    profile gives every seed the same mix of expansion sizes, so seeds differ
    in their words but not in their cost."""
    rng = random.Random(f"trace-hot:{seed}")
    ops = []
    for _ in range(TRACE_ROUNDS):
        profiles = trace_profiles()
        rng.shuffle(profiles)
        for counts in profiles:
            tokens = [rng.choice(cls) for cls, k in zip(TRACE_CLASSES, counts)
                      for _ in range(k)]
            rng.shuffle(tokens)
            for q, Q in TRACE_POINTS:
                ops.append(["trace", "--word", " ".join(tokens),
                            "--n", str(TRACE_N), "--q", q, "--Q", Q])
    return ops


def trace_warmup() -> list[list[str]]:
    """One query per point: fills the typeB_rep cache for every shape."""
    return [["trace", "--word", "t", "--n", str(TRACE_N), "--q", q, "--Q", Q]
            for q, Q in TRACE_POINTS]


def trace_ops(seed: int):
    ops = trace_op_list(seed)
    while True:
        yield from ops


# -- weights-sweep -----------------------------------------------------------

WEIGHT_TYPES = ("A", "B", "D")
WEIGHT_NS = (3, 4, 5, 6)
# Numerator and denominator both have three digits, so every point costs
# about the same to compute with and a run can draw ~10^5 fresh ones.
DIGITS = (100, 999)


def _fresh_rational(rng: random.Random, seen: set, exclude_one: bool) -> str:
    """A positive rational not drawn before in this run."""
    while True:
        x = Fraction(rng.randint(*DIGITS), rng.randint(*DIGITS))
        if x in seen or (exclude_one and x == 1):
            continue
        seen.add(x)
        return str(x)


def weights_ops(seed: int):
    """Op i: type A/B/D rotating, n rotating over 3..6 every three ops, output
    alternating JSON and CSV; q (and Q for type B) fresh for every op."""
    rng = random.Random(f"weights-sweep:{seed}")
    seen_q, seen_Q = set(), set()
    i = 0
    while True:
        kind = WEIGHT_TYPES[i % 3]
        n = WEIGHT_NS[(i // 3) % len(WEIGHT_NS)]
        argv = ["weights", "--type", kind, "--n", str(n),
                "--q", _fresh_rational(rng, seen_q, exclude_one=True)]
        if kind == "B":
            argv += ["--Q", _fresh_rational(rng, seen_Q, exclude_one=False)]
        argv += ["--format", ("json", "csv")[i % 2]]
        yield argv
        i += 1


def weights_warmup() -> list[list[str]]:
    return [["weights", "--type", kind, "--n", "3", "--q", "2", "--Q", "5"]
            for kind in WEIGHT_TYPES]


# -- verify-cold -------------------------------------------------------------

SUITES = ("relations", "markov", "branching", "schur", "hom", "typeD")
# At n = 3 the markov suite draws its own random words, and one verify seed
# in about thirty takes ~25 s (its t'_2-heavy words fan out); n = 2 bounds
# the fan-out of every letter by 2 while keeping every suite's code path.
VERIFY_N = 2


def verify_cycle(seed: int) -> list[list[str]]:
    return [["verify", "--suite", s, "--n", str(VERIFY_N), "--points", "1",
             "--seed", str(seed)] for s in SUITES]


def verify_seeds(seed: int):
    """Fresh verify seeds: one per cycle of the six suites."""
    rng = random.Random(f"verify-cold:{seed}")
    seen = set()
    while True:
        s = rng.randrange(10**9)
        if s not in seen:
            seen.add(s)
            yield s


def verify_warmup() -> list[list[str]]:
    # A verify seed of its own; generated seeds are < 10**9, so no measured
    # cycle reuses its points.
    return verify_cycle(10**9)


def verify_ops(seed: int):
    for s in verify_seeds(seed):
        yield from verify_cycle(s)


# -- checks ------------------------------------------------------------------

def check_weights(argv: list[str], out: str) -> bool:
    """Weights are normalized: sum of weight * dimension is exactly 1."""
    if "csv" in argv:
        rows = list(csv.DictReader(io.StringIO(out)))
    else:
        rows = json.loads(out)["weights"]
    total = sum(Fraction(r["weight"]) * int(r["dimension"]) for r in rows)
    return bool(rows) and total == 1


def check_verify(argv: list[str], out: str) -> bool:
    checks = json.loads(out)["checks"]
    return bool(checks) and all(c["pass"] is True for c in checks)


class TraceChecker:
    """Trace values must parse as rationals, repeat exactly when a query
    repeats, and, for seeds with recorded reference values, equal them."""

    def __init__(self, reference: dict | None = None):
        self.reference = reference or {}
        self.seen: dict[tuple, str] = {}

    def __call__(self, argv: list[str], out: str) -> bool:
        value = out.strip()
        Fraction(value)
        key = tuple(argv)
        expected = self.reference.get(key) or self.seen.setdefault(key, value)
        return value == expected
