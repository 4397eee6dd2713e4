"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Refuses, with exit code 2, to compare sets that ran on different Rat
backends: gmpy2.mpq and fractions.Fraction differ by about 10x in every
timing.  Otherwise prints, per workload and end-to-end metric, both medians
with their quartile spread (as a share of the median) and the change in the
worse direction against the bound in BENCHMARK.json, and exits 1 if any
median is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> tuple[set, dict]:
    """(environments seen, {(workload, metric): [values]}) of untraced runs."""
    envs, values = set(), {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        envs.add(tuple(sorted(rec["env"].items())))
        if rec["trace"] == 0:
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
    return envs, values


def spread(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / statistics.median(values):.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    base_envs, base = load(args.base)
    new_envs, new = load(args.new)
    backends = {dict(e)["rat_backend"] for e in base_envs | new_envs}
    if len(backends) != 1:
        print(f"refusing to compare: Rat backends differ ({sorted(backends)})",
              file=sys.stderr)
        sys.exit(2)
    if len(base_envs | new_envs) != 1:
        print(f"warning: environments differ: "
              f"{[dict(e) for e in base_envs | new_envs]}", file=sys.stderr)

    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    regressions = 0
    print("workload metric base_median base_spread new_median new_spread "
          "worse_by bound")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        spec = bounds[name]
        b, n = statistics.median(base[key]), statistics.median(new[key])
        worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
        flag = "  REGRESSION" if worse > spec["bound"] else ""
        regressions += bool(flag)
        print(f"{workload} {name} {b:.6g} {spread(base[key])} {n:.6g} "
              f"{spread(new[key])} {worse:+.3f} {spec['bound']}{flag}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
