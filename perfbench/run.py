"""heckeweights benchmark: closed-loop CLI workloads with per-layer tracing.

    python3 perfbench/run.py --workload trace-hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload runs in a fresh worker process (worker.py) that drives
``heckeweights.cli.main`` from one closed-loop client.  With ``--trace 0``
the run prints the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` a separate run wraps the program's public functions and prints
the per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all`` runs every
workload untraced and traced, and also prints error_rate and the tracing
overhead.  ``--out FILE`` appends each run, with the Rat backend and
versions it ran on, to a JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Fresh processes that only import and warm up; with the measuring worker's
# own set-up they give five samples, whose median is setup_s.
SETUP_PROBES = 4
# A run's budget beyond its measuring time, for set-up probes, warm-up and
# the last op; the slowest op of any workload takes well under a second on
# the seed commit.  Keeps a 30-s run well inside 180 s.
SLACK_S = 90


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(workload, seed, seconds, deadline, trace=0,
           setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {workload} worker did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"error: {workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, raw: dict, setup_samples: list) -> dict:
    lat = sorted(raw["latencies_s"])
    tail = workloads.TAIL_PERCENTILE[workload]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": percentile(lat, tail) * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def with_units(values: dict, declared: list) -> dict:
    """Attach BENCHMARK.json's units; the computed and declared metric names
    must agree exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         f"are computed or declared but not both")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def measure(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One benchmark run: (result line, raw worker output)."""
    bench = spec()
    deadline = time.monotonic() + seconds + SLACK_S
    if trace:
        raw = worker(workload, seed, seconds, deadline, trace=1)
        metrics = with_units(raw["layers"], bench["per_layer"])
    else:
        setup = [worker(workload, seed, seconds, deadline,
                        setup_only=True)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        raw = worker(workload, seed, seconds, deadline)
        metrics = with_units(end_to_end(workload, raw,
                                        setup + [raw["setup_s"]]),
                             bench["end_to_end"])
    attempted = len(raw["latencies_s"])
    result = {"correct": raw["failed"] == 0, "attempted": attempted,
              "failed": raw["failed"], "metrics": metrics}
    return result, raw


def report(workload, result, raw):
    ops_per_s = len(raw["latencies_s"]) / sum(raw["latencies_s"])
    print(f"[{workload}] env {json.dumps(raw['env'], sort_keys=True)}")
    print(f"[{workload}] ops {result['attempted']}  error_rate "
          f"{result['failed'] / result['attempted']:.4f}  "
          f"ops_per_s {ops_per_s:.3f} 1/s (CPU), "
          f"{result['attempted'] / raw['wall_s']:.3f} 1/s (wall, with checks)  "
          f"tail = p{workloads.TAIL_PERCENTILE[workload]}")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name} {m['value']:.6g} {m['unit']}")


def record(path, workload, args, trace, result, raw):
    line = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": trace, "env": raw["env"], "result": result}
    with open(path, "a") as fh:
        fh.write(json.dumps(line) + "\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append each run to this JSON-lines file")
    args = parser.parse_args()
    if not (ROOT / "src" / "heckeweights" / "__init__.py").is_file():
        sys.exit(f"error: no heckeweights sources under {ROOT / 'src'}")

    if args.workload != "all":
        result, raw = measure(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, result, raw)
        if args.out:
            record(args.out, args.workload, args, args.trace, result, raw)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        ops_per_s = {}
        for trace in (0, 1):
            result, raw = measure(workload, args.seed, args.seconds, trace)
            report(workload, result, raw)
            if args.out:
                record(args.out, workload, args, trace, result, raw)
            ops_per_s[trace] = len(raw["latencies_s"]) / sum(raw["latencies_s"])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
        overhead = 1 - ops_per_s[1] / ops_per_s[0]
        print(f"[{workload}] tracing overhead {overhead:.1%} of untraced "
              f"ops_per_s ({ops_per_s[0]:.3f} -> {ops_per_s[1]:.3f} 1/s)")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
