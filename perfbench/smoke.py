"""Smoke test of the benchmark: tiny op counts, layer separation, checkers.

    python3 perfbench/smoke.py

Runs every workload traced for a few ops in its own worker process and
checks the layer separation the workloads are chosen for: reps.evaluate is
never reached by weights-sweep, typeB_rep always hits on trace-hot after
warm-up, and every verify-cold cycle misses the typeB_rep cache.  Also feeds
the output checkers wrong outputs, which they must reject.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from run import ROOT, WORKER
from worker import call, import_program

OPS = 12
failures = []


def expect(ok: bool, message: str):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0",
         "--seconds", "60", "--trace", "1", "--max-ops", str(OPS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_separation():
    for workload in workloads.WORKLOADS:
        raw = traced(workload)
        layers = raw["layers"]
        expect(len(raw["latencies_s"]) == OPS and raw["failed"] == 0,
               f"{workload}: {OPS} ops, none failed")
        evaluate = layers["reps.evaluate.calls"]
        if workload == "weights-sweep":
            expect(evaluate == 0, f"{workload}: reps.evaluate.calls == 0")
        else:
            expect(evaluate > 0, f"{workload}: reps.evaluate.calls > 0")
        if workload == "trace-hot":
            expect(layers["reps.typeB_rep.calls"] > 0
                   and layers["reps.typeB_rep.hit_ratio"] == 1,
                   f"{workload}: reps.typeB_rep.hit_ratio == 1 after warm-up")


def verify_cycles_miss(cycles: int = 3):
    """Every verify-cold cycle builds representations at new points."""
    cli = import_program()
    from heckeweights import reps
    seeds = workloads.verify_seeds(0)
    for _ in range(cycles):
        seed = next(seeds)
        before = reps.typeB_rep.cache_info().misses
        for argv in workloads.verify_cycle(seed):
            code, out, _ = call(cli, argv)
            expect(code == 0 and workloads.check_verify(argv, out),
                   f"verify-cold {argv[2]} seed {seed} passes")
        expect(reps.typeB_rep.cache_info().misses > before,
               f"verify-cold cycle with seed {seed} misses the typeB_rep cache")


def checkers_reject_wrong_output():
    cli = import_program()
    argv = next(workloads.weights_ops(0))  # a JSON table
    code, out, _ = call(cli, argv)
    expect(workloads.check_weights(argv, out), "weights output passes its check")
    doc = json.loads(out)
    doc["weights"][0]["dimension"] += 1
    expect(not workloads.check_weights(argv, json.dumps(doc)),
           "weights check rejects a wrong dimension")

    argv = workloads.verify_cycle(7)[0]
    code, out, _ = call(cli, argv)
    doc = json.loads(out)
    doc["checks"][-1]["pass"] = False
    expect(not workloads.check_verify(argv, json.dumps(doc)),
           "verify check rejects a failed check")

    argv = workloads.trace_op_list(0)[0]
    code, out, _ = call(cli, argv)
    checker = workloads.TraceChecker({tuple(argv): "1/7"})
    expect(not checker(argv, out), "trace check rejects a value that differs "
                                   "from the reference")
    checker = workloads.TraceChecker()
    expect(checker(argv, out) and not checker(argv, "1/7"),
           "trace check rejects a repeated query with a new value")


def main():
    layer_separation()
    verify_cycles_miss()
    checkers_reject_wrong_output()
    if failures:
        sys.exit(f"{len(failures)} smoke check(s) failed")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
