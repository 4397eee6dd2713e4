"""One workload in one fresh process: import, warm up, closed-loop measure.

A single client calls ``heckeweights.cli.main(argv)`` in-process, waits for
it to return, checks the captured output, and sends the next op.  Prints one
JSON object as its last stdout line.  Started by run.py; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "trace_reference.json"


def import_program():
    """Import heckeweights from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from heckeweights import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"heckeweights imported from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    from heckeweights.scalars import Rat
    return {"rat_backend": f"{Rat.__module__}.{Rat.__name__}",
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


# CPU time of reference_loop on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11), 5th percentile of 11855 samples.
REFERENCE_LOOP_S = 0.0016
# peak_rss_mb is read after this many ops, not at the end of the run: the
# caches verify-cold fills grow with every op, so a faster program would
# otherwise report more memory for the same work.
RSS_OPS = 300


def reference_loop():
    """Fixed Fraction arithmetic using no heckeweights code."""
    x, acc = Fraction(3, 7), Fraction(0)
    for i in range(1, 300):
        acc += x ** (i % 13) / (1 + i)
    return acc


def reference_time() -> float:
    start = process_time()
    reference_loop()
    return process_time() - start


def call(cli, argv):
    """Run one op; return (exit code or None if it raised, stdout, seconds).

    The seconds are CPU time scaled to a reference speed.  On a shared host
    the speed of a core swings with other tenants' load: on the machine the
    benchmark was defined on, by about 1.5x in phases of about ten seconds.
    The client times reference_loop just before and just after the op and
    scales the op's CPU time by REFERENCE_LOOP_S over the mean of the two,
    which removes most of the swing.  The op is single-threaded, in-process
    and does no I/O, so its CPU time is its wall time less the time other
    tenants held the core.
    """
    before = reference_time()
    out, err = io.StringIO(), io.StringIO()
    start = process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    cpu_s = process_time() - start
    seconds = cpu_s * REFERENCE_LOOP_S * 2 / (before + reference_time())
    if code != 0:
        sys.stderr.write(f"op {argv} exited {code}: {err.getvalue()[-2000:]}\n")
    return code, out.getvalue(), seconds


def peak_rss() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plan(name: str, seed: int):
    """(warm-up argv lists, op iterator, output check) of a workload."""
    if name == "trace-hot":
        reference = None
        if REFERENCE.exists():
            doc = json.loads(REFERENCE.read_text())
            if doc["seed"] == seed:
                reference = {tuple(argv): value for argv, value in doc["values"]}
        return (workloads.trace_warmup(), workloads.trace_ops(seed),
                workloads.TraceChecker(reference))
    if name == "weights-sweep":
        return (workloads.weights_warmup(), workloads.weights_ops(seed),
                workloads.check_weights)
    return (workloads.verify_warmup(), workloads.verify_ops(seed),
            workloads.check_verify)


def run(name: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, setup_only: bool = False) -> dict:
    start = process_time()
    cli = import_program()
    warmup, ops, check = plan(name, seed)
    for argv in warmup:
        code, out, _ = call(cli, argv)
        if code != 0 or not check(argv, out):
            raise RuntimeError(f"warm-up op {argv} failed")
    setup_s = process_time() - start
    setup_s *= REFERENCE_LOOP_S / statistics.median(
        reference_time() for _ in range(9))
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies, failed, peak_rss_mb = [], 0, None
    begin = perf_counter()
    while perf_counter() - begin < seconds and \
            (max_ops is None or len(latencies) < max_ops):
        argv = next(ops)
        code, out, elapsed = call(cli, argv)
        latencies.append(elapsed)
        try:
            ok = code == 0 and check(argv, out)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok = False
            sys.stderr.write(f"op {argv}: unreadable output ({exc!r})\n")
        if not ok:
            failed += 1
            if code == 0:
                sys.stderr.write(f"op {argv}: wrong output {out[:500]!r}\n")
        if len(latencies) == RSS_OPS:
            peak_rss_mb = peak_rss()
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "failed": failed,
        "wall_s": perf_counter() - begin,
        "peak_rss_mb": peak_rss_mb or peak_rss(),
        "env": environment(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.max_ops, args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
