"""Record trace-hot reference values for one seed into trace_reference.json.

    python3 perfbench/record_reference.py [--seed 0]

The recorded file pins the program's trace values: the benchmark then fails
any op on that seed whose value differs.  Re-record only on purpose.
"""

from __future__ import annotations

import argparse
import json

import workloads
from worker import REFERENCE, call, import_program


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cli = import_program()
    values = []
    for argv in workloads.trace_op_list(args.seed):
        code, out, _ = call(cli, argv)
        if code != 0:
            raise SystemExit(f"error: {argv} exited {code}")
        values.append([argv, out.strip()])
    rows = ",\n".join(json.dumps(v) for v in values)
    REFERENCE.write_text(f'{{"seed": {args.seed}, "values": [\n{rows}\n]}}\n')
    print(f"recorded {len(values)} trace values for seed {args.seed}")


if __name__ == "__main__":
    main()
