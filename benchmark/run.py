#!/usr/bin/env python3
"""colflow's benchmark: three facility workloads, checked against numpy.

    python3 benchmark/run.py --workload post-30var --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: paths are taken from this file. It
generates the seeded dataset, brings up a MiniFacility (data server,
scheduler, one worker with one slot), drives one workload from this
process, checks every output, and prints one JSON object as its last
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Working files go to .bench_out/ and the dataset is deleted at exit.
See benchmark/README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("post-30var", "skim", "legacy-post")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "colflow")):
        print(f"error: no colflow package under {SRC}", file=sys.stderr)
        return 2
    # colflow is run from its sources, not installed; the facility's children
    # (`python -m colflow.cli`) inherit the path through PYTHONPATH
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
