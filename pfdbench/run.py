"""Benchmark of the PFD cleaning engine, driven from outside the program.

Usage, from the repository root::

    python3 pfdbench/run.py --workload batch_clean --seed 0 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists and its sizes):

* ``batch_clean`` — the four scenario shapes cleaned offline with the numpy
  engine: read, profile, discover, detect, repair, write;
* ``service_crud`` — one closed-loop client against a ``pfd-discover
  serve`` daemon: 10-op writes with a full ``detect`` after every third;
* ``out_of_core`` — the batch pipeline on the SQLite-backed engine.

Everything runs in one process per measured program with ``workers=1``.
Inputs are generated from ``--seed``; every output is checked.  The last
line of output is one JSON document with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch_clean", "service_crud", "out_of_core")


def main() -> int:
    parser = argparse.ArgumentParser(description="PFD cleaning engine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("pfdbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    work = ROOT / ".pfdbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "service_crud":
            import service_load

            result = service_load.run(args.seed, args.seconds, args.trace, work)
        else:
            import batch

            result = batch.run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
