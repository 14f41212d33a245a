"""Start the ``pfd-discover serve`` daemon, optionally traced from inside.

Usage (run from the repository root)::

    python3 pfdbench/daemon.py --trace 0|1 --result FILE -- serve ARGS...

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the process
is the real CLI daemon.  With ``--trace 1`` the span wrappers are installed
before it starts serving.  When the daemon stops (``POST /shutdown``) this
writes FILE: the process's peak RSS and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    code = cli_main(cli_args)
    args.result.write_text(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
