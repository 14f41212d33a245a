"""One process that cleans CSV tables: the measured side of batch_clean and
out_of_core.

Usage (run from the repository root)::

    python3 pfdbench/pipeline.py --backend numpy --seconds 20 --trace 0 \\
        --out DIR a.csv b.csv ...

Each pass cleans one table cold in a fresh ``CleaningSession`` with
``workers=1``: ``read_csv`` -> ``profile`` -> ``discover`` -> ``detect`` ->
``repair`` -> ``write_csv``.  The process first makes one warm-up pass over
every table and prints ``READY``; the launcher times the interval from
starting the interpreter to that line.  With ``--seconds`` above 0 it then
runs whole rounds (one pass per table) until that many seconds have passed.
Untraced passes carry two latency probes only: every ``Relation.apply``
call (a write; the repair stage writes each repaired cell through it) and
every outermost partition query (a read).  With ``--trace 1`` the first
half of the time runs with the probes only and the second half with every
span, so one run yields both the span totals and the tracing overhead.  The
last line of output is one JSON document.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from repro import CleaningSession  # noqa: E402
from repro.core.serialization import pfds_to_json  # noqa: E402
from repro.dataset.csvio import write_csv  # noqa: E402

#: Pass times are scaled to the host speed at which calibrate() takes this
#: long (see NOTES.md, "Steadiness").
NOMINAL_CALIBRATION_S = 0.03

_WORDS = [f"AB{i:05d}-x{i % 13}" for i in range(3000)]
_CODES = np.arange(50_000, dtype=np.int64)


def calibrate() -> float:
    """Seconds of a fixed piece of work that calls nothing in ``repro``:
    string and dict operations plus NumPy sorts over arrays of the tables'
    size, the mix a cleaning pass is made of."""
    start = time.perf_counter()
    counts: dict = {}
    for _ in range(3):
        for word in _WORDS:
            key = word[:4] + word.upper()[5:]
            counts[key] = counts.get(key, 0) + len(word.split("-"))
    for _ in range(20):
        order = np.argsort(_CODES[::-1] % 977, kind="stable")
        np.bincount(_CODES[order] % 101)
    return time.perf_counter() - start


class Probe:
    """Latencies of the outermost calls of one span's entry points.

    With ``counter``, a call is kept only when it moved
    ``counter(receiver)``: a partition query counts as a read of the table
    only when it missed the partition cache and computed a partition.
    """

    def __init__(self, counter: Optional[Callable] = None) -> None:
        self.samples = array("d")
        self._counter = counter
        self._depth = 0

    def install(self, span_name: str) -> None:
        for klass, attribute in spans.methods(span_name):
            setattr(klass, attribute, self._wrap(klass.__dict__[attribute]))

    def _wrap(self, function):
        probe = self
        counter = self._counter

        @functools.wraps(function)
        def timed(receiver, *args, **kwargs):
            probe._depth += 1
            before = counter(receiver) if counter is not None else None
            start = time.perf_counter()
            try:
                return function(receiver, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                probe._depth -= 1
                if probe._depth == 0 and (counter is None or counter(receiver) != before):
                    probe.samples.append(seconds)

        return timed

    def scale_from(self, mark: int, scale: float) -> None:
        for index in range(mark, len(self.samples)):
            self.samples[index] *= scale


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def clean_pass(path: Path, out: Path, backend: str, measure_store: bool) -> dict:
    """Clean one table; returns the output digests and the pass counters."""
    with CleaningSession.from_csv(path, backend=backend, workers=1) as session:
        session.profile()
        discovery = session.discover()
        report = session.detect()
        repaired = session.repair()
        write_csv(repaired.relation, out)
        stats = session.stats()
        db_bytes = 0
        if measure_store and backend == "sql":
            store = session.relation.store
            db_bytes = store.fetch_value("PRAGMA page_count") * store.fetch_value(
                "PRAGMA page_size"
            )
    detected = sorted((e.cell.row_id, e.cell.attribute) for e in report.errors)
    return {
        "digests": [
            _sha(pfds_to_json(discovery.pfds).encode("utf-8")),
            _sha(json.dumps(detected).encode("utf-8")),
            _sha(out.read_bytes()),
        ],
        "dependencies": sorted([list(l), list(r)] for l, r in discovery.dependency_keys),
        "detected": detected,
        "counts": {
            "candidates": discovery.candidate_count,
            "dependencies": len(discovery.dependencies),
            "index_entries": discovery.index_entries,
            "partition_hits": stats.partition_hits,
            "partition_misses": stats.partition_misses,
            "match_cache_hits": stats.match_cache_hits,
            "pattern_set_compilations": stats.pattern_set_compilations,
        },
        "db_bytes": db_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("tables", nargs="+", type=Path)
    args = parser.parse_args()

    tables = {path.stem: path for path in args.tables}
    outputs = {name: args.out / f"{name}.repaired.csv" for name in tables}
    result = {name: {"passes": [], "raw": [], "traced": [], "digests": []} for name in tables}
    probes = {"write": Probe(), "read": Probe(lambda manager: manager.stats.misses)}
    probes["write"].install("dataset.apply")
    probes["read"].install("engine.partition")
    calibration = [calibrate()]

    def run_pass(name: str, phase: str) -> None:
        marks = {kind: len(probe.samples) for kind, probe in probes.items()}
        start = time.perf_counter()
        outcome = clean_pass(tables[name], outputs[name], args.backend, phase == "warmup")
        seconds = time.perf_counter() - start
        calibration.append(calibrate())
        scale = NOMINAL_CALIBRATION_S / statistics.mean(calibration[-2:])
        for kind, probe in probes.items():
            probe.scale_from(marks[kind], scale)
        entry = result[name]
        if phase == "warmup":
            entry.update(
                dependencies=outcome["dependencies"],
                detected=outcome["detected"],
                db_bytes=outcome["db_bytes"],
            )
        else:
            entry[phase].append(seconds * scale)
            entry.setdefault(f"{phase}_counts", []).append(outcome["counts"])
            if phase == "passes":
                entry["raw"].append(seconds)
        if outcome["digests"] not in entry["digests"]:
            entry["digests"].append(outcome["digests"])

    for name in tables:
        run_pass(name, "warmup")
    # The launcher scales its set-up time by the same host-speed factor.
    print(f"READY {NOMINAL_CALIBRATION_S / statistics.mean(calibration)}", flush=True)

    latency, trace, cpu = {}, {}, {}
    if args.seconds > 0:
        marks = {kind: len(probe.samples) for kind, probe in probes.items()}
        process_cpu, thread_cpu = time.process_time(), time.thread_time()
        deadline = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
        while time.perf_counter() < deadline:
            for name in tables:
                run_pass(name, "passes")
        cpu = {"process": time.process_time() - process_cpu,
               "thread": time.thread_time() - thread_cpu}
        for kind, probe in probes.items():
            samples = [s * 1e3 for s in probe.samples[marks[kind]:]]
            latency[kind] = {
                "count": len(samples),
                "p50": statistics.median(samples),
                "p90": statistics.quantiles(samples, n=10)[8],
            }
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            start = time.monotonic()
            deadline = time.perf_counter() + args.seconds / 2
            while time.perf_counter() < deadline:
                for name in tables:
                    run_pass(name, "traced")
            totals, tallies = spans.summarize(tracer.spans, since=start)
            trace = {"totals": totals, "tallies": dict(tallies)}

    document = {
        "tables": result,
        "latency": latency,
        "cpu": cpu,
        "calibration_s": statistics.median(calibration),
        "trace": trace,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
