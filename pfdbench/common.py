"""Shared pieces of the benchmark: locations, correctness gates, the
per-layer metric table and the trace summary file."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: A p90 is reported from at least this many samples, so that at least ten
#: lie beyond it; a run with fewer fails a gate.
MIN_SAMPLES = 100

#: Every per-layer metric and its unit, as BENCHMARK.json lists them.
PER_LAYER = {
    metric["name"]: metric["unit"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def child_env(work: Path) -> dict:
    """Environment for the measured processes: temporary files, SQLite's
    private databases included, stay inside the run's scratch directory."""
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp), "SQLITE_TMPDIR": str(tmp)}


class Gates:
    """Correctness checks of one run, counted into attempted / failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(values: dict) -> dict:
    """Every per-layer metric; those of a layer the workload does not reach
    in its timed phase read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def write_trace(workload: str, seed: int, totals: dict, units: int, unit: str) -> None:
    """Print the self seconds per layer per work unit, and keep the span
    totals of a traced run next to the benchmark output."""
    layers = {
        layer: seconds / units for layer, seconds in spans.layer_self_seconds(totals).items()
    }
    print(f"layer self seconds per {unit}: " + ", ".join(
        f"{layer}={seconds:.4f}" for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
    ))
    out = ROOT / ".pfdbench" / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"spans": totals, f"layer_self_seconds_per_{unit}": layers},
                              indent=1))
