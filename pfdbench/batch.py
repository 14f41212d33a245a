"""The batch_clean and out_of_core workloads: launch pipeline.py, check its
outputs, and turn its pass times and spans into metrics."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from common import (
    HERE, MIN_SAMPLES, ROOT, Gates, child_env, layer_metrics, ratio, write_trace,
)

#: Recall floors every generated table must meet (planted dependencies
#: found by discovery; planted error cells flagged by detection).
DEPENDENCY_RECALL_FLOOR = 1.0
ERROR_RECALL_FLOOR = 0.8
#: Fresh interpreters launched per run to take the median set-up time.
SETUP_LAUNCHES = 3


def launch_pipeline(backend: str, seconds: float, trace: int, tables, work: Path):
    """Run pipeline.py once; returns (seconds until READY, scaled to the
    nominal host speed like the pass times, and its JSON document)."""
    command = [
        sys.executable, str(HERE / "pipeline.py"), "--backend", backend,
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(work),
        *[str(table.path) for table in tables],
    ]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = None
        lines = []
        for line in process.stdout:
            if line.startswith("READY ") and ready is None:
                ready = (time.perf_counter() - start) * float(line.split()[1])
            else:
                lines.append(line)
        code = process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or ready is None or not lines:
        raise RuntimeError(f"pipeline.py exited with {code}")
    return ready, json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    backend = "sql" if workload == "out_of_core" else "numpy"
    gates = Gates()
    tables = inputs.batch_tables(workload, seed, work)
    for table in tables:
        print(f"input {workload}/{table.path.name} rows={table.rows} "
              f"bytes={table.path.stat().st_size} sha256={table.sha256}")
    problems = inputs.check_pinned(workload, seed, tables)
    gates.check("inputs match the pinned digests", not problems, "; ".join(problems))

    setups, docs = [], []
    for launch in range(SETUP_LAUNCHES):
        timed = launch == SETUP_LAUNCHES - 1
        ready, doc = launch_pipeline(
            backend, seconds if timed else 0, trace if timed else 0, tables, work
        )
        setups.append(ready)
        docs.append(doc)
    timed_doc = docs[-1]
    reference = None
    if workload == "out_of_core":
        _, reference = launch_pipeline("numpy", 0, 0, tables, work)

    passes = 0
    for table in tables:
        name = table.name
        entries = [doc["tables"][name] for doc in docs]
        passes += sum(1 + len(e["passes"]) + len(e["traced"]) for e in entries)
        digests = {tuple(d) for e in entries for d in e["digests"]}
        gates.check(f"{name}: PFD, detected-cell and repaired-CSV digests identical "
                    "across every pass", len(digests) == 1, f"{len(digests)} distinct")
        first = entries[0]
        found = {(tuple(lhs), tuple(rhs)) for lhs, rhs in first["dependencies"]}
        dep_recall = ratio(len(table.true_dependencies & found), len(table.true_dependencies))
        detected = {(row, attribute) for row, attribute in first["detected"]}
        err_recall = ratio(len(table.error_cells & detected), len(table.error_cells))
        print(f"check {name}: dependency recall {dep_recall:.3f}, "
              f"error-cell recall {err_recall:.3f} ({len(table.error_cells)} planted)")
        gates.check(f"{name}: planted-dependency recall", dep_recall >= DEPENDENCY_RECALL_FLOOR,
                    f"{dep_recall:.3f} < {DEPENDENCY_RECALL_FLOOR}")
        gates.check(f"{name}: planted-error-cell recall", err_recall >= ERROR_RECALL_FLOOR,
                    f"{err_recall:.3f} < {ERROR_RECALL_FLOOR}")
        if reference is not None:
            expected = {tuple(d) for d in reference["tables"][name]["digests"]}
            gates.check(f"{name}: sql digests equal the numpy engine's", digests == expected,
                        f"{sorted(digests)} != {sorted(expected)}")

    rows = sum(table.rows for table in tables)
    phase = "traced" if trace else "passes"
    medians = {t.name: statistics.median(timed_doc["tables"][t.name][phase]) for t in tables}
    samples = {t.name: len(timed_doc["tables"][t.name][phase]) for t in tables}
    latency = timed_doc["latency"]
    print(f"samples: setup launches={len(setups)}, passes per table={samples}, "
          f"writes={latency['write']['count']}, reads={latency['read']['count']}")
    print("median pass seconds at nominal speed: "
          + ", ".join(f"{k}={v:.4f}" for k, v in medians.items()))

    raw = {t.name: statistics.median(timed_doc["tables"][t.name]["raw"]) for t in tables}
    print("median pass seconds as timed: " + ", ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    print(f"median calibration seconds: {timed_doc['calibration_s']:.4f}")
    cpu = timed_doc["cpu"]
    gates.check("no other thread used CPU during the timed passes",
                cpu["process"] <= 1.01 * cpu["thread"], str(cpu))

    if not trace:
        for kind in ("write", "read"):
            gates.check(f"at least {MIN_SAMPLES} {kind} samples for each p90",
                        latency[kind]["count"] >= MIN_SAMPLES, str(latency[kind]["count"]))
        round_s = sum(medians.values())
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": timed_doc["maxrss_kb"] / 1024, "unit": "MB"},
            "rows_per_s": {"value": rows / round_s, "unit": "rows/s"},
            "ops_per_s": {"value": len(tables) / round_s, "unit": "ops/s"},
            "write_p50_ms": {"value": latency["write"]["p50"], "unit": "ms"},
            "write_p90_ms": {"value": latency["write"]["p90"], "unit": "ms"},
            "read_p50_ms": {"value": latency["read"]["p50"], "unit": "ms"},
            "read_p90_ms": {"value": latency["read"]["p90"], "unit": "ms"},
        }
    else:
        rounds = min(samples.values())
        write_trace(workload, seed, timed_doc["trace"]["totals"], rounds, "round")
        metrics = layer_metrics(batch_layers(tables, timed_doc, medians))
    return {
        "correct": gates.failed == 0,
        "attempted": passes + gates.attempted,
        "failed": gates.failed,
        "metrics": metrics,
    }


def batch_layers(tables, doc: dict, traced_medians: dict) -> dict:
    """Per-layer metrics of a traced batch run, per round of all tables."""
    totals = doc["trace"]["totals"]
    tallies = doc["trace"]["tallies"]
    entries = [doc["tables"][t.name] for t in tables]
    rounds = min(len(e["traced"]) for e in entries)

    def per_round(name: str, kind: str = "inclusive") -> float:
        return totals.get(name, {}).get(kind, 0.0) / rounds

    def count(key: str) -> float:
        return sum(c[key] for e in entries for c in e["traced_counts"][:rounds]) / rounds

    untraced = sum(statistics.median(e["passes"]) for e in entries)
    match_calls = totals.get("engine.match", {}).get("calls", {}).get(
        "PatternEvaluator.match_column", 0) / rounds
    hits, misses = count("partition_hits"), count("partition_misses")
    return {
        "dataset.read_csv_s": per_round("dataset.read_csv"),
        "dataset.write_csv_s": per_round("dataset.write_csv"),
        "dataset.profile_s": per_round("dataset.profile"),
        "dataset.index_s": per_round("dataset.index"),
        "dataset.index_entries": count("index_entries"),
        "dataset.apply_ms": ratio(totals.get("dataset.apply", {}).get("inclusive", 0.0),
                                  totals.get("dataset.apply", {}).get("count", 0)) * 1e3,
        "discovery.discover_self_s": per_round("discovery.discover", "self"),
        "discovery.generalize_s": per_round("discovery.generalize"),
        "discovery.candidates": count("candidates"),
        "discovery.accept_ratio": ratio(count("dependencies"), count("candidates")),
        "patterns.compile_s": per_round("patterns.compile"),
        "patterns.compilations": count("pattern_set_compilations"),
        "engine.partition_s": per_round("engine.partition"),
        "engine.partition_hit_ratio": ratio(hits, hits + misses),
        "engine.match_s": per_round("engine.match"),
        "engine.match_hit_ratio": ratio(count("match_cache_hits"), match_calls),
        "core.violations_s": per_round("core.violations"),
        "core.violation_cells": tallies.get("core.violation_cells", 0) / rounds,
        "cleaning.detect_s": per_round("cleaning.detect"),
        "cleaning.repair_s": per_round("cleaning.repair"),
        "cleaning.detected_cells": tallies.get("cleaning.detected_cells", 0) / rounds,
        "cleaning.repaired_cells": tallies.get("cleaning.repaired_cells", 0) / rounds,
        "storage.sql_s": per_round("storage.sql"),
        "storage.sql_calls": per_round("storage.sql", "count"),
        "storage.db_mb": max(e.get("db_bytes", 0) for e in entries) / (1 << 20),
        "trace_overhead": ratio(sum(traced_medians.values()), untraced),
    }
