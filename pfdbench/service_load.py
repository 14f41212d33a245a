"""The service_crud workload: one closed-loop client against the daemon.

The daemon is ``pfd-discover serve --engine numpy --workers 1`` in its own
process (started through daemon.py).  One tenant is loaded from the
generated ``wide_sparse`` table and its constraints are discovered during
set-up.  The client then sends a write, waits for its delta report, sends
the next one (a closed loop, like a tenant that waits for each report before
its next batch), and sends one ``/detect`` after every third write.

The request stream is generated here from the seed, not taken from
``ScenarioSpec.mutation_stream``: that stream can target a row appended
earlier in the same batch, which ``Relation.apply`` rejects (NOTES.md).
Every update or delete targets a row that was live before its request.

Checks: every reply equals an in-process ``CleaningSession`` replay of the
same requests; the registry's final ``data.csv`` equals the replayed table;
a daemon restarted on the same registry answers ``detect`` identically.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans
from common import (
    HERE, MIN_SAMPLES, ROOT, Gates, child_env, layer_metrics, ratio, write_trace,
)
from repro import CleaningSession
from repro.cleaning.detector import DetectionReport
from repro.dataset.csvio import write_csv
from repro.dataset.mutations import MutationBatch, batch_from_document

TENANT = "tenant"
OPS_PER_WRITE = 10
READ_EVERY = 3
#: Write kinds in the order the stream repeats them: the scenario op mix,
#: 70/20/10, as a fixed cycle.  Values and target rows come from the seed;
#: the order does not, so every run has the same writes before each read
#: and the same table growth.
CYCLE = ("update", "update", "ingest", "update", "update",
         "delete", "update", "ingest", "update", "update")
#: Writes after which the cycle and the reads line up again; the loop ends
#: only after a whole number of periods.
PERIOD = math.lcm(len(CYCLE), READ_EVERY)
#: The loop runs past --seconds, up to LOOP_CAP times it, to collect
#: MIN_SAMPLES reads.
LOOP_CAP = 3
#: Daemons started per run to take the median set-up time.  A launch costs
#: about a second, so the service takes more than the batch workloads.
SETUP_LAUNCHES = 5


class RequestStream:
    """Deterministic writes; updates and deletes target rows live before the
    request, appends and whole-row updates take fresh rows from the pool."""

    def __init__(self, seed: int, columns: list, row_count: int, pool: list):
        self.rng = random.Random(seed)
        self.columns = columns
        self.live = list(range(row_count))
        self.next_row = row_count
        self.pool = pool
        self.taken = 0
        self.writes = 0

    def _fresh(self) -> list:
        row = self.pool[self.taken % len(self.pool)]
        self.taken += 1
        return row

    def next_write(self) -> tuple[str, dict]:
        kind = CYCLE[self.writes % len(CYCLE)]
        self.writes += 1
        if kind == "update":
            targets = self.rng.sample(self.live, OPS_PER_WRITE)
            return "update", {"ops": [
                {"op": "update", "row": row, "values": dict(zip(self.columns, self._fresh()))}
                for row in targets
            ]}
        if kind == "ingest":
            rows = [self._fresh() for _ in range(OPS_PER_WRITE)]
            self.live.extend(range(self.next_row, self.next_row + OPS_PER_WRITE))
            self.next_row += OPS_PER_WRITE
            return "ingest", {"rows": rows}
        victims = self.rng.sample(self.live, OPS_PER_WRITE)
        gone = set(victims)
        self.live = [row for row in self.live if row not in gone]
        return "delete", {"rows": victims}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """One daemon process and a keep-alive HTTP connection to it."""

    def __init__(self, registry: Path, work: Path, trace: int, tag: str):
        port = _free_port()
        self.result_path = work / f"daemon-{tag}.json"
        self.log = (work / f"daemon-{tag}.log").open("w")
        command = [
            sys.executable, str(HERE / "daemon.py"), "--trace", str(trace),
            "--result", str(self.result_path), "--",
            "serve", "--registry", str(registry), "--port", str(port),
            "--engine", "numpy", "--workers", "1", "--quiet",
        ]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(work), stdout=self.log, stderr=subprocess.STDOUT
        )
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                if self.request("GET", "/health")[0] == 200:
                    return
            except OSError:
                self.connection.close()
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("service daemon did not become ready")
            time.sleep(0.005)

    def request(self, method: str, path: str, body: bytes = None) -> tuple[int, bytes, float]:
        """(status, reply body, client-observed seconds)."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def post(self, path: str, document: dict) -> tuple[int, bytes, float]:
        return self.request("POST", path, json.dumps(document).encode("utf-8"))

    def stop(self) -> dict:
        """Shut down through the API and return daemon.py's result file."""
        self.post("/shutdown", {})
        self.connection.close()
        self.process.wait(timeout=60)
        self.log.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"service daemon exited with {self.process.returncode}")
        return json.loads(self.result_path.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()


def _tenant_path(action: str) -> str:
    return f"/tenants/{TENANT}/{action}"


class Launch:
    """One daemon's life: set-up, the optional timed loop, the final detect."""

    def __init__(self, registry: Path, work: Path, trace: int, tag: str):
        self.registry, self.work, self.trace, self.tag = registry, work, trace, tag
        self.records: list = []  # (kind, request document, status, reply, seconds, bytes)

    def run(self, csv_text, stream, seconds: float, min_reads: int) -> None:
        """Without ``csv_text`` the daemon serves the registry as it is."""
        start = time.perf_counter()
        daemon = Daemon(self.registry, self.work, self.trace, self.tag)
        try:
            daemon.wait_ready()
            if csv_text is not None:
                self.load = daemon.post(_tenant_path("load"), {"csv": csv_text})
                self.discover = daemon.post(_tenant_path("discover"), {})
            self.setup_s = time.perf_counter() - start
            if stream is not None:
                self._loop(daemon, stream, seconds, min_reads)
            self.final = daemon.post(_tenant_path("detect"), {})
            self.result = daemon.stop()
        finally:
            daemon.kill()

    def _loop(self, daemon: Daemon, stream, seconds: float, min_reads: int) -> None:
        self.stats_before = json.loads(daemon.request("GET", "/stats")[1])
        self.window = [time.monotonic(), 0.0]
        start = time.perf_counter()
        writes = reads = 0
        while True:
            elapsed = time.perf_counter() - start
            done = elapsed >= seconds and reads >= min_reads or elapsed >= LOOP_CAP * seconds
            if done and writes % PERIOD == 0:
                break
            kind, document = stream.next_write()
            body = json.dumps(document).encode("utf-8")
            status, reply, latency = daemon.request("POST", _tenant_path(kind), body)
            self.records.append((kind, document, status, reply, latency, len(body)))
            writes += 1
            if writes % READ_EVERY == 0:
                status, reply, latency = daemon.post(_tenant_path("detect"), {})
                self.records.append(("detect", None, status, reply, latency, 0))
                reads += 1
        self.wall = time.perf_counter() - start
        self.window[1] = time.monotonic()
        self.stats_after = json.loads(daemon.request("GET", "/stats")[1])


# -- the in-process replay ----------------------------------------------------------


def _report_doc(session, report) -> dict:
    return {
        "rows": session.relation.row_count,
        "error_count": len(report.errors),
        "violation_count": len(report.violations),
        "errors": [
            {
                "row": error.cell.row_id,
                "attribute": error.cell.attribute,
                "value": error.current_value,
                "suggested": error.suggested_value,
                "evidence": error.evidence_count,
                "constraints": list(error.constraints),
            }
            for error in report.errors
        ],
    }


class Replay:
    """The same requests applied to an in-process CleaningSession."""

    def __init__(self, tenant_csv: Path):
        self.session = CleaningSession.from_csv(tenant_csv, backend="numpy", workers=1)
        self.pfds = self.session.discover().pfds

    def reply(self, kind: str, document) -> dict:
        session = self.session
        if kind == "detect":
            return _report_doc(session, session.detect(self.pfds))
        rows_before = session.relation.row_count
        empty = DetectionReport(relation_name=session.relation.name, errors=[], violations=[])
        if kind == "ingest":
            appended = session.append(document["rows"])
            report = session.detect_new(self.pfds) if len(appended) else empty
            doc = _report_doc(session, report)
            doc.update(rows_before=rows_before, rows_appended=len(appended),
                       appended_start=appended.start if len(appended) else None)
            return doc
        if kind == "update":
            batch = batch_from_document(document)
        else:
            batch = MutationBatch.deletes(document["rows"])
        result = session.apply(batch)
        report = session.detect_changed(self.pfds) if result else empty
        doc = _report_doc(session, report)
        doc.update(
            rows_before=rows_before,
            rows_updated=len(result.updated_rows),
            rows_deleted=len(result.deleted_rows),
            rows_appended=len(result.appended),
            changed_rows=list(result.changed_rows),
        )
        return doc


def _matches(reply: bytes, expected: dict) -> bool:
    document = json.loads(reply)
    return {key: document.get(key) for key in expected} == expected


def _quantile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


# -- the workload ---------------------------------------------------------------------


def run(seed: int, seconds: float, trace: int, work: Path) -> dict:
    gates = Gates()
    tenant, pool_table, pool = inputs.service_tables(seed, work)
    for table in (tenant, pool_table):
        print(f"input service_crud/{table.path.name} rows={table.rows} "
              f"bytes={table.path.stat().st_size} sha256={table.sha256}")
    problems = inputs.check_pinned("service_crud", seed, [tenant, pool_table])
    gates.check("inputs match the pinned digests", not problems, "; ".join(problems))
    csv_text = tenant.path.read_text(encoding="utf-8")
    columns = csv_text.split("\n", 1)[0].split(",")

    def stream():
        return RequestStream(seed, columns, tenant.rows, pool)

    if trace:
        # Two daemons on the same stream: untraced, then traced.
        plan = [(0, seconds / 2, 0), (1, seconds / 2, 0)]
    else:
        plan = [(0, 0, 0)] * (SETUP_LAUNCHES - 1) + [(0, seconds, MIN_SAMPLES)]
    launches = []
    for index, (traced, loop_seconds, min_reads) in enumerate(plan):
        launch = Launch(work / f"registry-{index}", work, traced, f"run{index}")
        launch.run(csv_text, stream() if loop_seconds else None, loop_seconds, min_reads)
        launches.append(launch)
    measured = launches[-1]

    requests = 0
    for launch in launches:
        for what, (status, reply, _) in (("load", launch.load), ("discover", launch.discover)):
            requests += 1
            gates.check(f"set-up {what} accepted", status == 200, reply[:200])
    discovered = [json.loads(launch.discover[1]).get("pfds") for launch in launches]

    # Restart on the measured registry: detect must answer identically.
    restart = Launch(measured.registry, work, 0, "restart")
    restart.run(None, None, 0, 0)
    final = json.loads(measured.final[1])
    restarted = json.loads(restart.final[1])
    keys = ("rows", "error_count", "violation_count", "errors")
    gates.check("restarted daemon answers detect identically",
                all(final.get(k) == restarted.get(k) for k in keys),
                f"{final.get('error_count')} vs {restarted.get('error_count')} errors")

    replay = Replay(tenant.path)
    gates.check("daemon and replay discover the same PFDs",
                all(d == [str(p) for p in replay.pfds] for d in discovered), str(discovered))
    failed_requests = 0
    for kind, document, status, reply, _, _ in measured.records:
        expected = replay.reply(kind, document)
        if status != 200 or not _matches(reply, expected):
            failed_requests += 1
    requests += len(measured.records)
    if trace:
        # The untraced daemon served the same stream: its replies must match.
        for first, second in zip(launches[0].records, measured.records):
            requests += 1
            if first[2] != 200 or first[3] != second[3]:
                failed_requests += 1
    expected_final = replay.reply("detect", None)
    gates.check("final detect equals the replay", _matches(measured.final[1], expected_final))
    replayed_csv = work / "replayed.csv"
    write_csv(replay.session.relation, replayed_csv)
    stored = measured.registry / TENANT / "data.csv"
    gates.check("registry data.csv equals the replayed table",
                hashlib.sha256(stored.read_bytes()).digest()
                == hashlib.sha256(replayed_csv.read_bytes()).digest())

    writes = [r for r in measured.records if r[0] != "detect"]
    reads = [r for r in measured.records if r[0] == "detect"]
    write_ms = [r[4] * 1e3 for r in writes]
    read_ms = [r[4] * 1e3 for r in reads]
    acked_ops = OPS_PER_WRITE * sum(1 for r in writes if r[2] == 200)
    # Every /detect re-validates the whole table.
    validated_rows = sum(json.loads(r[3])["rows"] for r in reads if r[2] == 200)
    print(f"samples: setup launches={len(launches)}, writes={len(writes)}, "
          f"reads={len(reads)}, loop seconds={measured.wall:.3f}")
    print(f"tenant rows {tenant.rows} -> {json.loads(measured.final[1]).get('rows')}, "
          f"failed requests {failed_requests}")
    if not trace:
        gates.check(f"at least {MIN_SAMPLES} samples for each p90",
                    min(len(writes), len(reads)) >= MIN_SAMPLES,
                    f"{len(writes)} writes, {len(reads)} reads")
        metrics = {
            "setup_s": {"value": statistics.median(l.setup_s for l in launches), "unit": "s"},
            "peak_rss_mb": {"value": measured.result["maxrss_kb"] / 1024, "unit": "MB"},
            "rows_per_s": {"value": validated_rows / measured.wall, "unit": "rows/s"},
            "ops_per_s": {"value": acked_ops / measured.wall, "unit": "ops/s"},
            "write_p50_ms": {"value": statistics.median(write_ms), "unit": "ms"},
            "write_p90_ms": {"value": _quantile_90(write_ms), "unit": "ms"},
            "read_p50_ms": {"value": statistics.median(read_ms), "unit": "ms"},
            "read_p90_ms": {"value": _quantile_90(read_ms), "unit": "ms"},
        }
    else:
        metrics = layer_metrics(service_layers(launches[0], measured, seed))
    return {
        "correct": gates.failed == 0 and failed_requests == 0,
        "attempted": requests + gates.attempted,
        "failed": failed_requests + gates.failed,
        "metrics": metrics,
    }


def service_layers(untraced: Launch, traced: Launch, seed: int) -> dict:
    """Per-layer metrics of the traced loop, per request unless named."""
    totals, tallies = spans.summarize(traced.result["spans"], *traced.window)
    records = traced.records
    requests = len(records)
    write_trace("service_crud", seed, totals, requests, "request")
    writes = [r for r in records if r[0] != "detect"]

    def inclusive(name: str) -> float:
        return totals.get(name, {}).get("inclusive", 0.0)

    def mean_ms(name: str) -> float:
        entry = totals.get(name, {})
        return ratio(entry.get("inclusive", 0.0), entry.get("count", 0)) * 1e3

    before = traced.stats_before["tenant_sessions"][TENANT]
    after = traced.stats_after["tenant_sessions"][TENANT]

    def delta(key: str) -> int:
        return after[key] - before[key]

    hits, misses = delta("partition_hits"), delta("partition_misses")
    match_calls = totals.get("engine.match", {}).get("calls", {}).get(
        "PatternEvaluator.match_column", 0)
    client_s = sum(r[4] for r in records)
    # Both loops send the same stream; compare the time of the common prefix.
    common = min(len(untraced.records), requests)
    overhead = ratio(sum(r[4] for r in records[:common]),
                     sum(r[4] for r in untraced.records[:common]))
    return {
        "dataset.read_csv_s": inclusive("dataset.read_csv") / requests,
        "dataset.write_csv_s": inclusive("dataset.write_csv") / requests,
        "dataset.profile_s": inclusive("dataset.profile") / requests,
        "dataset.apply_ms": inclusive("dataset.apply") / len(writes) * 1e3,
        "patterns.compile_s": inclusive("patterns.compile") / requests,
        "patterns.compilations": delta("pattern_set_compilations") / requests,
        "engine.partition_s": inclusive("engine.partition") / requests,
        "engine.partition_hit_ratio": ratio(hits, hits + misses),
        "engine.match_s": inclusive("engine.match") / requests,
        "engine.match_hit_ratio": ratio(delta("match_cache_hits"), match_calls),
        "core.violations_s": inclusive("core.violations") / requests,
        "core.violation_cells": tallies.get("core.violation_cells", 0) / requests,
        "cleaning.detect_s": inclusive("cleaning.detect") / requests,
        "cleaning.detected_cells": tallies.get("cleaning.detected_cells", 0) / requests,
        "session.detect_changed_ms": mean_ms("session.detect_changed"),
        "session.scoped_over_full": ratio(mean_ms("session.detect_changed"),
                                          mean_ms("session.detect")),
        "service.mirror_ms": inclusive("service.mirror") / len(writes) * 1e3,
        "service.write_amplification": ratio(tallies.get("service.mirror_bytes", 0),
                                             sum(r[5] for r in writes)),
        "service.handler_self_ms": totals.get("service.handler", {}).get("self", 0.0)
        / requests * 1e3,
        "service.http_ms": (client_s - inclusive("service.handler")) / requests * 1e3,
        "service.lock_wait_ms": inclusive("service.lock_wait") / requests * 1e3,
        "trace_overhead": overhead,
    }
