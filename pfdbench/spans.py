"""In-memory span tracing around the program's public entry points.

The tracer is installed from outside the program: :func:`install` replaces
each entry point listed in :data:`TARGETS` with a wrapper that records one
span (name, entry point, start, end, parent) per call.  Module-level
functions are rebound in every loaded module that imported them by name, and
methods are rebound on their class and on every subclass that overrides
them, so callers inside the program reach the wrapper too.

Per-value helpers (tokenizers, ``induce_pattern``, per-cell store reads) are
deliberately not wrapped: a span per value would cost more than the work.

Spans stay in memory; :func:`summarize` turns them into per-name totals of
inclusive time (outermost span of a name only, so recursion and overrides
calling ``super()`` count once) and self time (duration minus the time the
span's direct children cover).
"""

from __future__ import annotations

import csv
import functools
import importlib
import io
import pkgutil
import sys
import threading
import time
from collections import Counter
from typing import Callable, Optional

#: (span name, module, class or None, attribute names, tally or None).
#: A tally maps (result, call arguments) to a ``(name, amount)`` pair that is
#: stored on the call's span, so tallies are windowed like times are.
TARGETS: list = []


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        #: [name, entry point, start, end, parent index, tally] per call.
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, function: Callable, name: str, label: str,
             tally: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            record = [name, label, time.monotonic(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                stack.pop()
            if tally is not None:
                record[5] = tally(result, args)
            return result

        return traced


def _violation_cells(violations, args) -> tuple:
    return "core.violation_cells", sum(len(v.cells) for v in violations)


def _detected_cells(report, args) -> tuple:
    return "cleaning.detected_cells", len(report.errors)


def _repaired_cells(result, args) -> tuple:
    return "cleaning.repaired_cells", len(result.repairs)


def _saved_bytes(path, args) -> tuple:
    # save_data rewrites the whole table file and returns its path.
    return "service.mirror_bytes", path.stat().st_size


def _appended_bytes(written, args) -> tuple:
    # append_data writes the rows with the csv module's "\n" terminator;
    # re-encoding them the same way gives the bytes it appended.
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(args[2])
    return "service.mirror_bytes", len(buffer.getvalue().encode("utf-8"))


def _target(name, module, cls, attributes, tally=None) -> None:
    TARGETS.append((name, module, cls, tuple(attributes), tally))


_target("dataset.read_csv", "repro.dataset.csvio", None, ["read_csv"])
_target("dataset.write_csv", "repro.dataset.csvio", None, ["write_csv"])
_target("dataset.profile", "repro.dataset.profiler", None, ["profile_relation"])
_target("dataset.index", "repro.dataset.index", "PatternIndex", ["__init__"])
_target("dataset.index", "repro.storage.discovery", "CodePatternIndex", ["__init__"])
_target("dataset.apply", "repro.dataset.relation", "Relation", ["apply"])
_target("discovery.discover", "repro.discovery.pfd_discovery", "PFDDiscoverer", ["discover"])
_target("discovery.generalize", "repro.discovery.generalization", None, ["generalize_tableau"])
_target("patterns.compile", "repro.patterns.multi", None, ["compile_pattern_set"])
_target("engine.partition", "repro.engine.partitions", "PartitionManager", [
    "attribute_partition", "pattern_partition", "partition_for", "intersection",
    "attribute_set_partition", "extend", "apply_update",
])
_target("engine.match", "repro.engine.evaluator", "PatternEvaluator",
        ["match_column", "match_column_many"])
_target("core.violations", "repro.core.pfd", "PFD", ["violations"], _violation_cells)
_target("cleaning.detect", "repro.cleaning.detector", "ErrorDetector", ["detect"],
        _detected_cells)
_target("cleaning.repair", "repro.cleaning.repair", "Repairer", ["repair"], _repaired_cells)
_target("session.detect", "repro.session", "CleaningSession", ["detect"])
_target("session.detect_changed", "repro.session", "CleaningSession", ["detect_changed"])
_target("session.detect_new", "repro.session", "CleaningSession", ["detect_new"])
_target("service.handler", "repro.service.app", "CleaningService",
        ["detect", "ingest", "update", "delete_rows"])
_target("service.mirror", "repro.service.registry", "ConstraintRegistry", ["save_data"],
        _saved_bytes)
_target("service.mirror", "repro.service.registry", "ConstraintRegistry", ["append_data"],
        _appended_bytes)
_target("service.lock_wait", "repro.service.rwlock", "RWLock",
        ["acquire_read", "acquire_write"])
_target("storage.sql", "repro.storage.store", "SqlStore", [
    "execute", "fetch_one", "fetch_value", "int_map_table", "int_set_table",
    "extend_int_map", "drop_table", "append", "codes_for", "cooccurrence_counts",
    "update_cell", "update_rows",
])


def _methods(module_name: str, cls_name: str, attributes) -> list:
    """(class, attribute) of each named method on the class and on every
    subclass that overrides it."""
    found, pending = [], [getattr(importlib.import_module(module_name), cls_name)]
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        found.extend((klass, a) for a in attributes if a in klass.__dict__)
    return found


def methods(span_name: str) -> list:
    """(class, attribute) of every method a span name wraps."""
    return [
        found
        for name, module_name, cls_name, attributes, _ in TARGETS
        if name == span_name and cls_name is not None
        for found in _methods(module_name, cls_name, attributes)
    ]


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS`.  All of ``repro`` is
    imported first, so every module that imported a wrapped function by
    name, the benchmark's own included, is rebound."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for name, module_name, cls_name, attributes, tally in TARGETS:
        if cls_name is not None:
            for klass, attribute in _methods(module_name, cls_name, attributes):
                label = f"{klass.__name__}.{attribute}"
                original = klass.__dict__[attribute]
                setattr(klass, attribute, tracer.wrap(original, name, label, tally))
            continue
        for attribute in attributes:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = tracer.wrap(original, name, attribute, tally)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                for key, value in list((namespace or {}).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)


def _outermost(spans: list, index: int) -> bool:
    name, parent = spans[index][0], spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][4]
    return True


def summarize(spans: list, since: float = float("-inf"),
              until: float = float("inf")) -> tuple[dict, Counter]:
    """Per span name: ``count``, ``inclusive`` and ``self`` seconds, plus
    ``calls`` per entry point, over the spans that start inside the window;
    and the summed tallies of those spans."""
    child_time = [0.0] * len(spans)
    for record in spans:
        parent = record[4]
        if parent >= 0:
            child_time[parent] += record[3] - record[2]
    totals: dict = {}
    tallies: Counter = Counter()
    for index, (name, label, start, end, parent, tally) in enumerate(spans):
        if not since <= start <= until:
            continue
        if tally is not None:
            tallies[tally[0]] += tally[1]
        entry = totals.setdefault(
            name, {"count": 0, "inclusive": 0.0, "self": 0.0, "calls": Counter()}
        )
        entry["count"] += 1
        entry["calls"][label] += 1
        entry["self"] += (end - start) - child_time[index]
        if _outermost(spans, index):
            entry["inclusive"] += end - start
    for entry in totals.values():
        entry["calls"] = dict(entry["calls"])
    return totals, tallies


def layer_self_seconds(totals: dict) -> dict:
    """Self seconds per layer (the span-name prefix before the dot)."""
    layers: Counter = Counter()
    for name, entry in totals.items():
        layers[name.split(".", 1)[0]] += entry["self"]
    return dict(layers)
