"""Backend parity pins: the NumPy columnar core vs the pure-Python fallback.

The columnar refactor's contract is *bit-identical* results: every engine
query — dictionary codes, row lists, partitions, intersections, PFD
violations, discovery, detection, repair — must return exactly the same
values (same elements, same order) on both backends, including after
``append_rows`` deltas.  Hypothesis drives random tables, appends, and
queries through both backends side by side; any divergence is a bug in the
vectorized path (or, just as importantly, in the patch-based python path).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.core.pfd import make_pfd
from repro.dataset.relation import Relation
from repro.engine import backend as backend_module
from repro.engine.backend import (
    HAS_NUMPY,
    NUMPY,
    PYTHON,
    SQL,
    available_backends,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.engine import dictionary as dictionary_module
from repro.engine.dictionary import DictionaryColumn
from repro.engine.evaluator import PatternEvaluator
from repro.session import CleaningSession

pytestmark = pytest.mark.skipif(
    not HAS_NUMPY, reason="backend parity pins need numpy installed"
)

# Small alphabets force collisions: shared values, shared classes, empty cells.
_cells = st.text(alphabet="ab1 ", max_size=3)
_tables = st.lists(
    st.tuples(_cells, _cells, _cells), min_size=0, max_size=30
)
_batches = st.lists(
    st.tuples(_cells, _cells, _cells), min_size=0, max_size=10
)

_SCHEMA = ["x", "y", "z"]
_PATTERNS = [r"{{\w*}}", r"{{\d*}}\w*", r"a{{\w*}}"]


def _pair(rows):
    """The same table on both backends."""
    return (
        Relation.from_rows(_SCHEMA, rows, backend=NUMPY),
        Relation.from_rows(_SCHEMA, rows, backend=PYTHON),
    )


def _assert_column_parity(numpy_column: DictionaryColumn, python_column: DictionaryColumn):
    assert numpy_column.backend == NUMPY
    assert python_column.backend == PYTHON
    assert numpy_column.values == python_column.values
    assert list(numpy_column.codes) == list(python_column.codes)
    assert numpy_column.rows_by_code() == python_column.rows_by_code()
    assert numpy_column.counts() == python_column.counts()


def _assert_partition_parity(numpy_partition, python_partition):
    assert numpy_partition.classes == python_partition.classes
    assert numpy_partition.covered == python_partition.covered
    assert numpy_partition.row_count == python_partition.row_count
    assert numpy_partition.error == python_partition.error
    assert numpy_partition.probe_table() == python_partition.probe_table()


# -- backend selection ---------------------------------------------------------


def test_available_backends_include_both_with_numpy():
    assert available_backends() == (NUMPY, PYTHON, SQL)


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError):
        resolve_backend("polars")


def test_set_default_backend_round_trip(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    try:
        set_default_backend(PYTHON)
        assert default_backend() == PYTHON
        assert DictionaryColumn.from_values(["a"]).backend == PYTHON
    finally:
        set_default_backend(None)
    assert default_backend() == NUMPY


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "python")
    assert default_backend() == PYTHON
    monkeypatch.setenv("REPRO_ENGINE", "numpy")
    assert default_backend() == NUMPY
    monkeypatch.setenv("REPRO_ENGINE", "parquet")
    with pytest.raises(ValueError):
        default_backend()


def test_relation_set_backend_rebuilds_engine_state():
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")], backend=NUMPY)
    assert relation.dictionary("x").backend == NUMPY
    relation.set_backend(PYTHON)
    assert relation.dictionary("x").backend == PYTHON
    assert relation.partitions().attribute_partition("x").backend == PYTHON


def test_numpy_only_accessors_guard_the_python_backend():
    column = DictionaryColumn.from_values(["a", "b"], backend=PYTHON)
    with pytest.raises(RuntimeError):
        column.codes_array()
    with pytest.raises(RuntimeError):
        column.counts_array()


def test_numpy_unavailable_fallback(monkeypatch):
    monkeypatch.setattr(backend_module, "HAS_NUMPY", False)
    assert backend_module.available_backends() == (PYTHON, SQL)
    assert backend_module.default_backend() == PYTHON
    with pytest.raises(RuntimeError):
        backend_module.resolve_backend(NUMPY)


# -- dictionary / partition parity ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=_tables)
def test_dictionary_and_partition_parity(rows):
    numpy_relation, python_relation = _pair(rows)
    for attribute in _SCHEMA:
        _assert_column_parity(
            numpy_relation.dictionary(attribute), python_relation.dictionary(attribute)
        )
        _assert_partition_parity(
            numpy_relation.partitions().attribute_partition(attribute),
            python_relation.partitions().attribute_partition(attribute),
        )
    rhs_codes = [list(r.dictionary("z").codes) for r in (numpy_relation, python_relation)]
    for pair in (("x", "y"), ("x", "z"), ("x", "y", "z")):
        numpy_partition = numpy_relation.partitions().attribute_set_partition(pair)
        python_partition = python_relation.partitions().attribute_set_partition(pair)
        _assert_partition_parity(numpy_partition, python_partition)
        assert numpy_partition.refines_codes(rhs_codes[0]) == python_partition.refines_codes(
            rhs_codes[1]
        )
        assert numpy_partition.minority_rows(rhs_codes[0]) == python_partition.minority_rows(
            rhs_codes[1]
        )


@settings(max_examples=60, deadline=None)
@given(
    rows=_tables,
    names=st.sampled_from([("x",), ("x", "z"), ("z", "x", "y")]),
    rerank=st.booleans(),
)
def test_code_tuple_counts_parity(rows, names, rerank):
    # rerank forces the numpy path to re-rank its mixed-radix key at every
    # column, the step that keeps wide, high-cardinality keys in int64.
    numpy_relation, python_relation = _pair(rows)
    sql_relation = Relation.from_rows(_SCHEMA, rows, backend=SQL)
    expected = sorted(
        Counter(zip(*(list(python_relation.dictionary(n).codes) for n in names))).items()
    )
    limit = 1 if rerank else dictionary_module._KEY_LIMIT
    with mock.patch.object(dictionary_module, "_KEY_LIMIT", limit):
        assert sorted(numpy_relation.code_tuple_counts(names)) == expected
    assert sorted(python_relation.code_tuple_counts(names)) == expected
    assert sorted(sql_relation.code_tuple_counts(names)) == expected


@settings(max_examples=60, deadline=None)
@given(rows=_tables, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_and_mask_parity(rows, pattern):
    numpy_relation, python_relation = _pair(rows)
    evaluators = (PatternEvaluator(), PatternEvaluator())
    partitions = []
    for relation, evaluator in zip((numpy_relation, python_relation), evaluators):
        partitions.append(
            relation.partitions().pattern_partition("x", pattern, evaluator=evaluator)
        )
    _assert_partition_parity(*partitions)
    matches = [
        evaluator.match_column(pattern, relation.dictionary("x"))
        for relation, evaluator in zip((numpy_relation, python_relation), evaluators)
    ]
    assert matches[0].matched_mask() == matches[1].matched_mask()
    assert matches[0].matching_rows() == matches[1].matching_rows()
    assert matches[0].match_count() == matches[1].match_count()
    sets = [
        evaluator.match_column_many(_PATTERNS, relation.dictionary("y"))
        for relation, evaluator in zip((numpy_relation, python_relation), evaluators)
    ]
    for member in _PATTERNS:
        assert sets[0].matched_mask(member) == sets[1].matched_mask(member)
        assert sets[0].matching_rows(member) == sets[1].matching_rows(member)
        assert sets[0].match_count(member) == sets[1].match_count(member)


# -- append (extend delta) parity ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(base=_tables, batch=_batches)
def test_append_parity_and_fresh_rebuild(base, batch):
    numpy_relation, python_relation = _pair(base)
    # Prime the caches so append exercises the delta-maintenance paths.
    for relation in (numpy_relation, python_relation):
        for attribute in _SCHEMA:
            relation.dictionary(attribute).rows_by_code()
            relation.partitions().attribute_partition(attribute)
        relation.partitions().attribute_set_partition(("x", "y")).probe_table()
    numpy_relation.append_rows(batch)
    python_relation.append_rows(batch)
    fresh = Relation.from_rows(_SCHEMA, list(base) + list(batch), backend=NUMPY)
    for attribute in _SCHEMA:
        _assert_column_parity(
            numpy_relation.dictionary(attribute), python_relation.dictionary(attribute)
        )
        patched = numpy_relation.partitions().attribute_partition(attribute)
        _assert_partition_parity(
            patched, python_relation.partitions().attribute_partition(attribute)
        )
        # The vectorized extend path equals a cold rebuild, classes and all.
        rebuilt = fresh.partitions().attribute_partition(attribute)
        assert patched.classes == rebuilt.classes
        assert patched.covered == rebuilt.covered
    _assert_partition_parity(
        numpy_relation.partitions().attribute_set_partition(("x", "y")),
        python_relation.partitions().attribute_set_partition(("x", "y")),
    )


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_extend_parity(base, batch, pattern):
    numpy_relation, python_relation = _pair(base)
    evaluators = (PatternEvaluator(), PatternEvaluator())
    for relation, evaluator in zip((numpy_relation, python_relation), evaluators):
        relation.partitions().pattern_partition(
            "x", pattern, evaluator=evaluator
        ).probe_table()
    numpy_relation.append_rows(batch)
    python_relation.append_rows(batch)
    partitions = [
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator)
        for relation, evaluator in zip((numpy_relation, python_relation), evaluators)
    ]
    _assert_partition_parity(*partitions)


# -- PFD query parity ----------------------------------------------------------

_variable_pfd = make_pfd("x", "y", [{"x": "⊥", "y": "⊥"}])
_mixed_pfd = make_pfd(
    ("x", "y"), "z", [{"x": r"{{\w*}}", "y": "⊥", "z": "⊥"}]
)
_constant_pfd = make_pfd("x", "y", [{"x": r"a{{\w*}}", "y": "a"}])


@settings(max_examples=60, deadline=None)
@given(rows=_tables, pfd=st.sampled_from([_variable_pfd, _mixed_pfd, _constant_pfd]))
def test_pfd_query_parity(rows, pfd):
    numpy_relation, python_relation = _pair(rows)
    assert pfd.violations(numpy_relation) == pfd.violations(python_relation)
    assert pfd.support(numpy_relation) == pfd.support(python_relation)
    assert pfd.row_statistics(numpy_relation) == pfd.row_statistics(python_relation)


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches)
def test_pfd_delta_violations_parity(base, batch):
    numpy_relation, python_relation = _pair(base)
    for relation in (numpy_relation, python_relation):
        _variable_pfd.violations(relation)  # prime pre-append state
    since = numpy_relation.row_count
    numpy_relation.append_rows(batch)
    python_relation.append_rows(batch)
    assert _variable_pfd.violations(
        numpy_relation, since_row=since
    ) == _variable_pfd.violations(python_relation, since_row=since)


# -- pipeline parity -----------------------------------------------------------

_zip_rows = (
    [(f"{90000 + i % 7:05d}", f"City{i % 7}") for i in range(40)]
    + [("90001", "Wrong1"), ("90002", "Wrong2")]
)


def _pipeline(backend):
    session = CleaningSession.from_rows(
        ["zip", "city"], list(_zip_rows), backend=backend
    )
    discovery = session.discover()
    detection = session.detect()
    repair = session.repair()
    return discovery, detection, repair, session


def test_discover_detect_repair_parity():
    results = {backend: _pipeline(backend) for backend in (NUMPY, PYTHON)}
    numpy_discovery, numpy_detection, numpy_repair, numpy_session = results[NUMPY]
    python_discovery, python_detection, python_repair, python_session = results[PYTHON]
    assert [str(d.pfd) for d in numpy_discovery.dependencies] == [
        str(d.pfd) for d in python_discovery.dependencies
    ]
    assert numpy_discovery.pfds == python_discovery.pfds
    assert numpy_detection.errors == python_detection.errors
    assert numpy_detection.violations == python_detection.violations
    assert numpy_detection.backend == NUMPY
    assert python_detection.backend == PYTHON
    assert numpy_repair.repairs == python_repair.repairs
    assert list(numpy_repair.relation.iter_rows()) == list(
        python_repair.relation.iter_rows()
    )
    assert numpy_session.stats().backend == NUMPY
    assert python_session.stats().backend == PYTHON


def test_detector_parity_after_append():
    reports = {}
    for backend in (NUMPY, PYTHON):
        session = CleaningSession.from_rows(
            ["zip", "city"], list(_zip_rows), backend=backend
        )
        pfds = session.discover().pfds
        session.append([("90003", "City3"), ("90001", "Wrong9")])
        reports[backend] = session.detect_new(pfds)
    assert reports[NUMPY].errors == reports[PYTHON].errors
    assert reports[NUMPY].violations == reports[PYTHON].violations


def test_detect_errors_report_records_backend():
    relation = Relation.from_rows(["zip", "city"], _zip_rows, backend=NUMPY)
    report = ErrorDetector([_variable_pfd_zip()]).detect(relation)
    assert report.backend == NUMPY


def _variable_pfd_zip():
    return make_pfd("zip", "city", [{"zip": "⊥", "city": "⊥"}])
