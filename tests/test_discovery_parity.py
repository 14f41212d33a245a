"""Discovery output pinned to recorded digests.

For every ``SCENARIO_MATRIX`` shape (and the Table 7 suite tables) the
discovered PFD JSON, ``index_entries`` and ``candidate_count`` must equal the
digests in ``tests/fixtures/discovery_goldens.json``, at ``max_lhs_size`` 1
and 2, on the numpy, python and sql backends, at ``workers=2``, and after an
update/append stream (whose codes are no longer in first-seen row order).

The fixture was recorded with the row-level discovery index, before
discovery moved to dictionary-code granularity; any change to what
discovery reports shows up here as a digest mismatch.  Regenerate it only
for an intended change of discovery output::

    PYTHONPATH=src python tests/test_discovery_parity.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.serialization import pfds_to_json
from repro.datagen.scenario import SCENARIO_MATRIX
from repro.datagen.suite import TABLE_IDS, build_table
from repro.dataset.mutations import DeleteOp, MutationBatch
from repro.discovery import DiscoveryConfig, PFDDiscoverer

FIXTURE = Path(__file__).parent / "fixtures" / "discovery_goldens.json"

SUITE_SCALE = 0.25
#: (variant name, backend, workers, mutate, scale) per scenario shape.
SCENARIO_VARIANTS = (
    ("numpy", "numpy", 1, False, 0.5),
    ("python", "python", 1, False, 0.5),
    ("sql", "sql", 1, False, 0.5),
    ("numpy-workers2", "numpy", 2, False, 0.5),
    ("numpy-updated", "numpy", 1, True, 0.5),
    ("numpy-scale2", "numpy", 1, False, 2.0),
    ("sql-scale2", "sql", 1, False, 2.0),
)
LHS_SIZES = (1, 2)


def _mutate(relation, spec) -> None:
    """Apply a seeded update/append stream (deletes dropped: tombstones
    change the live-row denominators the digests depend on)."""
    for batch in spec.mutation_stream(relation, operations=relation.row_count // 4, seed=5):
        ops = [op for op in batch.ops if not isinstance(op, DeleteOp)]
        if ops:
            relation.apply(MutationBatch(ops))


def _digest(relation, max_lhs_size: int, workers: int = 1) -> dict:
    config = DiscoveryConfig(max_lhs_size=max_lhs_size)
    result = PFDDiscoverer(config, workers=workers).discover(relation)
    document = pfds_to_json(result.pfds)
    return {
        "pfds_sha256": hashlib.sha256(document.encode("utf-8")).hexdigest(),
        "dependencies": len(result.dependencies),
        "index_entries": result.index_entries,
        "candidate_count": result.candidate_count,
    }


def _cases() -> list[tuple[str, object]]:
    cases = []
    for shape in SCENARIO_MATRIX:
        for variant, *params in SCENARIO_VARIANTS:
            for size in LHS_SIZES:
                cases.append((f"{shape}/{variant}/lhs{size}", (shape, *params, size)))
    for table_id in TABLE_IDS:
        for size in LHS_SIZES:
            cases.append((f"suite-{table_id}/numpy/lhs{size}", (table_id, size)))
    return cases


def _compute(params) -> dict:
    if len(params) == 2:
        table_id, size = params
        relation = build_table(table_id, scale=SUITE_SCALE).relation
        relation.set_backend("numpy")
        return _digest(relation, size)
    shape, backend, workers, mutate, scale, size = params
    spec = SCENARIO_MATRIX[shape]
    relation = spec.build(scale=scale, backend=backend).relation
    if mutate:
        _mutate(relation, spec)
    return _digest(relation, size, workers=workers)


CASES = _cases()


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(goldens):
    assert sorted(goldens) == sorted(name for name, _params in CASES)


@pytest.mark.parametrize("name,params", CASES, ids=[name for name, _ in CASES])
def test_discovery_matches_golden(goldens, name, params):
    assert _compute(params) == goldens[name]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_discovery_parity.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    recorded = {name: _compute(params) for name, params in CASES}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {FIXTURE}")
