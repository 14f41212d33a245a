"""Seeded benchmark inputs: the scenario tables each workload cleans.

Every table is one of the ``SCENARIO_MATRIX`` shapes with its scenario seed
offset by ``10 * seed``, so seed 0 reproduces the matrix exactly and each
other seed gives a table of the same shape, size and error rate with other
values.  For seed 0 the sha256 of every generated file is pinned below: a
change to ``repro.datagen`` that alters the inputs fails the run instead of
silently moving the numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from repro.datagen.scenario import SCENARIO_MATRIX
from repro.dataset.csvio import write_csv
from repro.dataset.relation import Relation

DEFAULT_SEED = 0

#: Tables per workload: (scenario shape, row scale of its ``rows``).
TABLES = {
    "batch_clean": [
        ("tall_narrow", 10),
        ("wide_sparse", 10),
        ("high_cardinality", 10),
        ("adversarial_free_start", 10),
    ],
    "out_of_core": [
        ("tall_narrow", 50),
        ("high_cardinality", 10),
    ],
}

#: service_crud: the tenant's first rows, then a pool of fresh rows that
#: appends and whole-row updates draw from (cycled when exhausted).
SERVICE_SHAPE = "wide_sparse"
SERVICE_TENANT_ROWS = 1000
SERVICE_POOL_ROWS = 6000

#: sha256 of every generated file at DEFAULT_SEED, by workload and file name.
PINNED = {
    "batch_clean": {
        "tall_narrow.csv": "252575081cd484defef315f808da12327ee7559fe4c2c50bb6846714ed2df677",
        "wide_sparse.csv": "5b93fa8bec99abb197bf46a86045537e56ece28f5103e13d3afcb6dfc42bda7e",
        "high_cardinality.csv": "acb10f6f7aac0858203db899d64d39081d4459809ae7f572cc4729732c37a648",
        "adversarial_free_start.csv":
            "8dc505d3ff9088285f3bfc8be95cf995c171c64b4fb8510eb8085d07ed64818a",
    },
    "out_of_core": {
        "tall_narrow.csv": "6652d752bcbaf20727427ea6f8ed64f892cceb02e8fe78a8383c9550f9c32b74",
        "high_cardinality.csv": "acb10f6f7aac0858203db899d64d39081d4459809ae7f572cc4729732c37a648",
    },
    "service_crud": {
        "tenant.csv": "db526caef2b31743d0ac3e0cac6fab19430f981e6662d8a8a1256129123702b0",
        "pool.csv": "f2822cccbd5993b39586dd5db8f20236620953c8772089ca58b17292a44275ab",
    },
}


@dataclasses.dataclass
class Table:
    """One generated input file plus its ground truth."""

    name: str
    path: Path
    rows: int
    sha256: str
    true_dependencies: set
    error_cells: set


def _spec(shape: str, seed: int):
    spec = SCENARIO_MATRIX[shape]
    return dataclasses.replace(spec, seed=spec.seed + 10 * seed)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _table(name: str, path: Path, relation, table) -> Table:
    write_csv(relation, path)
    return Table(
        name=name,
        path=path,
        rows=relation.row_count,
        sha256=_digest(path),
        true_dependencies=set(table.true_dependencies) if table else set(),
        error_cells={(c.row_id, c.attribute) for c in table.error_cells} if table else set(),
    )


def batch_tables(workload: str, seed: int, directory: Path) -> list[Table]:
    """Write the workload's tables as CSV under ``directory``."""
    tables = []
    for shape, scale in TABLES[workload]:
        generated = _spec(shape, seed).build(scale=scale)
        tables.append(_table(shape, directory / f"{shape}.csv", generated.relation, generated))
    return tables


def service_tables(seed: int, directory: Path) -> tuple[Table, Table, list[list[str]]]:
    """The tenant's CSV and the pool of fresh rows (also written as CSV)."""
    spec = _spec(SERVICE_SHAPE, seed)
    total = SERVICE_TENANT_ROWS + SERVICE_POOL_ROWS
    relation = spec.build(scale=total / spec.rows).relation
    rows = [list(row) for row in relation.iter_rows()]
    columns = list(relation.attribute_names)
    tenant = Relation.from_rows(columns, rows[:SERVICE_TENANT_ROWS], name="tenant")
    pool = Relation.from_rows(columns, rows[SERVICE_TENANT_ROWS:], name="pool")
    tenant_table = _table("tenant", directory / "tenant.csv", tenant, None)
    pool_table = _table("pool", directory / "pool.csv", pool, None)
    return tenant_table, pool_table, rows[SERVICE_TENANT_ROWS:]


def check_pinned(workload: str, seed: int, tables) -> list[str]:
    """Mismatches against the pinned digests (empty when none or not seed 0)."""
    if seed != DEFAULT_SEED:
        return []
    pinned = PINNED.get(workload, {})
    problems = []
    for table in tables:
        expected = pinned.get(table.path.name)
        if expected != table.sha256:
            problems.append(
                f"{workload}/{table.path.name}: sha256 {table.sha256} != pinned {expected}"
            )
    return problems
