"""E8 — Section 3.1.1: translating a specialization — flexible relation vs the four
classical methods.

Reproduced shape:

* the two single-relation methods (variant-tag column, boolean flag columns) store
  the same data with a large number of NULL cells and rely on the user to keep the
  artificial columns consistent — the flexible relation stores no NULLs and needs no
  artificial attribute;
* horizontal and vertical decomposition along the AD are lossless and are restored
  by an outer union / multiway join respectively;
* storage (cell counts) comparison across the five representations.
"""

import pytest

from reporting import print_report
from repro.baselines import BooleanFlagTable, NullPaddedTable
from repro.engine import Table
from repro.er import horizontal_decomposition, null_count, vertical_decomposition
from repro.workloads.employees import (
    employee_definition,
    employee_dependency,
    employee_scheme,
    generate_employees,
)

SIZE = 1000


def _loaded_table(count=SIZE):
    table = Table(employee_definition())
    table.insert_many(generate_employees(count, seed=401))
    return table


def test_report_storage_comparison():
    table = _loaded_table()
    dependency = employee_dependency()
    attributes = employee_scheme().attributes

    flexible_cells = sum(len(t) for t in table)

    flat = NullPaddedTable(attributes, dependency)
    flat.insert_many(set(table))
    flags = BooleanFlagTable(attributes, dependency)
    flags.insert_many(set(table))
    horizontal = horizontal_decomposition(table, dependency)
    vertical = vertical_decomposition(table, dependency, key=["emp_id"])

    rows = [
        {"representation": "flexible relation + AD", "stored cells": flexible_cells,
         "NULL cells": 0, "artificial attributes": 0},
        {"representation": "single table, variant tag", "stored cells": flat.stored_cells(),
         "NULL cells": flat.null_cells(), "artificial attributes": 1},
        {"representation": "single table, boolean flags", "stored cells": flags.stored_cells(),
         "NULL cells": flags.null_cells(), "artificial attributes": 3},
        {"representation": "horizontal fragments", "stored cells": horizontal.total_cells(),
         "NULL cells": 0, "artificial attributes": 0},
        {"representation": "vertical master + dependents", "stored cells": vertical.total_cells(),
         "NULL cells": 0, "artificial attributes": 0},
    ]
    print_report("E8: storage footprint of the five representations ({} tuples)".format(SIZE), rows)
    assert rows[0]["stored cells"] < rows[1]["stored cells"]
    assert rows[0]["stored cells"] < rows[2]["stored cells"]
    assert rows[1]["NULL cells"] == null_count(table, attributes)
    assert rows[0]["stored cells"] == rows[3]["stored cells"]


def test_report_losslessness_and_consistency():
    table = _loaded_table(400)
    dependency = employee_dependency()
    horizontal = horizontal_decomposition(table, dependency)
    vertical = vertical_decomposition(table, dependency, key=["emp_id"])
    flat = NullPaddedTable(employee_scheme().attributes, dependency)
    flat.insert_many(set(table))
    rows = [{
        "horizontal lossless (outer union)": horizontal.is_lossless(table),
        "vertical lossless (multiway join)": vertical.is_lossless(table),
        "flat round-trip equals instance": flat.to_tuples() == set(table),
        "flat inconsistencies detectable only by inspection": len(flat.inconsistent_rows()) == 0,
    }]
    print_report("E8: restoration of the decompositions", rows)
    assert all(rows[0].values())


@pytest.mark.benchmark(group="e8-decomposition")
def test_bench_horizontal_decomposition(benchmark):
    table = _loaded_table()
    dependency = employee_dependency()

    def run():
        return horizontal_decomposition(table, dependency).total_tuples()

    assert benchmark(run) == len(table)


@pytest.mark.benchmark(group="e8-decomposition")
def test_bench_vertical_decomposition(benchmark):
    table = _loaded_table()
    dependency = employee_dependency()

    def run():
        return vertical_decomposition(table, dependency, key=["emp_id"]).total_tuples()

    assert benchmark(run) >= len(table)


@pytest.mark.benchmark(group="e8-restoration")
def test_bench_outer_union_restoration(benchmark):
    table = _loaded_table()
    decomposition = horizontal_decomposition(table, employee_dependency())

    def run():
        return len(decomposition.restore())

    assert benchmark(run) == len(table)


@pytest.mark.benchmark(group="e8-restoration")
def test_bench_multiway_join_restoration(benchmark):
    table = _loaded_table()
    decomposition = vertical_decomposition(table, employee_dependency(), key=["emp_id"])

    def run():
        return len(decomposition.restore())

    assert benchmark(run) == len(table)


@pytest.mark.benchmark(group="e8-baseline")
def test_bench_flat_table_load(benchmark):
    table = _loaded_table()
    attributes = employee_scheme().attributes
    dependency = employee_dependency()

    def run():
        flat = NullPaddedTable(attributes, dependency)
        flat.insert_many(set(table))
        return flat.null_cells()

    assert benchmark(run) > 0
