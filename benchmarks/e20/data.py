"""The two tables the workloads share, declared once, and what the write
workloads both do with them."""

import json

from repro.engine import Database
from repro.errors import ReproError
from repro.workloads.analytics import orders_domains, orders_scheme
from repro.workloads.employees import employee_definition

import trace


def create_employees(database):
    """The paper's ``employees``: jobtype EAD, key FD, secondary index on
    ``jobtype``."""
    definition = employee_definition()
    return database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies,
        indexes=[["jobtype"]])


def create_orders(database):
    """``orders``: Zipf regions, channel-keyed variants, mixed amounts."""
    return database.create_table(
        "orders", orders_scheme(), domains=orders_domains(), key=["order_id"])


def refusal(table, row):
    """Insert a row that must be rejected; the typed error, or ``None`` when
    the engine accepted it (anything but a ``repro.errors`` class propagates)."""
    try:
        table.insert(row)
    except ReproError as exc:
        return exc
    return None


def user_bytes(value):
    """Compact-JSON size of what a caller handed over."""
    return len(json.dumps(value, separators=(",", ":"), default=repr))


def attribute_sets_per_row(rows):
    """``AttributeSet`` constructions per inserted employee, counted on a
    separate in-memory slice so the counting wrapper distorts no timing."""
    table = create_employees(Database())
    calls = trace.count_calls("repro.model.attributes:AttributeSet.__init__",
                              lambda: table.insert_many(rows))
    return calls / len(rows)
