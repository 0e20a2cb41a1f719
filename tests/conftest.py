"""Shared fixtures: the paper's running examples as ready-made objects.

Also installs a global per-test timeout (``REPRO_TEST_TIMEOUT`` seconds,
default 300, ``0`` disables): a wedged test — a cancellation that never
fires, a recovery loop that never ends — aborts with a traceback instead of
hanging the whole suite until CI's job-level kill.

And the hypothesis profile every property suite runs under: tier-1 is
derandomized and reads no example database, so this checkout, a fresh clone
and CI draw the same examples on every run; the CI sweeps — the runs that set
``REPRO_ROLLBACK_EXAMPLES`` / ``REPRO_ORDER_EXAMPLES`` — keep random seeds.
"""

import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, settings

from repro.core.dependencies import ExplicitAttributeDependency, Variant
from repro.engine import Database, Table
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme
from repro.workloads.addresses import address_definition, generate_addresses
from repro.workloads.employees import (
    employee_definition,
    employee_dependency,
    employee_domains,
    employee_scheme,
    generate_employees,
)


TEST_TIMEOUT_SECONDS = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

_SWEEP = "REPRO_ROLLBACK_EXAMPLES" in os.environ or "REPRO_ORDER_EXAMPLES" in os.environ
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    **({} if _SWEEP else {"derandomize": True, "database": None}),
)
settings.load_profile("repro")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Bound each test body with SIGALRM (main thread, unix only)."""
    if (TEST_TIMEOUT_SECONDS <= 0 or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        return (yield)

    def _timed_out(signum, frame):
        raise TimeoutError(
            "test exceeded the {}s per-test timeout "
            "(REPRO_TEST_TIMEOUT)".format(TEST_TIMEOUT_SECONDS))

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_SECONDS)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def example1_scheme():
    """The flexible scheme FS of Example 1: A, B unconditioned; C|D; some of E, F, G."""
    return FlexibleScheme(
        4,
        4,
        ["A", "B", FlexibleScheme(1, 1, ["C", "D"]), FlexibleScheme(1, 3, ["E", "F", "G"])],
    )


#: the 14 attribute combinations listed for dnf(FS) in the paper
EXAMPLE1_DNF = {
    frozenset("ABCE"), frozenset("ABDE"), frozenset("ABCF"), frozenset("ABDF"),
    frozenset("ABCG"), frozenset("ABDG"), frozenset("ABCEF"), frozenset("ABDEF"),
    frozenset("ABCEG"), frozenset("ABDEG"), frozenset("ABCFG"), frozenset("ABDFG"),
    frozenset("ABCEFG"), frozenset("ABDEFG"),
}


@pytest.fixture
def example1_dnf():
    return set(EXAMPLE1_DNF)


@pytest.fixture
def jobtype_ead():
    """The explicit attribute dependency of Example 2."""
    return employee_dependency()


@pytest.fixture
def employee_table():
    """An engine table for the employee workload, with 60 valid tuples loaded."""
    table = Table(employee_definition())
    table.insert_many(generate_employees(60, seed=7))
    return table


@pytest.fixture
def employee_database(employee_table):
    """A database exposing the loaded employee table under the name ``employees``."""
    database = Database()
    definition = employee_definition()
    table = database.create_table(
        "employees",
        definition.scheme,
        domains=definition.domains,
        key=definition.key,
        dependencies=definition.dependencies,
    )
    table.insert_many(employee_table.tuples)
    return database


@pytest.fixture
def address_table():
    """An engine table for the address workload, with 40 tuples loaded."""
    table = Table(address_definition())
    table.insert_many(generate_addresses(40, seed=11))
    return table


@pytest.fixture
def maiden_name_ead():
    """The sex/marital-status example: a two-attribute determinant."""
    return ExplicitAttributeDependency(
        ["sex", "marital_status"],
        ["maiden_name"],
        [Variant([{"sex": "f", "marital_status": "married"},
                  {"sex": "f", "marital_status": "widowed"}], ["maiden_name"], name="maiden")],
    )
