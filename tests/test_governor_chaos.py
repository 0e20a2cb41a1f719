"""Cancellation chaos sweep: every operator boundary, every invariant.

The execution-path sibling of ``test_durability.py``'s crash harness:
:func:`repro.governor.chaos.cancel_at_every_boundary` replays each corpus
expression with the chaos hook arming every cancellation boundary in turn
and asserts the sweep invariants (cancel raised, no leaked WAL transaction,
unchanged feedback store, exactly-once counting, no spill debris, clean
re-execution reproduces the baseline).  This module drives that harness
over an in-memory database, over a durable database, and over a
spill-forcing budgeted database.
"""

import pytest

from repro.algebra import (
    Aggregate,
    NaturalJoin,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
)
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.governor.chaos import ChaosError, cancel_at_every_boundary
from repro.workloads.analytics import (
    analytics_database,
    generate_orders,
    orders_domains,
    orders_scheme,
)


def chaos_corpus():
    """Three shapes that cover the pipeline/blocking/join boundary mix."""
    orders = RelationRef("orders")
    return [
        Aggregate(orders, group_by=("region",),
                  specs=(("sum", "amount"), "count")),
        Sort(Selection(orders, Comparison("amount", ">", 40)),
             keys=("amount", "order_id")),
        NaturalJoin(
            orders,
            Rename(Projection(orders, ["order_id", "region"]),
                   {"region": "r2"}),
            on=["order_id"]),
    ]


@pytest.fixture(scope="module")
def chaos_database():
    return analytics_database(count=500, seed=3)


class TestCancelSweep:
    def test_every_boundary_cancels_cleanly(self, chaos_database):
        summary = cancel_at_every_boundary(
            chaos_database, chaos_corpus(), batch_size=64)
        assert summary["expressions"] == 3
        assert summary["injections"] >= summary["expressions"]

    def test_stride_thins_the_sweep(self, chaos_database):
        full = cancel_at_every_boundary(
            chaos_database, chaos_corpus()[:1], batch_size=64)
        thinned = cancel_at_every_boundary(
            chaos_database, chaos_corpus()[:1], batch_size=64, stride=4)
        assert thinned["boundaries"] == full["boundaries"]
        assert thinned["injections"] < full["injections"]

    def test_stride_must_be_positive(self, chaos_database):
        with pytest.raises(ValueError):
            cancel_at_every_boundary(chaos_database, chaos_corpus()[:1],
                                     stride=0)

    def test_naive_mode_has_no_boundaries(self, chaos_database):
        # the naive evaluator is ungoverned by design: asking the harness to
        # sweep it must fail loudly, not silently report zero coverage
        from repro.errors import CatalogError

        class NaiveOnly:
            def execute(self, expression, **options):
                return chaos_database.execute(expression, executor="naive",
                                              **options)

        with pytest.raises((ChaosError, CatalogError)):
            cancel_at_every_boundary(NaiveOnly(), chaos_corpus()[:1])


class TestDurableSweep:
    def test_sweep_leaves_no_open_transaction(self, tmp_path):
        database = Database(durable_path=str(tmp_path / "wal"))
        database.create_table("orders", orders_scheme(),
                              domains=orders_domains())
        with database.transaction():
            database.table("orders").insert_many(
                generate_orders(200, seed=21))
        summary = cancel_at_every_boundary(
            database, chaos_corpus()[:2], batch_size=64)
        assert summary["injections"] > 0
        assert not database.durability.in_transaction
        database.close()

    def test_budgeted_sweep_leaves_no_spill_debris(self, tmp_path):
        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        database = Database(memory_budget=15_000,
                            spill_directory=str(spill_root))
        database.create_table("orders", orders_scheme(),
                              domains=orders_domains())
        database.table("orders").insert_many(generate_orders(800, seed=9))
        expression = Aggregate(
            RelationRef("orders"), group_by=("order_id",),
            specs=(("sum", "amount"), "count", ("min", "amount")))
        # sanity: this shape really spills under the database-wide budget
        database.execute(expression)
        assert database.metrics_registry.counter("spill.segments").value > 0
        summary = cancel_at_every_boundary(
            database, [expression], batch_size=64,
            spill_root=str(spill_root))
        assert summary["injections"] > 0
        assert not list(spill_root.iterdir())
