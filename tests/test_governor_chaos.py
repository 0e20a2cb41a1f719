"""Cancellation chaos sweep: every operator boundary, every invariant.

The execution-path sibling of ``test_durability.py``'s crash harness:
:func:`repro.governor.chaos.cancel_at_every_boundary` replays each corpus
expression with the chaos hook arming every cancellation boundary in turn
and asserts the sweep invariants (cancel raised, no leaked WAL transaction,
unchanged feedback store, exactly-once counting, no spill debris, clean
re-execution reproduces the baseline).  This module drives that harness
over an in-memory database, over a durable database, and over spill-forcing
budgeted databases (one aggregate, and the whole spill-parity corpus).
"""

import pytest

from test_governor import spill_corpus

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


@pytest.fixture
def batches_of_64(monkeypatch):
    """Plans made during the test run batches of 64 rows (the planner's size
    is not a query option; plans cached earlier keep theirs)."""
    monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                        lambda width, rows=None: 64)


class TestCancelSweep:
    def test_every_boundary_cancels_cleanly(self, chaos_database, batches_of_64):
        summary = cancel_at_every_boundary(
            chaos_database, chaos_corpus())
        assert summary["expressions"] == 3
        assert summary["injections"] >= summary["expressions"]

    def test_stride_thins_the_sweep(self, chaos_database, batches_of_64):
        full = cancel_at_every_boundary(
            chaos_database, chaos_corpus()[:1])
        thinned = cancel_at_every_boundary(
            chaos_database, chaos_corpus()[:1], stride=4)
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
    def test_sweep_leaves_no_open_transaction(self, tmp_path, batches_of_64):
        database = Database(durable_path=str(tmp_path / "wal"))
        database.create_table("orders", orders_scheme(),
                              domains=orders_domains())
        with database.transaction():
            database.table("orders").insert_many(
                generate_orders(200, seed=21))
        summary = cancel_at_every_boundary(
            database, chaos_corpus()[:2])
        assert summary["injections"] > 0
        assert not database.durability.in_transaction
        database.close()

    def test_budgeted_sweep_leaves_no_spill_debris(self, tmp_path, batches_of_64):
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
            database, [expression],
            spill_root=str(spill_root))
        assert summary["injections"] > 0
        assert not list(spill_root.iterdir())


#: orders behind the re-planned join: enough that the feedback of the first
#: run still swaps its build side, few enough that sweeping every boundary
#: of the replay stays quick
REPLANNED_ORDERS = 1000


def budgeted_orders(spill_root, count=2500):
    """``analytics_database(count=count, seed=13)`` under the spill corpus's
    15,000 B budget."""
    database = Database(memory_budget=15_000, spill_directory=str(spill_root))
    database.create_table("orders", orders_scheme(), domains=orders_domains(),
                          key=["order_id"])
    database.table("orders").insert_many(generate_orders(count, seed=13))
    database.analyze()
    return database


class TestSpillCorpusSweep:
    def test_replanned_join_is_counted_on_the_replayed_plan(self, tmp_path, batches_of_64):
        """The first run records cardinality feedback and the replay runs a
        re-planned join whose build side swapped: its boundaries, not the
        first run's, are the ones swept."""
        expression, _ = spill_corpus()["join_skewed_key"]
        database = budgeted_orders(tmp_path, count=REPLANNED_ORDERS)
        first = database.plan(expression).root
        summary = cancel_at_every_boundary(
            database, [expression], spill_root=str(tmp_path))
        replayed = database.plan(expression).root
        assert ([child.label() for child in replayed.children]
                == [child.label() for child in reversed(first.children)])
        assert summary["injections"] == summary["boundaries"] > 0

    def test_every_budgeted_spill_shape_cancels_cleanly(self, tmp_path):
        corpus = [expression for expression, _ in spill_corpus().values()]
        summary = cancel_at_every_boundary(
            budgeted_orders(tmp_path), corpus, spill_root=str(tmp_path))
        assert summary["expressions"] == len(corpus)
        assert not list(tmp_path.iterdir())
