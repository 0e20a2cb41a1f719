"""The compiled order against its definition.

``row_order_key`` / ``top_k_rows`` define the engine's total order and serve
the naive evaluator; ``CompiledOrder`` is what the physical sorts run.  Four
layers under test:

* property — over heterogeneous rows (ints, ints beyond 2**53, floats with
  ``-0.0``/``inf``/NaN, bools, strings, tuples, NULL, absent, exotic objects)
  and any 0–3 keys in any direction mix, the compiled sort, top-k and run
  merge reproduce the definition position for position;
* structure — the canonical tie-break is built only where declared keys tie
  (none with a key attribute among the keys, one per row when everything
  ties) and numeric descending keys never reach ``_Reversed``;
* NaN — its own class after every number, so Sort/Limit/min/max agree on the
  naive, physical and spilled paths;
* spill — a sort forced into several runs emits the in-memory stream exactly,
  and the bounded top-k stays bounded on an all-tied input.
"""

import math
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Aggregate, Limit, RelationRef, Sort
from repro.algebra import analytic
from repro.algebra.analytic import (
    CompiledOrder,
    SortKey,
    row_order_key,
    top_k_rows,
    value_order_key,
)
from repro.engine import Database
from repro.exec import PhysicalExecutor
from repro.exec.context import ExecutionContext
from repro.governor import QueryGovernor
from repro.workloads.analytics import (
    generate_orders,
    orders_domains,
    orders_scheme,
)

#: REPRO_ORDER_EXAMPLES=<n> raises the example count (the CI sweep)
EXAMPLES = int(os.environ.get("REPRO_ORDER_EXAMPLES", "150"))
#: a falsifying example lands next to the fuzz harness's shrunk trees
ARTIFACT = os.environ.get("REPRO_FUZZ_ARTIFACT", "fuzz-failure.txt")

NAN = float("nan")
ATTRIBUTES = ("a", "b", "c")

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**80]),
    st.sampled_from([0.0, -0.0, 1.5, -1.5, float(2**53), math.inf, -math.inf,
                     NAN, float("nan")]),
    st.sampled_from(["", "a", "ab", "b"]),
    st.sampled_from([(), (1,), (1, "a"), (None, 2.0), (NAN,)]),
    st.sampled_from([frozenset({7}), b"x"]),
)
#: few attributes and small value pools, so ties — within a key and across
#: whole rows — are the common case, not the rare one
rows_strategy = st.lists(
    st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=3),
    max_size=24)
keys_strategy = st.lists(
    st.builds(SortKey, st.sampled_from(ATTRIBUTES), st.booleans()),
    max_size=3, unique_by=lambda key: key.attribute)


def _record(kind, rows, keys, detail):
    report = ("order-key property failure ({})\nkeys: {!r}\nrows: {!r}\n{}\n"
              .format(kind, keys, rows, detail))
    try:
        with open(ARTIFACT, "w") as handle:
            handle.write(report)
    except OSError:
        pass
    return report


def _reference(rows, keys):
    """Positions of ``rows`` in the defined order (stable, like every sort
    under test, so duplicate rows keep their arrival order everywhere)."""
    return sorted(range(len(rows)), key=lambda at: row_order_key(rows[at], keys))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=rows_strategy, keys=keys_strategy)
def test_compiled_sort_is_the_defined_order(rows, keys):
    expected = _reference(rows, keys)
    got = CompiledOrder(keys).argsort(rows)
    assert got == expected, _record("sort", rows, keys, "{} != {}".format(got, expected))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=rows_strategy, keys=keys_strategy)
def test_compiled_top_k_is_the_defined_top_k(rows, keys):
    order = CompiledOrder(keys)
    size = len(rows)
    for count in sorted({0, 1, max(size - 1, 0), size, size + 5}):
        expected = [at for _, at in top_k_rows(
            zip(rows, range(size)), count, keys, key_of=lambda pair: pair[0])]
        got = [at for _, at in order.top_k(zip(rows, range(size)), count)]
        assert got == expected, _record(
            "top-k, k={}".format(count), rows, keys, "{} != {}".format(got, expected))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=rows_strategy, keys=keys_strategy, runs=st.integers(1, 4))
def test_merged_runs_are_the_defined_order(rows, keys, runs):
    order = CompiledOrder(keys)
    records = list(zip(rows, range(len(rows))))
    streams = []
    for start in range(runs):  # round-robin: every run sees every kind of tie
        run = records[start::runs]
        streams.append([run[at] for at in order.argsort([row for row, _ in run])])
    got = [at for _, at in order.merge(streams)]
    # runs interleave arrival order, so among *identical* rows only the
    # multiset is defined: compare the rows, by identity of their positions' keys
    expected = _reference(rows, keys)
    assert ([row_order_key(rows[at], keys) for at in got]
            == [row_order_key(rows[at], keys) for at in expected]
            and sorted(got) == sorted(expected)), _record(
                "merge of {} runs".format(runs), rows, keys,
                "{} != {}".format(got, expected))


def test_top_k_drains_its_input_at_count_zero():
    drained = []

    def pairs():
        for at in range(5):
            drained.append(at)
            yield {"a": at}, at

    assert CompiledOrder((SortKey("a"),)).top_k(pairs(), 0) == []
    assert drained == [0, 1, 2, 3, 4]


# -- structure: what the compiled order does not compute -------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the canonical tie-break and of the descending shim."""
    calls = {"canonical": 0, "reversed": 0}
    canonical, reversed_lt = analytic.canonical_order_key, analytic._Reversed.__lt__

    def counting_canonical(values):
        calls["canonical"] += 1
        return canonical(values)

    def counting_lt(self, other):
        calls["reversed"] += 1
        return reversed_lt(self, other)

    monkeypatch.setattr(analytic, "canonical_order_key", counting_canonical)
    monkeypatch.setattr(analytic._Reversed, "__lt__", counting_lt)
    return calls


@pytest.fixture(scope="module")
def orders():
    database = Database()
    table = database.create_table("orders", orders_scheme(),
                                  domains=orders_domains(), key=["order_id"])
    table.insert_many(generate_orders(600, seed=5))
    database.analyze()
    return database


def _stream(database, expression, governor=None, batch_size=64):
    """The root operator's output, tuple by tuple, in emission order."""
    plan = PhysicalExecutor(database).plan(expression)
    ctx = ExecutionContext(database, batch_size=batch_size, governor=governor)
    tuples = [tup for batch in plan.root.run(ctx) for tup in batch]
    return tuples, plan, ctx


ORDERS = RelationRef("orders")


class TestTieBreakOnlyOnTies:
    def test_distinct_declared_keys_build_no_tie_break(self, orders, counted):
        for expression in (Sort(ORDERS, ("-amount", "order_id")),
                           Limit(Sort(ORDERS, ("-amount", "order_id")), 10),
                           Limit(Sort(ORDERS, ("order_id",)), 500)):
            tuples, _, _ = _stream(orders, expression)
            assert tuples
        assert counted == {"canonical": 0, "reversed": 0}

    def test_all_tied_rows_build_exactly_one_each(self, orders, counted):
        # no order carries "nothing": every row ranks absent on it
        tuples, _, _ = _stream(orders, Sort(ORDERS, ("nothing",)))
        assert len(tuples) == 600 and counted["canonical"] == 600
        counted["canonical"] = 0
        tuples, plan, _ = _stream(orders, Limit(ORDERS, 20))
        assert "top-k" in plan.explain()
        assert len(tuples) == 20 and counted["canonical"] == 600

    def test_partly_tied_rows_build_one_per_tied_row(self, orders, counted):
        # every region holds several orders, every order_id exactly one
        _stream(orders, Sort(ORDERS, ("region",)))
        assert counted["canonical"] == 600
        counted["canonical"] = 0
        _stream(orders, Sort(ORDERS, ("region", "-order_id")))
        assert counted == {"canonical": 0, "reversed": 0}

    def test_descending_strings_keep_the_shim(self, orders, counted):
        _stream(orders, Sort(ORDERS, ("-region", "order_id")))
        assert counted["reversed"] > 0 and counted["canonical"] == 0


def test_physical_streams_are_in_the_defined_order(orders):
    for keys in (("nothing",), ("region",), ("-amount", "order_id"),
                 ("-coupon", "amount")):
        sort_keys = tuple(analytic.sort_key(key) for key in keys)
        expected = sorted(orders.table("orders").tuples,
                          key=lambda tup: row_order_key(tup._values, sort_keys))
        tuples, plan, _ = _stream(orders, Sort(ORDERS, keys))
        assert "sort" in plan.explain()  # a root Sort still runs physically
        assert tuples == expected
        for count in (0, 7, 599, 700):
            tuples, _, _ = _stream(orders, Limit(Sort(ORDERS, keys), count))
            assert tuples == expected[:count]


# -- NaN ------------------------------------------------------------------------------------


def test_nan_ranks_after_every_number_and_before_strings():
    ladder = [None, -math.inf, -1, 0, 2**80, math.inf, NAN, "", (), b"x"]
    keys = [value_order_key(value) for value in ladder]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert value_order_key(float("nan")) == value_order_key(NAN)


@pytest.fixture(scope="module")
def nan_orders():
    """40 orders, six of them with a NaN amount (one shared NaN object: NaN
    is unequal to itself, so result sets compare by identity), a few with a
    NULL one and three phone orders with none."""
    rows = list(generate_orders(40, rare_every=13, seed=3))
    planted = [row for row in rows
               if row.get("amount") is not None and row["order_id"] % 5 in (1, 3)][:6]
    assert len(planted) == 6
    for row in planted:
        row["amount"] = NAN
    database = Database()
    table = database.create_table("orders", orders_scheme(),
                                  domains=orders_domains(), key=["order_id"])
    table.insert_many(rows)
    return database


def _engines(database, expression, must_spill):
    """The answer of every path — naive, physical, and physical under a
    2000B budget — as sorted reprs: a spilled NaN comes back from its pickle as
    another NaN object, and NaN objects are only ever equal by identity."""
    answers = {"naive": database.execute(expression, executor="naive").tuples}
    executor = PhysicalExecutor(database)
    answers["physical"] = executor.execute(expression).tuples
    governor = QueryGovernor(memory_budget=2_000)
    try:
        answers["spilled"] = executor.execute(
            expression, governor=governor).tuples
        spilled = governor.spilled
    finally:
        governor.finish()
    assert spilled or not must_spill, expression
    return {name: sorted(map(repr, tuples)) for name, tuples in answers.items()}


class TestNaN:
    @pytest.mark.parametrize("keys", [("-amount", "order_id"), ("amount", "order_id"),
                                      ("amount",), ("-amount",)])
    def test_sort_and_limit_agree_everywhere(self, nan_orders, keys):
        sort_keys = tuple(analytic.sort_key(key) for key in keys)
        expected = sorted(nan_orders.table("orders").tuples,
                          key=lambda tup: row_order_key(tup._values, sort_keys))
        for count in (3, 12, 30):
            # the largest count lowers to the sort-with-cutoff form, which spills
            answers = _engines(nan_orders, Limit(Sort(ORDERS, keys), count),
                               must_spill=count == 30)
            for name, answer in answers.items():
                assert answer == sorted(map(repr, expected[:count])), (name, keys, count)
        tuples, _, _ = _stream(nan_orders, Sort(ORDERS, keys))
        assert tuples == expected
        governor = QueryGovernor(memory_budget=2_000)
        try:
            tuples, _, _ = _stream(nan_orders, Sort(ORDERS, keys),
                                   governor=governor)
        finally:
            governor.finish()
        assert list(map(repr, tuples)) == list(map(repr, expected))

    def test_nan_sorts_after_the_numbers_ascending_before_them_descending(
            self, nan_orders):
        def amounts(keys):
            tuples, _, _ = _stream(nan_orders, Sort(ORDERS, keys))
            return [tup._values.get("amount", "absent") for tup in tuples]

        def kinds(column):
            return ["nan" if value is NAN else
                    "number" if isinstance(value, (int, float)) else value
                    for value in column]

        def collapsed(column):
            return [kind for at, kind in enumerate(column)
                    if at == 0 or column[at - 1] != kind]

        assert collapsed(kinds(amounts(("amount", "order_id")))) == [
            "number", "nan", None, "absent"]
        assert collapsed(kinds(amounts(("-amount", "order_id")))) == [
            "nan", "number", None, "absent"]

    def test_min_and_max_agree_everywhere(self, nan_orders):
        for group_by in ((), ("region",), ("channel",)):
            expression = Aggregate(ORDERS, group_by=group_by,
                                   specs=(("min", "amount"), ("max", "amount")))
            answers = _engines(nan_orders, expression, must_spill=False)
            for name, answer in answers.items():
                assert answer == answers["naive"], (name, group_by)
        (overall,) = nan_orders.execute(Aggregate(
            ORDERS, specs=(("min", "amount"), ("max", "amount")))).tuples
        assert overall["max_amount"] is NAN  # the largest number there is
        assert not math.isnan(overall["min_amount"])

    def test_min_of_nothing_but_nan_is_nan(self):
        accumulator = analytic.AggregateAccumulator(
            [analytic.AggregateSpec("min", "x"), analytic.AggregateSpec("max", "x")])
        for column in ([NAN, 1.0, NAN], [1.0, NAN], [NAN, NAN]):
            states = accumulator.new_state()
            for value in column:
                accumulator.update(states, {"x": value})
            out = accumulator.finalize(states)
            numbers = [value for value in column if value is not NAN]
            assert out["max_x"] is NAN
            assert out["min_x"] == min(numbers) if numbers else out["min_x"] is NAN


# -- spill parity and the bounded top-k ------------------------------------------------------


@pytest.mark.parametrize("keys", [("nothing",), ("region",), ("channel", "-region"),
                                  ("-amount", "order_id")],
                         ids=["all-tied", "tie-heavy", "tie-heavy-desc", "tie-free"])
def test_spilled_sort_emits_the_in_memory_stream(orders, keys):
    expression = Sort(ORDERS, keys)
    expected, _, _ = _stream(orders, expression)
    governor = QueryGovernor(memory_budget=20_000)
    try:
        tuples, _, ctx = _stream(orders, expression, governor=governor)
        runs = governor.spill_manager().spill_events
    finally:
        governor.finish()
    assert runs >= 3, "a 20000B budget over 600 orders must force several runs"
    assert tuples == expected


def test_top_k_holds_at_most_count_rows_when_everything_ties(orders):
    def peak(expression):
        _, _, ctx = _stream(orders, expression)
        return max(op.peak_bytes for op in ctx.operator_stats)

    # half the orders tie at the cut on region; on "nothing" all 600 do
    for keys in (("region",), ("nothing",)):
        held = peak(Limit(Sort(ORDERS, keys), 10))
        full = peak(Sort(ORDERS, keys))
        assert held * 20 < full, (keys, held, full)


def test_top_k_never_holds_more_than_count_rows():
    class Payload:
        """Weakly referenceable, so the rows the top-k still holds are countable."""

    alive = weakref.WeakSet()
    most = 0

    def pairs():
        nonlocal most
        for at in range(300):
            payload = Payload()
            alive.add(payload)
            yield {"a": at % 3, "b": -at}, payload
            del payload
            most = max(most, len(alive))

    for keys in ((), (SortKey("a"),), (SortKey("a"), SortKey("b"))):
        most = 0
        assert len(CompiledOrder(keys).top_k(pairs(), 10)) == 10
        # the ten held, the row in flight, and the two rows the loop's locals
        # last named — never a number that grows with the 300 fed in
        assert most <= 10 + 3, keys
