"""The compiled order against its definition.

``row_order_key`` / ``top_k_rows`` define the engine's total order and serve
the naive evaluator; ``CompiledOrder`` is what the physical sorts run.  Four
layers under test:

* property — over heterogeneous rows (ints, ints beyond 2**53, floats with
  ``-0.0``/``inf``/NaN, bools, strings, tuples, NULL, absent, exotic objects)
  and any 0–3 keys in any direction mix, the compiled sort, its cut at a
  limit and the run merge reproduce the definition position for position;
  over all-number columns of every kind, the sort's native passes do too,
  and so does the sort under a limit — each batch cut on its leading key's
  column, the held rows cut back at twice the limit — over streams of built,
  pending and scan batches of every size, strings too;
* structure — the canonical tie-break is built only where declared keys tie
  (none with a key attribute among the keys, one per row when everything
  ties) and numeric descending keys never reach ``_Reversed``;
* NaN — its own class after every number, so Sort/Limit/min/max agree on the
  naive, physical and spilled paths;
* spill and streams — a sort forced into several runs emits the in-memory
  stream exactly, a sort over a scan emits the stored tuples themselves, and
  the sort under a limit stays bounded, on an all-tied input too.
"""

import itertools
import math
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    Aggregate,
    Limit,
    NaturalJoin,
    Projection,
    RelationRef,
    Rename,
    Sort,
)
from repro.algebra import analytic
from repro.algebra.analytic import (
    CompiledOrder,
    SortKey,
    canonical_order_key,
    row_order_key,
    top_k_rows,
    value_order_key,
)
from repro.engine import Database
from repro.exec import PhysicalExecutor
from repro.exec.context import ExecutionContext, sampled_size
from repro.exec.operators import PhysicalOperator, SortOp
from repro.governor import QueryGovernor
from repro.model.batches import MISSING, LazyBatch, ScanBatch, ScanView, TupleBatch
from repro.model.tuples import FlexTuple
from repro.workloads.analytics import (
    generate_orders,
    orders_domains,
    orders_scheme,
)

#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (the CI sweep)
EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "150"))
#: the native-pass and limit properties run once per kind of column: a
#: quarter of the examples each in tier-1, the full count under
#: REPRO_SWEEP_EXAMPLES
KIND_EXAMPLES = (EXAMPLES if "REPRO_SWEEP_EXAMPLES" in os.environ
                 else max(EXAMPLES // 4, 25))
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
    """``argsort`` under a limit is the defined order's first ``limit``
    positions — with fresh tie-breaks and with some already built."""
    order = CompiledOrder(keys)
    size = len(rows)
    reference = _reference(rows, keys)
    for count in sorted({0, 1, max(size - 1, 0), size, size + 5}):
        expected = reference[:count]
        got = order.argsort(rows, count)
        assert got == expected, _record(
            "top-k, k={}".format(count), rows, keys, "{} != {}".format(got, expected))
        breaks = [canonical_order_key(row) if at % 2 else None
                  for at, row in enumerate(rows)]
        got = order.argsort(rows, count, breaks)
        assert got == expected, _record(
            "top-k with tie-breaks, k={}".format(count), rows, keys,
            "{} != {}".format(got, expected))
        assert all(key is None or key == canonical_order_key(row)
                   for key, row in zip(breaks, rows))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=rows_strategy, keys=keys_strategy, runs=st.integers(1, 4))
def test_merged_runs_are_the_defined_order(rows, keys, runs):
    order = CompiledOrder(keys)
    rows = [dict(row) for row in rows]  # one object a position
    position = {id(row): at for at, row in enumerate(rows)}
    streams = []
    for start in range(runs):  # round-robin: every run sees every kind of tie
        run = rows[start::runs]
        streams.append([run[at] for at in order.argsort(run)])
    got = [position[id(row)] for row in order.merge(streams)]
    # runs interleave arrival order, so among *identical* rows only the
    # multiset is defined: compare the rows, by identity of their positions' keys
    expected = _reference(rows, keys)
    assert ([row_order_key(rows[at], keys) for at in got]
            == [row_order_key(rows[at], keys) for at in expected]
            and sorted(got) == sorted(expected)), _record(
                "merge of {} runs".format(runs), rows, keys,
                "{} != {}".format(got, expected))


#: per kind of all-number column: the values every such column holds, so the
#: kind's pass is the one taken, and the pool the rest are drawn from
NUMERIC_COLUMNS = {
    "int": ((0, -3), st.integers(-4, 4)),
    "float": ((0.5, -2.0), st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 1e300])),
    "mixed-exact": ((1, 1.0, 2.5), st.one_of(
        st.integers(-4, 4), st.sampled_from([-1.5, 0.0, 1.0, 2.5]))),
    # 2**53 + 1 has no float; 2**1100 overflows the conversion
    "mixed-inexact": ((2**53 + 1, float(2**53)), st.sampled_from(
        [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, float(2**53), float(2**53 + 2),
         2**1100, -1.5])),
    "bool": ((True, False), st.one_of(st.booleans(), st.integers(-1, 2))),
    "signed-zero-inf": ((0.0, -0.0, math.inf, -math.inf), st.sampled_from(
        [0.0, -0.0, 0, -1, 1.5, math.inf, -math.inf])),
    "nan": ((NAN,), st.sampled_from([NAN, float("nan"), 1, 0.5, -math.inf])),
}


def _with_gaps(rows):
    """``rows`` with a NULL-``a`` row and an ``a``-absent row interleaved."""
    gapped = []
    for at, row in enumerate(rows):
        gapped.append(row)
        if at % 3 == 0:
            gapped.append({"a": None, "b": at % 2})
        elif at % 3 == 1:
            gapped.append({"b": at % 2})
    return gapped


def _assert_pass_taken(kind, column, sign):
    """The ``a`` column took its kind's pass: encoded for NaN, native
    otherwise — on floats where ints and floats mix and convert exactly."""
    _, decided = analytic._sort_pass(list(range(len(column))), list(column), sign)
    present = [value for value in decided if value is not None and value is not MISSING]
    if kind == "nan":
        assert all(isinstance(value, tuple) for value in decided)
        return
    assert not any(isinstance(value, tuple) for value in present)
    if kind == "mixed-exact":
        assert {type(value) for value in present} == {float}
    if kind == "mixed-inexact":
        assert int in {type(value) for value in present}


@pytest.mark.parametrize("kind", sorted(NUMERIC_COLUMNS))
@settings(max_examples=KIND_EXAMPLES, deadline=None)
@given(data=st.data())
def test_native_sort_passes_are_the_defined_order(kind, data):
    planted, pool = NUMERIC_COLUMNS[kind]
    column = data.draw(st.permutations(
        list(planted) + data.draw(st.lists(pool, max_size=16))))
    ties = data.draw(st.lists(st.sampled_from([0, 1, None, MISSING]),
                              min_size=len(column), max_size=len(column)))
    rows = [{"a": value} if tie is MISSING else {"a": value, "b": tie}
            for value, tie in zip(column, ties)]
    for sample in (rows, _with_gaps(rows)):
        for descending in (False, True):
            _assert_pass_taken(kind, [row.get("a", MISSING) for row in sample],
                               -1 if descending else 1)
            first, second = SortKey("a", descending), SortKey("b", not descending)
            for keys in ((first,), (first, second), (second, first)):
                expected = _reference(sample, keys)
                got = CompiledOrder(keys).argsort(sample)
                assert got == expected, _record(
                    "native pass, {}".format(kind), sample, keys,
                    "{} != {}".format(got, expected))


#: the leading-key column kinds a limit's cut takes natively, or declines to
#: (NaN): the native passes' kinds plus strings
CUT_COLUMNS = dict(NUMERIC_COLUMNS, str=(("", "b"), st.sampled_from(["", "a", "ab", "b"])))


def _mixed_batches(dicts, kinds):
    """``dicts`` as consecutive batches, ``kinds`` (repeated until every row
    is in one) giving each one's ``(kind, size)``: built tuples, pending
    value dicts (with or without hashes), or a window of one
    :class:`ScanView` over every row — the batch a table's full scan emits."""
    tuples = [FlexTuple.from_parts(values) for values in dicts]
    view = ScanView(tuples)
    batches, start = [], 0
    for kind, size in itertools.cycle(kinds):
        stop = min(start + size, len(dicts))
        if kind == "tuple":
            batches.append(TupleBatch(tuples[start:stop]))
        elif kind == "lazy":
            batches.append(LazyBatch(dicts[start:stop]))
        elif kind == "hashed":
            batches.append(LazyBatch(dicts[start:stop],
                                     [tup._hash for tup in tuples[start:stop]]))
        else:
            batches.append(ScanBatch(view, start, stop))
        start = stop
        if start >= len(dicts):
            break
    return batches


@pytest.mark.parametrize("kind", sorted(CUT_COLUMNS))
@settings(max_examples=KIND_EXAMPLES, deadline=None)
@given(data=st.data())
def test_sort_under_a_limit_over_mixed_batches_is_the_defined_top_k(kind, data):
    """``SortOp`` under a limit — each batch cut on its leading key's
    column, the held rows cut back to the limit past twice it — emits
    ``top_k_rows``'s rows in its order, over batches of every kind and size,
    with NULL and absent rows among them."""
    planted, pool = CUT_COLUMNS[kind]
    column = data.draw(st.permutations(
        list(planted) + data.draw(st.lists(pool, max_size=40))
        + data.draw(st.lists(st.sampled_from([None, MISSING]), max_size=12))))
    ties = data.draw(st.lists(st.sampled_from([0, 1, None, MISSING]),
                              min_size=len(column), max_size=len(column)))
    dicts = [{name: value for name, value in (("a", value), ("b", tie))
              if value is not MISSING} for value, tie in zip(column, ties)]
    kinds = data.draw(st.lists(
        st.tuples(st.sampled_from(["tuple", "lazy", "hashed", "scan"]),
                  st.integers(1, 64)), min_size=1, max_size=len(dicts) + 1))
    position = {id(values): at for at, values in enumerate(dicts)}
    for descending in (False, True):
        first, second = SortKey("a", descending), SortKey("b", not descending)
        for keys in ((first,), (first, second)):
            expected = top_k_rows(range(len(dicts)), len(dicts), keys,
                                  key_of=dicts.__getitem__)
            leading = [row_order_key(dicts[at], keys)[0] for at in expected]
            cuts = [at for at in range(1, len(leading))
                    if leading[at - 1] == leading[at]]
            counts = {0, 1, len(dicts) + 3}
            if cuts:  # the count-th and the next row tie on the leading key
                counts.add(data.draw(st.sampled_from(cuts)))
            for count in sorted(counts):
                op = SortOp(_Batches(_mixed_batches(dicts, kinds)), keys, limit=count)
                got = [position[id(values)]
                       for batch in op.run(ExecutionContext(None, batch_size=64))
                       for values in batch.values_list()]
                assert got == expected[:count], _record(
                    "top-k operator, {}, k={}, batches {}".format(kind, count, kinds),
                    dicts, keys, "{} != {}".format(got, expected[:count]))


def test_top_k_drains_its_input_at_count_zero():
    drained = []

    def batches():
        for at in range(5):
            drained.append(at)
            yield LazyBatch([{"a": at}, {"a": -at}])

    op = SortOp(_Batches(batches()), (SortKey("a"),), limit=0)
    assert list(op.run(ExecutionContext(None, batch_size=64))) == []
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
        expected = sorted(set(orders.table("orders")),
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
        expected = sorted(set(nan_orders.table("orders")),
                          key=lambda tup: row_order_key(tup._values, sort_keys))
        for count in (3, 12, 30):
            # at the largest count the held rows outgrow the budget and spill
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


def test_a_sort_over_a_scan_emits_the_stored_tuples(orders):
    stored = {tup: tup for tup in orders.table("orders")}
    plan = PhysicalExecutor(orders).plan(Sort(ORDERS, ("-amount", "order_id")))
    batches = list(plan.root.run(ExecutionContext(orders, batch_size=64)))
    assert {type(batch) for batch in batches} == {TupleBatch}
    tuples = [tup for batch in batches for tup in batch]
    assert len(tuples) == 600 and all(tup is stored[tup] for tup in tuples)


#: inputs a sort receives as :class:`LazyBatch` chunks
LAZY_INPUTS = {
    "projection": Projection(ORDERS, ["order_id", "region", "amount"]),
    "join": NaturalJoin(ORDERS, Rename(Projection(ORDERS, ["order_id", "region"]),
                                       {"region": "area"}), on=["order_id"]),
}


@pytest.mark.parametrize("name", sorted(LAZY_INPUTS))
def test_sorts_over_lazy_input_emit_the_defined_stream_spilled_or_not(orders, name):
    keys = ("region", "-amount")
    sort_keys = tuple(analytic.sort_key(key) for key in keys)
    expected = sorted(orders.execute(LAZY_INPUTS[name], executor="naive").tuples,
                      key=lambda tup: row_order_key(tup._values, sort_keys))
    plan = PhysicalExecutor(orders).plan(Sort(LAZY_INPUTS[name], keys))
    batches = list(plan.root.run(ExecutionContext(orders, batch_size=64)))
    assert {type(batch) for batch in batches} == {LazyBatch}
    assert [tup for batch in batches for tup in batch] == expected
    governor = QueryGovernor(memory_budget=20_000)
    try:
        tuples, _, _ = _stream(orders, Sort(LAZY_INPUTS[name], keys), governor=governor)
        assert governor.spill_manager().spill_events >= 3
    finally:
        governor.finish()
    assert tuples == expected


class _Batches(PhysicalOperator):
    """A hand-built input: the given batches, as they are."""

    name = "batches"

    def __init__(self, batches):
        self.batches = batches

    def _generate(self, ctx, op):
        yield from self.batches


def test_a_spilled_sorts_byte_counts_do_not_read_the_stored_hashes(orders):
    """Before 3.12 CPython hashes ``None`` by its address, so the hash a
    NULL-holding tuple stores changes width from process to process; what a
    spilled sort writes and holds must not follow it."""
    values = [tup._values for tup in sorted(set(orders.table("orders")),
                                            key=lambda tup: tup["order_id"])]
    keys = (SortKey("amount", True), SortKey("order_id"))
    measured = []
    for first_hash in (1, 2 ** 62):
        rows = [FlexTuple.from_parts(dict(row), first_hash + at)
                for at, row in enumerate(values)]
        sort = SortOp(_Batches([TupleBatch(rows[start:start + 64])
                                for start in range(0, len(rows), 64)]), keys)
        governor = QueryGovernor(memory_budget=20_000)
        try:
            ctx = ExecutionContext(orders, batch_size=64, governor=governor)
            tuples = [tup for batch in sort.run(ctx) for tup in batch]
            manager = governor.spill_manager()
            assert manager.spill_events >= 3
            spilled = sum(segment.bytes for segment in manager.segments)
        finally:
            governor.finish()
        assert tuples == sorted(rows, key=lambda tup: row_order_key(tup._values, keys))
        (stats,) = [stats for stats in ctx.operator_stats
                    if stats.label == sort.label()]
        measured.append((spilled, stats.peak_bytes))
    assert measured[0] == measured[1]


def test_a_sort_fed_built_then_lazy_batches_emits_the_defined_stream(orders):
    rows = sorted(set(orders.table("orders")), key=lambda tup: tup["order_id"])
    keys = (SortKey("amount", True), SortKey("order_id"))
    lazy = LazyBatch([dict(tup._values) for tup in rows[300:]])
    sort = SortOp(_Batches([TupleBatch(rows[:300]), lazy]), keys)
    tuples = [tup for batch in sort.run(ExecutionContext(orders, batch_size=64))
              for tup in batch]
    assert tuples == sorted(rows, key=lambda tup: row_order_key(tup._values, keys))
    assert all(isinstance(tup, FlexTuple) for tup in tuples)


def test_top_k_holds_at_most_count_rows_when_everything_ties(orders):
    """Just before a cut the top-k holds ``2 · 10`` rows plus a batch of 64 —
    as much over 600 orders as over 6,000, so against 6,000 it is far below
    the full sort's state."""
    more = Database()
    more.create_table("orders", orders_scheme(), domains=orders_domains(),
                      key=["order_id"]).insert_many(generate_orders(6000, seed=5))

    def peak(database, expression):
        _, _, ctx = _stream(database, expression)
        return max(op.peak_bytes for op in ctx.operator_stats)

    # half the orders tie at the cut on region; on "nothing" all do
    for keys in (("region",), ("nothing",)):
        held = peak(more, Limit(Sort(ORDERS, keys), 10))
        assert held < 2 * peak(orders, Limit(Sort(ORDERS, keys), 10)), keys
        full = peak(more, Sort(ORDERS, keys))
        assert held * 20 < full, (keys, held, full)


def test_a_bare_limit_reports_what_it_held_before_a_cut(orders, monkeypatch):
    """The peak of ``Limit(orders, 20)`` is the held rows just before a cut —
    ``2 · 20`` plus an uncut batch — not the 20 left once the input ended."""
    cut_sizes = []
    argsort = CompiledOrder.argsort

    def measuring(self, rows, limit=None, tie_breaks=None):
        cut_sizes.append(sampled_size(rows))
        return argsort(self, rows, limit, tie_breaks)

    monkeypatch.setattr(CompiledOrder, "argsort", measuring)
    _, plan, ctx = _stream(orders, Limit(ORDERS, 20))
    assert plan.root.label().startswith("batch-top-k")
    assert len(cut_sizes) > 1  # the held rows were cut on the way
    assert ctx.operator_stats[0].peak_bytes >= max(cut_sizes)


def test_top_k_holds_at_most_twice_count_rows(monkeypatch):
    """Under ``limit=10`` no cut sorts more than ``2 · 10`` held rows plus
    one batch, and each keeps 10 — the last one, once the input ended, too:
    never a number that grows with the 300 rows fed in."""
    sorted_sizes = []
    argsort = CompiledOrder.argsort

    def counting(self, rows, limit=None, tie_breaks=None):
        kept = argsort(self, rows, limit, tie_breaks)
        sorted_sizes.append((len(rows), len(kept)))
        return kept

    monkeypatch.setattr(CompiledOrder, "argsort", counting)
    rows = [{"a": at % 3, "b": -at} for at in range(300)]
    batch = 16
    for keys in ((), (SortKey("a"),), (SortKey("a"), SortKey("b"))):
        sorted_sizes.clear()
        op = SortOp(_Batches([LazyBatch(rows[at:at + batch])
                              for at in range(0, len(rows), batch)]), keys, limit=10)
        out = [values for chunk in op.run(ExecutionContext(None, batch_size=64))
               for values in chunk.values_list()]
        assert len(out) == 10, keys
        assert len(sorted_sizes) > 1, keys  # the held rows were cut on the way
        assert all(size <= 2 * 10 + batch and kept <= 10
                   for size, kept in sorted_sizes), (keys, sorted_sizes)
