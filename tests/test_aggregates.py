"""The pinned NULL-vs-absent aggregate matrix, across all three engines.

Flexible relations distinguish an attribute that is *absent* (a structural
variant) from one that is present with an explicit ``NULL`` value.  Every
aggregate function treats the two differently, and this file pins the whole
matrix — the same table is mirrored in ``docs/ARCHITECTURE.md``:

===========  ==============  =============  ============  ================  ==============  ================
function     present value   explicit NULL  absent        empty input¹      all-NULL group  all-absent group
===========  ==============  =============  ============  ================  ==============  ================
count()      counts the row  counts the row counts the row  0               group size      group size
count(a)     +1              ignored        ignored         0               0               0
sum(a)       adds            skipped        skipped         output absent    NULL            output absent
min(a)       compares        skipped        skipped         output absent    NULL            output absent
max(a)       compares        skipped        skipped         output absent    NULL            output absent
avg(a)       averages        skipped        skipped         output absent    NULL            output absent
===========  ==============  =============  ============  ================  ==============  ================

¹ a *global* aggregate over an empty input emits one row with the count
outputs (a grouped aggregate over an empty input emits nothing — groups only
exist where rows do).  A group in which ``a`` was present on at least one row
but always NULL yields ``NULL``; a group in which ``a`` was never present
yields no output attribute at all.  Grouping by a variant attribute routes the
rows lacking it into a distinct ⊥ group whose output row omits the attribute.

Every expectation is asserted against the naive evaluator AND the physical
engine, so the matrix is pinned for both at once.

The physical engine's column kernel,
:class:`~repro.exec.compiled.CompiledAggregates`, is also held to
:class:`~repro.algebra.analytic.AggregateAccumulator` directly: a hypothesis
property feeds both the same heterogeneous rows — ints, ints near 2**53,
floats with NaN, ±inf, ±1e308 and -0.0, bools, strings, tuples, NULL and absent — the
kernel in random batch splits and random drain/absorb splits.
``REPRO_ORDER_EXAMPLES`` raises its example count, as for the order-key
properties.
"""

import itertools
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exec_parity import execute_and_audit

from repro.algebra import Aggregate, EmptyRelation, RelationRef, Selection
from repro.algebra.analytic import (
    AggregateAccumulator,
    AggregateSpec,
    group_key,
    group_values,
    numeric_total,
    value_order_key,
)
from repro.algebra.predicates import Comparison
from repro.algebra.evaluator import Evaluator
from repro.errors import AlgebraError
from repro.exec import PhysicalPlanner
from repro.exec.compiled import CompiledAggregates
from repro.model.batches import LazyBatch
from repro.model.tuples import FlexTuple

#: every aggregate over x, all in one query
ALL_SPECS = ("count", ("count", "x"), ("sum", "x"), ("min", "x"),
             ("max", "x"), ("avg", "x"))


def run_everywhere(expression, source, batch_size=3):
    """The result set, identical across naive and physical execution."""
    reference = Evaluator(source).evaluate(expression).tuples
    plan = PhysicalPlanner(source=source).plan(expression)
    assert execute_and_audit(plan, source, batch_size).tuples == reference
    return reference


def raises_everywhere(expression, source, error):
    for thunk in (
        lambda: Evaluator(source).evaluate(expression),
        lambda: PhysicalPlanner(source=source).plan(expression).execute(source),
    ):
        with pytest.raises(error):
            thunk()


@pytest.fixture(scope="module")
def matrix_source():
    """One group per matrix column (ids keep the set members distinct)."""
    rows = {
        # mixed: present ints and floats, one NULL, one absent
        FlexTuple(id=1, g="mixed", x=2),
        FlexTuple(id=2, g="mixed", x=2.5),
        FlexTuple(id=3, g="mixed", x=None),
        FlexTuple(id=4, g="mixed"),
        # all-NULL: x present on every row, never a value
        FlexTuple(id=5, g="nulls", x=None),
        FlexTuple(id=6, g="nulls", x=None),
        # all-absent: x on no row at all
        FlexTuple(id=7, g="absent"),
        FlexTuple(id=8, g="absent"),
        # ⊥ group: no g — routed to the bottom group
        FlexTuple(id=9, x=7),
        FlexTuple(id=10),
    }
    return {"t": rows}


class TestPinnedMatrix:
    def test_grouped_matrix(self, matrix_source):
        result = run_everywhere(
            Aggregate(RelationRef("t"), group_by=("g",), specs=ALL_SPECS),
            matrix_source)
        assert result == {
            FlexTuple(g="mixed", count=4, count_x=2, sum_x=4.5,
                      min_x=2, max_x=2.5, avg_x=2.25),
            FlexTuple(g="nulls", count=2, count_x=0, sum_x=None,
                      min_x=None, max_x=None, avg_x=None),
            FlexTuple(g="absent", count=2, count_x=0),
            # the ⊥ group: output row has no g at all
            FlexTuple(count=2, count_x=1, sum_x=7, min_x=7, max_x=7, avg_x=7.0),
        }

    def test_global_aggregate(self, matrix_source):
        result = run_everywhere(
            Aggregate(RelationRef("t"), specs=ALL_SPECS), matrix_source)
        assert result == {
            FlexTuple(count=10, count_x=3, sum_x=11.5,
                      min_x=2, max_x=7, avg_x=11.5 / 3),
        }

    def test_global_aggregate_over_empty_input(self, matrix_source):
        result = run_everywhere(
            Aggregate(EmptyRelation(), specs=ALL_SPECS), matrix_source)
        assert result == {FlexTuple(count=0, count_x=0)}

    def test_global_non_count_aggregate_over_empty_input_is_empty(self, matrix_source):
        result = run_everywhere(
            Aggregate(EmptyRelation(), specs=(("max", "x"),)), matrix_source)
        assert result == set()

    def test_grouped_aggregate_over_empty_input_is_empty(self, matrix_source):
        result = run_everywhere(
            Aggregate(EmptyRelation(), group_by=("g",), specs=ALL_SPECS),
            matrix_source)
        assert result == set()

    def test_group_key_distinguishes_null_from_absent(self, matrix_source):
        """Grouping BY x: the NULL key and the ⊥ group are distinct groups."""
        result = run_everywhere(
            Aggregate(RelationRef("t"), group_by=("x",), specs=("count",)),
            matrix_source)
        by_key = {}
        for tup in result:
            by_key[tup.get("x", "<absent>")] = tup["count"]
        assert by_key[None] == 3          # ids 3, 5, 6 — x explicitly NULL
        assert by_key["<absent>"] == 4    # ids 4, 7, 8, 10 — x structurally absent
        assert by_key[2] == 1 and by_key[2.5] == 1 and by_key[7] == 1


class TestNumericBehaviour:
    def test_sum_mixes_int_and_float_deterministically(self):
        source = {"t": {FlexTuple(id=i, x=value) for i, value in
                        enumerate([1, 0.5, 2, 0.25])}}
        result = run_everywhere(
            Aggregate(RelationRef("t"), specs=(("sum", "x"), ("avg", "x"))),
            source)
        (row,) = result
        assert row["sum_x"] == 3.75 and row["avg_x"] == 3.75 / 4

    def test_float_totals_are_typed(self):
        """A total of floats is a float whatever they are: inf with -inf is
        NaN, and an intermediate overflow is summed exactly."""
        assert math.isnan(numeric_total(0, [math.inf, -math.inf]))
        assert numeric_total(0, [1e308, 1e308, -1e308]) == 1e308
        assert numeric_total(0, [1e308, 1e308]) == math.inf
        assert numeric_total(0, [-1e308, -1e308, 1.0]) == -math.inf
        assert numeric_total(0, [1e308, 1e308, math.inf]) == math.inf
        assert math.isnan(numeric_total(0, [1e308, 1e308, math.inf, -math.inf]))
        assert numeric_total(-(2**1100), [1.0]) == -math.inf
        assert numeric_total(2**1100, [-math.inf]) == -math.inf
        assert numeric_total(2**60, [0.5]) == 2**60 + 0.5
        assert repr(numeric_total(3, [])) == "3"

    def test_overflowing_float_totals_agree_everywhere(self):
        source = {"t": {FlexTuple(id=i, x=value) for i, value in
                        enumerate([1e308, 1e308, -1e308, 2, math.inf])}}
        partial = Selection(RelationRef("t"), Comparison("x", "<", math.inf))
        (row,) = run_everywhere(
            Aggregate(partial, specs=(("sum", "x"), ("avg", "x"))), source)
        assert row["sum_x"] == 1e308 and row["avg_x"] == 1e308 / 4
        (row,) = run_everywhere(Aggregate(RelationRef("t"), specs=(("sum", "x"),)),
                                source)
        assert row["sum_x"] == math.inf

    def test_min_max_over_mixed_types_uses_the_total_order(self):
        # numbers order before strings in the cross-type total order
        source = {"t": {FlexTuple(id=1, x="abc"), FlexTuple(id=2, x=3)}}
        (row,) = run_everywhere(
            Aggregate(RelationRef("t"), specs=(("min", "x"), ("max", "x"))),
            source)
        assert row["min_x"] == 3 and row["max_x"] == "abc"

    def test_sum_and_avg_reject_non_numeric_values(self, matrix_source):
        source = {"t": {FlexTuple(id=1, x="abc")}}
        raises_everywhere(Aggregate(RelationRef("t"), specs=(("sum", "x"),)),
                          source, AlgebraError)
        raises_everywhere(Aggregate(RelationRef("t"), specs=(("avg", "x"),)),
                          source, AlgebraError)

    def test_sum_and_avg_reject_booleans(self):
        source = {"t": {FlexTuple(id=1, x=True)}}
        raises_everywhere(Aggregate(RelationRef("t"), specs=(("sum", "x"),)),
                          source, AlgebraError)

    def test_min_max_and_count_accept_any_hashable_value(self):
        source = {"t": {FlexTuple(id=1, x=True), FlexTuple(id=2, x="z")}}
        (row,) = run_everywhere(
            Aggregate(RelationRef("t"),
                      specs=(("count", "x"), ("min", "x"), ("max", "x"))),
            source)
        assert row["count_x"] == 2


class TestSpecValidation:
    def test_output_name_collisions_are_rejected(self):
        with pytest.raises(AlgebraError):
            Aggregate(RelationRef("t"), group_by=("g",),
                      specs=(("count", None, "g"),))
        with pytest.raises(AlgebraError):
            Aggregate(RelationRef("t"),
                      specs=(("min", "x", "m"), ("max", "x", "m")))

    def test_duplicate_group_attributes_are_rejected(self):
        with pytest.raises(AlgebraError):
            Aggregate(RelationRef("t"), group_by=("g", "g"), specs=("count",))

    def test_unknown_function_is_rejected(self):
        with pytest.raises(AlgebraError):
            Aggregate(RelationRef("t"), specs=(("median", "x"),))

    def test_aggregate_needs_groups_or_specs(self):
        with pytest.raises(AlgebraError):
            Aggregate(RelationRef("t"))


# -- the column kernel against the row accumulator -----------------------------------------

#: REPRO_ORDER_EXAMPLES=<n> raises the example count (CI's random-seed sweep)
EXAMPLES = int(os.environ.get("REPRO_ORDER_EXAMPLES", "150"))

NAN = float("nan")
ABSENT = object()  # a cell its row does not carry

#: numbers only, so sum/avg over them never raise
numbers = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1]),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float(2**53), math.inf, -math.inf, NAN,
                     1e308, -1e308]),
)
#: anything a column holds: sum/avg over a bool, a string or a tuple raise
anything = st.one_of(numbers, st.booleans(), st.sampled_from(["", "a", "b"]),
                     st.sampled_from([(), (1,), (1, "a"), (NAN,)]))


def _cell(values):
    return st.one_of(st.just(ABSENT), st.none(), values)


rows_strategy = st.lists(st.builds(
    lambda *cells: {name: value for name, value in zip("gab", cells)
                    if value is not ABSENT},
    _cell(st.sampled_from([0, 1, "x"])), _cell(numbers), _cell(anything)),
    max_size=40)
specs_strategy = st.lists(
    st.sampled_from([AggregateSpec("count")] + [
        AggregateSpec(func, attribute)
        for func in ("count", "sum", "avg", "min", "max") for attribute in "ab"]),
    min_size=1, max_size=6, unique=True)


def _accumulated(rows, group_by, specs):
    """The row-at-a-time reference: one AggregateAccumulator state per group,
    groups in order of first appearance."""
    accumulator = AggregateAccumulator(specs)
    groups = {}
    for values in rows:
        key = group_key(values, group_by)
        if key not in groups:
            groups[key] = accumulator.new_state()
        accumulator.update(groups[key], values)
    if not groups and not group_by:
        row = accumulator.empty_result()
        return [row] if row else []
    out = []
    for key, states in groups.items():
        row = dict(group_values(key, group_by), **accumulator.finalize(states))
        if row:
            out.append(row)
    return out


def _outcome(thunk):
    """The rows ``thunk`` returns, each value as its repr — 1, 1.0 and True
    differ, a NaN equals a NaN — or the class of the error it raised."""
    try:
        return [{name: repr(value) for name, value in row.items()} for row in thunk()]
    except AlgebraError as error:
        return type(error)


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=rows_strategy, specs=specs_strategy,
       group_by=st.sampled_from([(), ("g",), ("g", "a")]), data=st.data())
def test_batched_aggregates_equal_the_accumulator(rows, specs, group_by, data):
    """Batches of any size, drained into records after any of them and
    absorbed back in two slices, finalize to what the row accumulator gives
    — or raise what it raises."""
    batches, drains, start = [], [], 0
    while start < len(rows):
        stop = start + data.draw(st.integers(1, 8), label="batch rows")
        batches.append(rows[start:stop])
        drains.append(data.draw(st.booleans(), label="drain after it"))
        start = stop
    split = data.draw(st.integers(0, len(rows)), label="records absorbed first")

    def in_one_instance():
        aggregates = CompiledAggregates(group_by, specs)
        for batch in batches:
            aggregates.update(LazyBatch(batch))
        return aggregates.results()

    def drained_and_absorbed():
        aggregates, records = CompiledAggregates(group_by, specs), []
        for batch, drain in zip(batches, drains):
            aggregates.update(LazyBatch(batch))
            if drain:
                records.extend(aggregates.drain())
        records.extend(aggregates.drain())
        merged = CompiledAggregates(group_by, specs)
        merged.absorb(records[:split])
        merged.absorb(records[split:])
        return merged.results()

    expected = _outcome(lambda: _accumulated(rows, group_by, specs))
    assert _outcome(in_one_instance) == expected
    assert _outcome(drained_and_absorbed) == expected


class TestColumnKernel:
    """Cases the property covers, pinned by name, and what the kernel must
    not do."""

    SPECS = (AggregateSpec("min", "x"), AggregateSpec("max", "x"))

    @staticmethod
    def _run(column, specs=SPECS, sliced=False):
        """The one global row over ``column`` in one batch or, ``sliced``,
        each row drained on its own and the records absorbed back."""
        rows = [{"x": value} for value in column]
        aggregates = CompiledAggregates((), specs)
        if not sliced:
            aggregates.update(LazyBatch(rows))
        else:
            records = []
            for row in rows:
                aggregates.update(LazyBatch([row]))
                records.extend(aggregates.drain())
            aggregates.absorb(records)
        (row,) = aggregates.results()
        return row

    @pytest.mark.parametrize("sliced", [False, True])
    def test_nan_is_the_max_beside_a_number_and_never_the_min(self, sliced):
        for column in ([NAN, 1], [1, NAN]):
            row = self._run(column, sliced=sliced)
            assert row["min_x"] == 1 and math.isnan(row["max_x"])

    @pytest.mark.parametrize("sliced", [False, True])
    def test_the_first_seen_of_order_equal_values_wins(self, sliced):
        for column in itertools.permutations([True, 1, 1.0]):
            row = self._run(column, sliced=sliced)
            assert repr(row["min_x"]) == repr(row["max_x"]) == repr(column[0])

    def test_a_non_numeric_sum_reports_the_first_sum_spec(self):
        """Spec order picks the reported value, not row order: sum(a) comes
        before sum(b), so a's bad value is named although b's comes first
        in the rows and b's accumulator also serves the earlier min(b)."""
        aggregates = CompiledAggregates((), (
            AggregateSpec("min", "b"), AggregateSpec("sum", "a"), AggregateSpec("sum", "b")))
        with pytest.raises(AlgebraError, match=re.escape(
                "sum over non-numeric value 'y' of attribute 'a'")):
            aggregates.update(LazyBatch([{"a": 1, "b": "x"}, {"a": "y", "b": 2}]))

    def test_plain_numbers_never_build_an_order_key(self, monkeypatch):
        built = []

        def recording(value):
            built.append(value)
            return value_order_key(value)

        monkeypatch.setattr("repro.exec.compiled.value_order_key", recording)
        numbers = [3, 1.5, -2, 2**60, -0.0, math.inf, -math.inf, None]
        aggregates = CompiledAggregates(("g",), self.SPECS)
        aggregates.update(LazyBatch([{"g": at % 2, "x": value}
                                     for at, value in enumerate(numbers)]))
        merged = CompiledAggregates(("g",), self.SPECS)
        merged.absorb(aggregates.drain())
        assert merged.results() and built == []
        merged.update(LazyBatch([{"g": 0, "x": True}, {"g": 0, "x": NAN},
                                 {"g": 1, "x": "s"}]))
        assert built == [True, NAN, "s"]
