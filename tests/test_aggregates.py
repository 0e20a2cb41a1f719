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
"""

import pytest

from repro.algebra import Aggregate, EmptyRelation, RelationRef
from repro.algebra.evaluator import Evaluator
from repro.errors import AlgebraError
from repro.exec import PhysicalPlanner
from repro.model.tuples import FlexTuple

#: every aggregate over x, all in one query
ALL_SPECS = ("count", ("count", "x"), ("sum", "x"), ("min", "x"),
             ("max", "x"), ("avg", "x"))


def run_everywhere(expression, source, batch_size=3):
    """The result set, identical across naive and physical execution."""
    reference = Evaluator(source).evaluate(expression).tuples
    plan = PhysicalPlanner(source=source).plan(expression)
    assert plan.execute(source, batch_size=batch_size).tuples == reference
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
