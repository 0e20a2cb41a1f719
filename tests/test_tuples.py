"""Tests for heterogeneous tuples and the column-oriented batches over them."""

from itertools import product

import pytest

from repro.algebra import NaturalJoin, RelationRef
from repro.algebra.predicates import Comparison
from repro.errors import TupleError
from repro.algebra.predicates import PresencePredicate
from repro.exec import CompiledGuard, CompiledPredicate, ExecutionContext, PhysicalPlanner
from repro.model.attributes import attrset
from repro.model.batches import (
    LazyBatch,
    MISSING,
    TupleBatch,
    merge_values,
)
from repro.model.tuples import FlexTuple
from repro.workloads.employees import generate_employees


class TestConstruction:
    def test_from_kwargs(self):
        t = FlexTuple(jobtype="secretary", salary=4000.0)
        assert t["jobtype"] == "secretary" and t["salary"] == 4000.0

    def test_from_mapping(self):
        t = FlexTuple({"a": 1, "b": 2})
        assert t["a"] == 1 and t["b"] == 2

    def test_mixed_construction(self):
        t = FlexTuple({"a": 1}, b=2)
        assert t["a"] == 1 and t["b"] == 2

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(TupleError):
            FlexTuple({"a": 1}, a=2)

    def test_empty_tuple(self):
        t = FlexTuple()
        assert len(t) == 0 and not list(t)


class TestPaperInterface:
    def test_attr_t(self):
        t = FlexTuple(a=1, b=2)
        assert t.attributes == attrset(["a", "b"])

    def test_is_defined_on(self):
        t = FlexTuple(a=1, b=2)
        assert t.is_defined_on(["a"]) and t.is_defined_on(["a", "b"])
        assert not t.is_defined_on(["a", "c"])

    def test_projection(self):
        t = FlexTuple(a=1, b=2, c=3)
        assert t.project(["a", "b"]) == FlexTuple(a=1, b=2)

    def test_projection_requires_presence(self):
        with pytest.raises(TupleError):
            FlexTuple(a=1).project(["a", "z"])

    def test_project_existing(self):
        t = FlexTuple(a=1, b=2)
        assert t.project_existing(["a", "z"]) == FlexTuple(a=1)

    def test_agrees_with(self):
        t1 = FlexTuple(a=1, b=2)
        t2 = FlexTuple(a=1, c=3)
        assert t1.agrees_with(t2, ["a"])
        assert not t1.agrees_with(t2, ["b"])  # t2 lacks b
        assert not t1.agrees_with(FlexTuple(a=9), ["a"])

    def test_missing_attribute_access_raises(self):
        with pytest.raises(TupleError):
            FlexTuple(a=1)["z"]

    def test_get_with_default(self):
        assert FlexTuple(a=1).get("z", 42) == 42


class TestDerivation:
    def test_extend(self):
        t = FlexTuple(a=1).extend(b=2)
        assert t == FlexTuple(a=1, b=2)

    def test_extend_existing_attribute_rejected(self):
        with pytest.raises(TupleError):
            FlexTuple(a=1).extend(a=2)

    def test_replace(self):
        assert FlexTuple(a=1).replace(a=2) == FlexTuple(a=2)

    def test_replace_missing_attribute_rejected(self):
        with pytest.raises(TupleError):
            FlexTuple(a=1).replace(b=2)

    def test_remove(self):
        assert FlexTuple(a=1, b=2).remove(["b"]) == FlexTuple(a=1)

    def test_merge_disjoint(self):
        assert FlexTuple(a=1).merge(FlexTuple(b=2)) == FlexTuple(a=1, b=2)

    def test_merge_agreeing_overlap(self):
        assert FlexTuple(a=1, b=2).merge(FlexTuple(b=2, c=3)) == FlexTuple(a=1, b=2, c=3)

    def test_merge_conflicting_overlap_rejected(self):
        with pytest.raises(TupleError):
            FlexTuple(a=1).merge(FlexTuple(a=2))

    def test_original_is_untouched(self):
        t = FlexTuple(a=1)
        t.extend(b=2)
        assert t == FlexTuple(a=1)


class TestEqualityAndHashing:
    def test_equality_is_structural(self):
        assert FlexTuple(a=1, b=2) == FlexTuple(b=2, a=1)

    def test_equality_with_mapping(self):
        assert FlexTuple(a=1) == {"a": 1}

    def test_inequality_on_values(self):
        assert FlexTuple(a=1) != FlexTuple(a=2)

    def test_inequality_on_attributes(self):
        assert FlexTuple(a=1) != FlexTuple(a=1, b=2)

    def test_usable_in_sets(self):
        assert len({FlexTuple(a=1), FlexTuple(a=1), FlexTuple(a=2)}) == 2

    def test_items_sorted(self):
        assert [name for name, _ in FlexTuple(b=2, a=1).items()] == ["a", "b"]

    def test_as_dict_roundtrip(self):
        original = {"a": 1, "b": "x"}
        assert FlexTuple(original).as_dict() == original

    def test_contains(self):
        assert "a" in FlexTuple(a=1) and "z" not in FlexTuple(a=1)


# -- batches ------------------------------------------------------------------------------------


def _tuples(*dicts):
    return [FlexTuple(d) for d in dicts]


VARIANTS = _tuples(
    {"id": 1, "kind": "a", "x": 10},
    {"id": 2, "kind": "b"},
    {"id": 3, "kind": "a", "x": 30, "y": "hi"},
    {"id": 4, "y": "lo"},
)


@pytest.fixture
def source():
    employees = {FlexTuple(row) for row in generate_employees(90, seed=3)}
    assignments = {FlexTuple({"emp_id": i, "project": "p{}".format(i % 4)})
                   for i in range(1, 70)}
    return {"employees": employees, "assignments": assignments}


class TestTupleBatch:
    def test_empty_batch(self):
        batch = TupleBatch([])
        assert len(batch) == 0 and not batch
        assert batch.column("x") == []
        assert CompiledGuard(["x"]).select(batch) == []
        assert batch.take([]).rows == []

    def test_column_values_and_missing(self):
        batch = TupleBatch(list(VARIANTS))
        values = batch.column("x")
        assert values[0] == 10 and values[1] is MISSING
        assert values[2] == 30 and values[3] is MISSING

    def test_a_guard_selects_the_rows_defined_on_its_attributes(self):
        batch = TupleBatch(list(VARIANTS))
        assert CompiledGuard(["kind"]).select(batch) == [0, 1, 2]
        assert CompiledGuard(["kind", "x"]).select(batch) == [0, 2]
        assert CompiledGuard([]).select(batch) == [0, 1, 2, 3]
        assert CompiledGuard(["nope"]).select(batch) == []
        # From a candidate list the guard keeps the surviving indices in order.
        assert CompiledGuard(["y"]).select(batch, [1, 2, 3]) == [2, 3]
        assert CompiledGuard(["kind"]).select(batch, []) == []

    def test_a_two_attribute_guard_selects_the_rows_defined_on_both(self):
        """Every sequence of four rows over the four presence patterns of a and
        b, eager and lazy, from all rows or a candidate list: the guard and the
        presence predicate keep exactly the rows ``is_defined_on`` accepts."""
        patterns = ({"a": 1, "b": 2}, {"a": 1}, {"b": 2}, {})
        guard, both = CompiledGuard(["b", "a"]), attrset(["a", "b"])
        presence = CompiledPredicate(PresencePredicate(["a", "b"]))
        for picks in product(range(4), repeat=4):
            rows = [FlexTuple(dict(patterns[p], id=i)) for i, p in enumerate(picks)]
            for batch in (TupleBatch(rows), LazyBatch([row.as_dict() for row in rows])):
                for candidates in (None, [0, 2, 3]):
                    expected = [i for i in (range(4) if candidates is None else candidates)
                                if rows[i].is_defined_on(both)]
                    assert guard.select(batch, candidates) == expected
                    assert presence.select(batch, candidates) == expected
        batch = TupleBatch([FlexTuple(id=1), FlexTuple(a=1, id=2)])
        assert CompiledGuard([]).select(batch) == [0, 1]
        assert CompiledGuard(["a", "nope"]).select(batch) == []

    def test_take_and_interop(self):
        batch = TupleBatch(list(VARIANTS))
        taken = batch.take([0, 2])
        assert [t["id"] for t in taken] == [1, 3]
        # Iteration and len are all a materializing operator needs.
        assert len(taken) == 2 and set(taken) == {VARIANTS[0], VARIANTS[2]}


class TestLazyBatches:
    """Lazy merged join output: tuples materialize only when a materializing
    operator (or the result set) touches them."""

    def join_plan(self, source):
        return PhysicalPlanner(source=source).plan(
            NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                        on=["emp_id"]))

    def test_join_emits_lazy_batches(self, source):
        plan = self.join_plan(source)
        batches = list(plan.root.run(
            ExecutionContext(source, batch_size=4096)))
        assert batches and all(isinstance(b, LazyBatch) for b in batches)
        assert not any(b.materialized for b in batches)
        # Column access answers from the merged value dicts, still lazily.
        assert MISSING not in batches[0].column("project")
        assert not batches[0].materialized
        # Iteration (what the result collector does) materializes.
        rows = list(batches[0])
        assert all(isinstance(row, FlexTuple) for row in rows)
        assert batches[0].materialized

    def test_filter_on_lazy_batch_narrows_without_materializing(self, source):
        batch = LazyBatch([{"emp_id": i, "project": "p{}".format(i % 4)}
                           for i in range(20)])
        compiled = CompiledPredicate(Comparison("project", "=", "p1"))
        narrowed = batch.take(compiled.select(batch))
        assert isinstance(narrowed, LazyBatch) and len(narrowed) == 5
        assert not batch.materialized and not narrowed.materialized

    def test_lazy_rows_equal_eager_construction(self):
        values = {"a": 1, "b": "x"}
        lazy = LazyBatch([dict(values)]).rows[0]
        assert lazy == FlexTuple(values)
        assert hash(lazy) == hash(FlexTuple(values))

    def test_merge_values_conflict_raises_eagerly(self):
        with pytest.raises(TupleError):
            merge_values({"a": 1, "b": 2}, {"a": 1, "b": 3})
        assert merge_values({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}
        # the right value is kept on agreement, exactly as FlexTuple.merge
        merged = merge_values({"a": 1, "c": 0}, {"a": 1.0, "b": 2})
        row_merged = FlexTuple({"a": 1, "c": 0}).merge(FlexTuple({"a": 1.0, "b": 2}))
        assert repr(merged["a"]) == repr(row_merged["a"]) == "1.0"
