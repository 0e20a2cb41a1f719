"""Tests for the algebra expression AST and its evaluator."""

import pytest

from repro.algebra import (
    Difference,
    EvaluationResult,
    Evaluator,
    Extension,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import Comparison, TruePredicate
from repro.errors import AlgebraError
from repro.model.attributes import attrset
from repro.model.relation import FlexibleRelation
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple


@pytest.fixture
def source():
    """Two small base relations addressed by name."""
    people = FlexibleRelation(
        FlexibleScheme(2, 3, ["pid", "name", "nickname"]),
        name="people",
    )
    people.insert_many([
        {"pid": 1, "name": "ada"},
        {"pid": 2, "name": "bob", "nickname": "b"},
        {"pid": 3, "name": "cyd"},
    ])
    cities = FlexibleRelation(FlexibleScheme.relational(["cid", "city"]), name="cities")
    cities.insert_many([{"cid": 10, "city": "ulm"}, {"cid": 20, "city": "bonn"}])
    orders = FlexibleRelation(FlexibleScheme.relational(["pid", "item"]), name="orders")
    orders.insert_many([{"pid": 1, "item": "book"}, {"pid": 2, "item": "pen"},
                        {"pid": 1, "item": "lamp"}])
    return {"people": people, "cities": cities, "orders": orders}


def evaluate(expression, source):
    return Evaluator(source).evaluate(expression)


class TestLeavesAndErrors:
    def test_relation_ref(self, source):
        result = evaluate(RelationRef("people"), source)
        assert len(result) == 3

    def test_unknown_relation(self, source):
        with pytest.raises(AlgebraError):
            evaluate(RelationRef("missing"), source)

    def test_no_source(self):
        with pytest.raises(AlgebraError):
            evaluate(RelationRef("people"), None)

    def test_empty_name_rejected(self):
        with pytest.raises(AlgebraError):
            RelationRef("")


class TestUnaryOperators:
    def test_selection(self, source):
        result = evaluate(Selection(RelationRef("people"), Comparison("pid", ">", 1)), source)
        assert {t["pid"] for t in result} == {2, 3}

    def test_selection_none_predicate_is_true(self, source):
        assert len(evaluate(Selection(RelationRef("people"), None), source)) == 3

    def test_type_guard(self, source):
        result = evaluate(TypeGuardNode(RelationRef("people"), ["nickname"]), source)
        assert {t["pid"] for t in result} == {2}

    def test_projection_keeps_existing_attributes(self, source):
        result = evaluate(Projection(RelationRef("people"), ["name", "nickname"]), source)
        assert FlexTuple(name="ada") in result
        assert FlexTuple(name="bob", nickname="b") in result

    def test_projection_needs_attributes(self, source):
        with pytest.raises(AlgebraError):
            Projection(RelationRef("people"), [])

    def test_projection_eliminates_duplicates(self, source):
        result = evaluate(Projection(RelationRef("orders"), ["pid"]), source)
        assert len(result) == 2

    def test_extension(self, source):
        result = evaluate(Extension(RelationRef("cities"), "country", "de"), source)
        assert all(t["country"] == "de" for t in result)

    def test_extension_single_attribute_only(self, source):
        with pytest.raises(AlgebraError):
            Extension(RelationRef("cities"), ["a", "b"], 1)

    def test_rename(self, source):
        result = evaluate(Rename(RelationRef("cities"), {"city": "town"}), source)
        assert all("town" in t and "city" not in t for t in result)

    def test_rename_needs_mapping(self, source):
        with pytest.raises(AlgebraError):
            Rename(RelationRef("cities"), {})

    def test_fluent_construction(self, source):
        expression = RelationRef("people").select(Comparison("pid", "=", 2)).project(["name"])
        result = evaluate(expression, source)
        assert result.tuples == {FlexTuple(name="bob")}


class TestBinaryOperators:
    def test_product(self, source):
        result = evaluate(Product(RelationRef("people"), RelationRef("cities")), source)
        assert len(result) == 6

    def test_union_mixes_shapes(self, source):
        result = evaluate(Union(RelationRef("people"), RelationRef("cities")), source)
        assert len(result) == 5

    def test_outer_union_is_plain_union_on_flexible_relations(self, source):
        plain = evaluate(Union(RelationRef("people"), RelationRef("cities")), source)
        outer = evaluate(OuterUnion(RelationRef("people"), RelationRef("cities")), source)
        assert plain.tuples == outer.tuples

    def test_difference(self, source):
        minus = Difference(RelationRef("people"),
                           Selection(RelationRef("people"), Comparison("pid", "=", 1)))
        result = evaluate(minus, source)
        assert {t["pid"] for t in result} == {2, 3}

    def test_natural_join(self, source):
        result = evaluate(NaturalJoin(RelationRef("people"), RelationRef("orders")), source)
        assert len(result) == 3
        assert all(t.is_defined_on(["pid", "name", "item"]) for t in result)

    def test_natural_join_with_explicit_attributes(self, source):
        join = NaturalJoin(RelationRef("people"), RelationRef("orders"), on=["pid"])
        assert len(evaluate(join, source)) == 3

    def test_multiway_join_keeps_unmatched_master_tuples(self, source):
        join = MultiwayJoin([RelationRef("people"), RelationRef("orders")], on=["pid"])
        result = evaluate(join, source)
        # pid 3 has no order but stays
        assert any(t["pid"] == 3 and "item" not in t for t in result)
        assert any(t["pid"] == 1 and t.get("item") == "book" for t in result)

    def test_multiway_join_needs_two_inputs(self, source):
        with pytest.raises(AlgebraError):
            MultiwayJoin([RelationRef("people")], on=["pid"])

    def test_multiway_join_needs_join_attributes(self, source):
        with pytest.raises(AlgebraError):
            MultiwayJoin([RelationRef("people"), RelationRef("orders")], on=[])


class TestTreeRebuilding:
    def test_with_children_replaces_child(self, source):
        original = Selection(RelationRef("people"), Comparison("pid", "=", 1))
        replaced = original.with_children([RelationRef("orders")])
        assert isinstance(replaced, Selection)
        assert replaced.child.name == "orders"
        assert replaced.predicate is original.predicate

    def test_leaf_with_children_rejects_children(self):
        with pytest.raises(AlgebraError):
            RelationRef("people").with_children([RelationRef("x")])

    def test_pretty_renders_tree(self, source):
        expression = RelationRef("people").select(TruePredicate()).project(["name"])
        rendered = expression.pretty()
        assert "project" in rendered and "select" in rendered and "people" in rendered


class TestExecutionStats:
    def test_counters_accumulate(self, source):
        expression = RelationRef("people").select(Comparison("pid", ">", 0)).guard(["nickname"])
        result = evaluate(expression, source)
        stats = result.stats
        assert stats.tuples_scanned >= 3
        assert stats.predicate_evaluations == 3
        assert stats.guard_checks == 3
        assert stats.operators_executed == 3
        assert stats.total_work > 0
        assert stats.as_dict()["tuples_produced"] == len(result)

    def test_join_pairs_counted(self, source):
        result = evaluate(Product(RelationRef("people"), RelationRef("cities")), source)
        assert result.stats.join_pairs_considered == 6

    def test_result_helpers(self, source):
        result = evaluate(RelationRef("cities"), source)
        assert {"cid": 10, "city": "ulm"} in result
        assert attrset(["cid", "city"]) in result.attribute_combinations()
        assert "EvaluationResult" in repr(result)

    def test_database_source(self, employee_database):
        result = evaluate(RelationRef("employees"), employee_database)
        assert len(result) == 60
