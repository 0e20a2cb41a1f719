"""Tests for the static cost model and remaining expression-level behaviours."""

import pytest

from repro.algebra import (
    Difference,
    EmptyRelation,
    Evaluator,
    Extension,
    MultiwayJoin,
    NaturalJoin,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import Comparison, FalsePredicate, TruePredicate
from repro.errors import OptimizerError
from repro.model.attributes import attrset
from repro.optimizer.cost import TUPLE_COST, CostEstimate, CostModel, measured_cost


class TestEstimateCost:
    def test_base_relation(self, employee_database):
        estimate = CostModel(employee_database).estimate(RelationRef("employees"))
        assert estimate.cardinality == 60 and estimate.work == 60

    def test_unknown_relation_estimates_zero(self, employee_database):
        assert CostModel(employee_database).estimate(RelationRef("missing")).cardinality == 0

    def test_empty_relation(self, employee_database):
        estimate = CostModel(employee_database).estimate(EmptyRelation())
        assert estimate.cardinality == 0 and estimate.work == 0

    def test_selection_reduces_cardinality_and_adds_work(self, employee_database):
        model = CostModel(employee_database)
        base = model.estimate(RelationRef("employees"))
        selected = model.estimate(Selection(RelationRef("employees"), TruePredicate()))
        assert selected.cardinality < base.cardinality
        assert selected.work == base.work + base.cardinality * TUPLE_COST

    def test_guard_projection_extension_rename(self, employee_database):
        for node in (
            TypeGuardNode(RelationRef("employees"), ["typing_speed"]),
            Projection(RelationRef("employees"), ["name"]),
            Extension(RelationRef("employees"), "tag", 1),
            Rename(RelationRef("employees"), {"name": "label"}),
        ):
            estimate = CostModel(employee_database).estimate(node)
            assert estimate.work > 60

    def test_product_and_join(self, employee_database):
        model = CostModel(employee_database)
        product = model.estimate(Product(RelationRef("employees"), RelationRef("employees")))
        join = model.estimate(NaturalJoin(RelationRef("employees"), RelationRef("employees")))
        assert product.cardinality == 3600
        assert join.cardinality < product.cardinality
        assert product.work > 3600

    def test_union_and_difference(self, employee_database):
        model = CostModel(employee_database)
        union = model.estimate(Union(RelationRef("employees"), RelationRef("employees")))
        difference = model.estimate(Difference(RelationRef("employees"),
                                               RelationRef("employees")))
        assert union.cardinality == 120
        assert difference.cardinality == 60

    def test_multiway_join(self, employee_database):
        node = MultiwayJoin([RelationRef("employees"), RelationRef("employees"),
                             RelationRef("employees")], on=["emp_id"])
        estimate = CostModel(employee_database).estimate(node)
        assert estimate.cardinality >= 60 and estimate.work >= 180

    def test_outside_a_pass_nothing_is_kept(self, employee_database):
        """A pass (``bind`` with reads) keeps each node's estimate; outside
        one the same model reads the table as it is now."""
        from repro.workloads.employees import generate_employees

        model = CostModel(employee_database)
        node = Projection(RelationRef("employees"), ["name"])
        assert model.estimate(node).cardinality == 60
        employee_database.table("employees").insert_many(
            generate_employees(5, seed=8, start_id=10_000))
        assert model.estimate(node).cardinality == 65
        model.bind((), {})
        assert model.estimate(node).cardinality == 65
        employee_database.table("employees").insert_many(
            generate_employees(5, seed=9, start_id=20_000))
        assert model.estimate(node).cardinality == 65
        model.bind()
        assert model.estimate(node).cardinality == 70

    def test_unknown_node_rejected(self, employee_database):
        class Strange:
            pass

        with pytest.raises(OptimizerError):
            CostModel(employee_database).estimate(Strange())

    def test_repr(self):
        assert "cardinality" in repr(CostEstimate(1.0, 2.0))


class TestMeasuredCost:
    def test_empty_relation_costs_nothing(self, employee_database):
        stats = measured_cost(EmptyRelation(), employee_database)
        assert stats.total_work == 0 and stats.tuples_produced == 0

    def test_false_selection_still_scans(self, employee_database):
        stats = measured_cost(Selection(RelationRef("employees"), FalsePredicate()),
                              employee_database)
        assert stats.predicate_evaluations == 60
        assert stats.tuples_produced == 0


class TestRenameDependencies:
    def test_rename_carries_dependencies_over(self, employee_database):
        node = Rename(RelationRef("employees"), {"jobtype": "role", "typing_speed": "wpm"})
        dependencies = node.known_ads(employee_database)
        assert any(d.lhs == attrset(["role"]) and "wpm" in d.rhs for d in dependencies)

    def test_renamed_dependencies_hold_in_result(self, employee_database):
        node = Rename(RelationRef("employees"), {"jobtype": "role"})
        result = Evaluator(employee_database).evaluate(node)
        for dependency in node.known_ads(employee_database):
            assert dependency.holds_in(result.tuples)

    def test_rename_established_equalities(self, employee_database):
        node = Rename(Selection(RelationRef("employees"), Comparison("jobtype", "=", "secretary")),
                      {"jobtype": "role"})
        assert node.established_equalities() == {"role": "secretary"}
