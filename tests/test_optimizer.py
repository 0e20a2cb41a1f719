"""Tests for the AD-driven optimizer: analysis, rewrites, planner, cost."""

import pytest

from repro.algebra import (
    EmptyRelation,
    Evaluator,
    Extension,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import Comparison, FalsePredicate, PresencePredicate
from repro.engine import Database
from repro.model.attributes import attrset
from repro.optimizer import (
    Planner,
    eliminate_contradictory_selections,
    eliminate_redundant_guards,
    guaranteed_absent,
    guaranteed_present,
    measured_cost,
    prune_union_branches,
    push_selections_through_joins,
)
from repro.model.domains import IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme
from repro.optimizer.cost import CostModel
from repro.optimizer.planner import DEFAULT_RULES


def secretary_selection():
    return Comparison("salary", ">", 5000.0) & Comparison("jobtype", "=", "secretary")


class TestAnalysis:
    def test_selection_forces_presence_of_predicate_attributes(self, employee_database):
        expr = Selection(RelationRef("employees"), secretary_selection())
        present = guaranteed_present(expr, employee_database)
        assert attrset(["salary", "jobtype"]).issubset(present)

    def test_dependency_implies_variant_attributes(self, employee_database):
        expr = Selection(RelationRef("employees"), secretary_selection())
        present = guaranteed_present(expr, employee_database)
        assert attrset(["typing_speed", "foreign_languages"]).issubset(present)

    def test_dependency_implies_absence_of_other_variants(self, employee_database):
        expr = Selection(RelationRef("employees"), secretary_selection())
        absent = guaranteed_absent(expr, employee_database)
        assert attrset(["sales_commission", "products", "programming_languages"]).issubset(absent)

    def test_unbound_determinant_implies_nothing(self, employee_database):
        expr = Selection(RelationRef("employees"), Comparison("salary", ">", 5000.0))
        assert "typing_speed" not in guaranteed_present(expr, employee_database)
        assert guaranteed_absent(expr, employee_database) == attrset([])

    def test_unmatched_determinant_value_implies_total_absence(self, employee_database):
        expr = Selection(RelationRef("employees"), Comparison("jobtype", "=", "pilot"))
        absent = guaranteed_absent(expr, employee_database)
        assert attrset(["typing_speed", "products", "sales_commission"]).issubset(absent)

    def test_projection_erases_structural_guarantee(self, employee_database):
        expr = Projection(Selection(RelationRef("employees"), secretary_selection()), ["name"])
        assert "jobtype" not in guaranteed_present(expr, employee_database)


class TestRedundantGuardElimination:
    """Example 4: the type guard on typing-speed after jobtype='secretary' is redundant."""

    def test_example4_guard_is_removed(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["typing_speed"])
        rewritten, report = eliminate_redundant_guards(expr, employee_database)
        assert report.changed
        assert isinstance(rewritten, Selection)

    def test_guard_on_unimplied_attribute_is_kept(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["sales_commission"])
        rewritten, report = eliminate_redundant_guards(expr, employee_database)
        assert not report.changed
        assert isinstance(rewritten, TypeGuardNode)

    def test_guard_without_selection_is_kept(self, employee_database):
        expr = TypeGuardNode(RelationRef("employees"), ["typing_speed"])
        _, report = eliminate_redundant_guards(expr, employee_database)
        assert not report.changed

    def test_guard_implied_by_another_guard_is_removed(self, employee_database):
        expr = TypeGuardNode(TypeGuardNode(RelationRef("employees"), ["typing_speed", "name"]),
                             ["typing_speed"])
        rewritten, report = eliminate_redundant_guards(expr, employee_database)
        assert report.changed
        assert isinstance(rewritten, TypeGuardNode)
        assert rewritten.attributes == attrset(["typing_speed", "name"])

    def test_rewrite_preserves_results(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["typing_speed"])
        rewritten, _ = eliminate_redundant_guards(expr, employee_database)
        evaluator = Evaluator(employee_database)
        assert evaluator.evaluate(expr).tuples == evaluator.evaluate(rewritten).tuples

    def test_guard_on_multiway_join_attributes_is_kept(self):
        """A master tuple lacking the ``on`` attributes passes the multiway
        join unmerged, so a guard on them still filters rows."""
        database = Database()
        database.create_table("r", FlexibleScheme(1, 2, ["x", "a"]),
                              domains={"x": IntDomain(), "a": IntDomain()}
                              ).insert_many([{"a": 1, "x": 1}, {"x": 2}])
        database.create_table("s", FlexibleScheme(2, 2, ["a", "y"]),
                              domains={"a": IntDomain(), "y": IntDomain()}
                              ).insert({"a": 1, "y": 5})
        expr = TypeGuardNode(MultiwayJoin([RelationRef("r"), RelationRef("s")], on=["a"]),
                             ["a"])
        _, report = eliminate_redundant_guards(expr, database)
        assert not report.changed
        assert len(Evaluator(database).evaluate(expr)) == 1
        assert len(database.execute(expr, optimize=True)) == 1

    def test_rewrite_reduces_measured_work(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["typing_speed"])
        rewritten, _ = eliminate_redundant_guards(expr, employee_database)
        assert measured_cost(rewritten, employee_database).total_work \
            < measured_cost(expr, employee_database).total_work


class TestContradictionElimination:
    def test_guard_on_excluded_attribute_becomes_empty(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["sales_commission"])
        rewritten, report = eliminate_contradictory_selections(expr, employee_database)
        assert report.changed
        assert isinstance(rewritten, EmptyRelation)
        result = Evaluator(employee_database).evaluate(rewritten)
        assert len(result) == 0
        # the whole point of the empty leaf: the input relation is never scanned
        assert result.stats.tuples_scanned == 0

    def test_selection_requiring_excluded_attribute_becomes_empty(self, employee_database):
        inner = Selection(RelationRef("employees"), Comparison("jobtype", "=", "secretary"))
        expr = Selection(inner, Comparison("sales_commission", ">", 0.0))
        rewritten, report = eliminate_contradictory_selections(expr, employee_database)
        assert report.changed
        assert isinstance(rewritten, EmptyRelation)

    def test_equivalent_results(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["sales_commission"])
        rewritten, _ = eliminate_contradictory_selections(expr, employee_database)
        evaluator = Evaluator(employee_database)
        assert evaluator.evaluate(expr).tuples == evaluator.evaluate(rewritten).tuples

    def test_consistent_query_untouched(self, employee_database):
        expr = Selection(RelationRef("employees"), secretary_selection())
        _, report = eliminate_contradictory_selections(expr, employee_database)
        assert not report.changed


class TestUnionBranchPruning:
    def _fragmented_expression(self):
        secretaries = Extension(RelationRef("secretaries"), "jobtype", "secretary")
        salesmen = Extension(RelationRef("salesmen"), "jobtype", "salesman")
        return Selection(OuterUnion(secretaries, salesmen), Comparison("jobtype", "=", "secretary"))

    def test_contradicting_branch_is_pruned(self):
        rewritten, report = prune_union_branches(self._fragmented_expression(), None)
        assert report.changed
        assert isinstance(rewritten, Selection)
        assert isinstance(rewritten.child, Extension)
        assert rewritten.child.value == "secretary"

    def test_both_branches_pruned_gives_empty(self):
        left = Extension(RelationRef("a"), "jobtype", "x")
        right = Extension(RelationRef("b"), "jobtype", "y")
        expr = Selection(Union(left, right), Comparison("jobtype", "=", "z"))
        rewritten, report = prune_union_branches(expr, None)
        assert report.changed and isinstance(rewritten, EmptyRelation)

    def test_selection_without_equalities_keeps_union(self):
        left = Extension(RelationRef("a"), "jobtype", "x")
        right = Extension(RelationRef("b"), "jobtype", "y")
        expr = Selection(Union(left, right), Comparison("salary", ">", 0))
        _, report = prune_union_branches(expr, None)
        assert not report.changed


class TestSelectionPushdown:
    """σ above a join moves to the input whose declared scheme carries it."""

    @pytest.fixture
    def joined(self, employee_database):
        """employees ⋈ assignments(emp_id, project) ⋈ projects(project, budget),
        plus ``badges(emp_id, name)`` whose ``name`` collides with employees'."""
        database = employee_database
        ids = sorted(tup["emp_id"] for tup in database.table("employees"))
        database.create_table(
            "assignments", FlexibleScheme.relational(["emp_id", "project"]),
            domains={"emp_id": IntDomain(), "project": StringDomain(max_length=8)},
            key=["emp_id"],
        ).insert_many({"emp_id": i, "project": "p{}".format(i % 4)} for i in ids[::2])
        database.create_table(
            "projects", FlexibleScheme.relational(["project", "budget"]),
            domains={"project": StringDomain(max_length=8), "budget": IntDomain()},
            key=["project"],
        ).insert_many({"project": "p{}".format(i), "budget": 100 * i} for i in range(3))
        database.create_table(
            "badges", FlexibleScheme.relational(["emp_id", "name"]),
            domains={"emp_id": IntDomain(), "name": StringDomain(max_length=32)},
            key=["emp_id"],
        ).insert_many({"emp_id": i, "name": "badge"} for i in ids[:5])
        return database

    def _same(self, database, expression):
        rewritten, report = Planner(catalog=database).optimize(expression)
        assert (Evaluator(database).evaluate(rewritten).tuples
                == Evaluator(database).evaluate(expression).tuples)
        assert (database.execute(expression, optimize=True).tuples
                == Evaluator(database).evaluate(expression).tuples)
        return rewritten, report

    def test_a_conjunct_goes_to_the_input_that_carries_it(self, joined):
        join = NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                           on=["emp_id"])
        query = Selection(join, Comparison("salary", ">", 4000.0)
                          & Comparison("project", "=", "p1"))
        rewritten, report = self._same(joined, query)
        assert isinstance(rewritten, NaturalJoin)
        assert repr(rewritten.left) == "select[salary > 4000.0]"
        assert repr(rewritten.right) == "select[project = 'p1']"
        assert report.changed

    def test_a_join_attribute_conjunct_goes_to_both_inputs(self, joined):
        join = NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                           on=["emp_id"])
        rewritten, _ = push_selections_through_joins(
            Selection(join, Comparison("emp_id", "<", 20)), joined)
        assert repr(rewritten.left) == repr(rewritten.right) == "select[emp_id < 20]"
        self._same(joined, Selection(join, Comparison("emp_id", "<", 20)))

    def test_it_descends_through_a_join_tree(self, joined):
        tree = NaturalJoin(
            NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                        on=["emp_id"]),
            RelationRef("projects"), on=["project"])
        query = Selection(tree, Comparison("emp_id", "=", 4)
                          & Comparison("budget", ">=", 0))
        rewritten, _ = self._same(joined, query)
        assert "select[emp_id = 4]\n      employees" in rewritten.pretty()
        result = joined.execute(query, optimize=True)
        assert result.stats.tuples_scanned < 10      # not the 3 whole tables

    def test_never_when_the_attribute_could_come_from_either_side(self, joined):
        impure = NaturalJoin(RelationRef("employees"), RelationRef("badges"),
                             on=["emp_id"])      # both carry ``name``
        for predicate in (Comparison("name", "=", "badge"),
                          Comparison("salary", ">", 0.0)):
            query = Selection(impure, predicate)
            rewritten, report = push_selections_through_joins(query, joined)
            assert rewritten is query and not report.changed

    def test_never_through_a_data_dependent_join_or_unknown_schemes(self, joined):
        natural = NaturalJoin(RelationRef("employees"), RelationRef("assignments"))
        query = Selection(natural, Comparison("salary", ">", 4000.0))
        assert push_selections_through_joins(query, joined)[0] is query
        keyed = Selection(NaturalJoin(RelationRef("employees"),
                                      RelationRef("assignments"), on=["emp_id"]),
                          Comparison("salary", ">", 4000.0))
        assert push_selections_through_joins(keyed, None)[0] is keyed
        assert push_selections_through_joins(keyed, {"employees": []})[0] is keyed

    def test_only_the_master_of_a_multiway_join_takes_conjuncts(self, joined):
        multiway = MultiwayJoin([RelationRef("employees"), RelationRef("assignments")],
                                on=["emp_id"])
        on_master = Selection(multiway, Comparison("salary", ">", 4000.0))
        rewritten, _ = self._same(joined, on_master)
        assert isinstance(rewritten, MultiwayJoin)
        # unmatched master tuples survive the join: a fragment conjunct stays above
        on_fragment = Selection(multiway, ~Comparison("project", "=", "p1"))
        rewritten, report = self._same(joined, on_fragment)
        assert isinstance(rewritten, Selection) and not report.changed

    def test_a_pushed_comparison_still_guards_its_variant_attribute(self, joined):
        join = NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                           on=["emp_id"])
        query = Selection(Selection(join, Comparison("jobtype", "=", "secretary")),
                          Comparison("sales_commission", ">", 0.0))
        rewritten, report = self._same(joined, query)
        # wherever the conjuncts end up, they still meet the jobtype AD
        assert "∅" in rewritten.pretty()
        guarded = TypeGuardNode(
            Selection(join, Comparison("typing_speed", ">", 0)), ["typing_speed"])
        rewritten, report = self._same(joined, guarded)
        assert not isinstance(rewritten, TypeGuardNode)


class TestQualifiedRelations:
    """The ∅ leaf that excluded qualifications rewrite to."""

    def test_empty_relation_node_reports_no_dependencies(self, employee_database):
        assert EmptyRelation().known_dependencies(employee_database) == set()
        assert EmptyRelation().guaranteed_attributes() == attrset([])

    def test_empty_relation_evaluates_to_nothing(self, employee_database):
        result = Evaluator(employee_database).evaluate(EmptyRelation())
        assert len(result) == 0 and result.stats.total_work == 0


class TestPlanner:
    def test_planner_applies_example4_end_to_end(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["typing_speed"])
        planner = Planner(catalog=employee_database)
        optimized, report = planner.optimize(expr)
        assert report.changed
        evaluator = Evaluator(employee_database)
        assert evaluator.evaluate(expr).tuples == evaluator.evaluate(optimized).tuples

    def test_planner_reaches_fixpoint_on_plain_query(self, employee_database):
        expr = Selection(RelationRef("employees"), Comparison("salary", ">", 0))
        _, report = Planner(catalog=employee_database).optimize(expr)
        assert not report.changed

    def test_rule_ablation(self, employee_database):
        expr = TypeGuardNode(Selection(RelationRef("employees"), secretary_selection()),
                             ["typing_speed"])
        planner = Planner(catalog=employee_database, rules=[prune_union_branches])
        _, report = planner.optimize(expr)
        assert not report.changed

    def test_default_rules_exposed(self):
        assert eliminate_redundant_guards in DEFAULT_RULES


class TestCost:
    def test_estimate_scales_with_base_cardinality(self, employee_database):
        model = CostModel(employee_database)
        small = model.estimate(RelationRef("employees"))
        selected = model.estimate(Selection(RelationRef("employees"), secretary_selection()))
        assert selected.cardinality < small.cardinality
        assert selected.work > small.work

    def test_false_selection_estimates_zero_output(self, employee_database):
        expr = Selection(RelationRef("employees"), FalsePredicate())
        assert CostModel(employee_database).estimate(expr).cardinality == 0.0

    def test_measured_cost_matches_evaluator(self, employee_database):
        expr = Selection(RelationRef("employees"), secretary_selection())
        stats = measured_cost(expr, employee_database)
        assert stats.predicate_evaluations == 60
