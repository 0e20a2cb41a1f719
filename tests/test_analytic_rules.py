"""The analytic rewrite rules: soundness, guards, termination, planner wiring.

Every positive case asserts both the *shape* of the rewritten tree and
result-equivalence against the naive evaluator; every guard case asserts the
rule declines.  The planner tests prove the rules reach a fixpoint inside
``Planner.optimize`` (which runs all of ``DEFAULT_RULES`` to quiescence).
"""

import pytest

from repro.algebra import (
    Aggregate,
    Evaluator,
    Limit,
    Projection,
    RelationRef,
    Rename,
    Sort,
    Union,
)
from repro.algebra.predicates import Comparison
from repro.algebra.expressions import Selection
from repro.model.tuples import FlexTuple
from repro.optimizer import (
    Planner,
    eliminate_noop_sorts,
    push_aggregate_into_unions,
    push_aggregate_past_rename,
    push_limit_into_unions,
)
from repro.optimizer.planner import DEFAULT_RULES


@pytest.fixture(scope="module")
def source():
    rows_a = {FlexTuple(id=i, g="g{}".format(i % 3), x=i * 3 % 17)
              for i in range(20)}
    rows_b = {FlexTuple(id=i + 100, g="g{}".format(i % 4), x=i * 5 % 13)
              for i in range(15)}
    # a few variant rows: no g (⊥-group routing) or no x (absent aggregation input)
    rows_b |= {FlexTuple(id=200, x=99), FlexTuple(id=201, g="g0"), FlexTuple(id=202)}
    return {"a": rows_a, "b": rows_b}


def assert_equivalent(expression, rewritten, source):
    evaluator = Evaluator(source)
    assert evaluator.evaluate(expression).tuples \
        == evaluator.evaluate(rewritten).tuples


class TestEliminateNoopSorts:
    def test_sort_below_aggregate_is_dropped(self, source):
        expr = Aggregate(Sort(RelationRef("a"), ("x",)),
                         group_by=("g",), specs=("count",))
        rewritten, report = eliminate_noop_sorts(expr)
        assert report.changed
        assert isinstance(rewritten, Aggregate)
        assert isinstance(rewritten.child, RelationRef)
        assert_equivalent(expr, rewritten, source)

    def test_consecutive_sorts_collapse_to_the_outer(self, source):
        expr = Sort(Sort(RelationRef("a"), ("x",)), ("-g",))
        rewritten, report = eliminate_noop_sorts(expr)
        assert report.changed
        assert isinstance(rewritten, Sort) and rewritten.keys == expr.keys
        assert isinstance(rewritten.child, RelationRef)
        assert_equivalent(expr, rewritten, source)

    def test_sort_feeding_a_limit_is_kept(self, source):
        expr = Limit(Sort(RelationRef("a"), ("x",)), 3)
        _, report = eliminate_noop_sorts(expr)
        assert not report.changed


class TestPushLimitIntoUnions:
    def test_bare_limit_is_pushed_into_both_branches(self, source):
        expr = Limit(Union(RelationRef("a"), RelationRef("b")), 4)
        rewritten, report = push_limit_into_unions(expr)
        assert report.changed
        assert isinstance(rewritten, Limit) and rewritten.count == 4
        union = rewritten.child
        assert isinstance(union, Union)
        assert isinstance(union.left, Limit) and isinstance(union.right, Limit)
        assert_equivalent(expr, rewritten, source)

    def test_sorted_limit_carries_its_keys_into_the_branches(self, source):
        expr = Limit(Sort(Union(RelationRef("a"), RelationRef("b")),
                          ("-x", "id")), 5)
        rewritten, report = push_limit_into_unions(expr)
        assert report.changed
        keys = expr.child.keys  # the coerced SortKey tuple of the original
        # outer shape: Limit(Sort(Union(Limit(Sort(A)), Limit(Sort(B)))))
        assert isinstance(rewritten, Limit)
        outer_sort = rewritten.child
        assert isinstance(outer_sort, Sort) and outer_sort.keys == keys
        for branch in outer_sort.child.children:
            assert isinstance(branch, Limit) and branch.count == 5
            assert isinstance(branch.child, Sort)
            assert branch.child.keys == keys
        assert_equivalent(expr, rewritten, source)

    def test_bare_limit_prunes_a_sorted_branch_in_canonical_order(self):
        """A key-less λ means canonical order: a sorted branch must not pick
        its own top-k by the sort's keys."""
        source = {"r": {FlexTuple(a=value) for value in (1, 2, 3)}, "s": set()}
        expr = Limit(Union(Sort(RelationRef("r"), ("-a",)), RelationRef("s")), 1)
        rewritten, report = Planner(catalog=source).optimize(expr)
        assert report.changed
        assert Evaluator(source).evaluate(rewritten).tuples == {FlexTuple(a=1)}
        assert_equivalent(expr, rewritten, source)

    def test_already_pushed_form_is_a_fixpoint(self, source):
        expr = Limit(Union(RelationRef("a"), RelationRef("b")), 4)
        once, _ = push_limit_into_unions(expr)
        twice, report = push_limit_into_unions(once)
        assert not report.changed and twice is once

    def test_limit_over_non_union_is_untouched(self, source):
        expr = Limit(RelationRef("a"), 4)
        _, report = push_limit_into_unions(expr)
        assert not report.changed


class TestPushAggregateIntoUnions:
    def test_min_max_aggregation_is_pushed(self, source):
        expr = Aggregate(Union(RelationRef("a"), RelationRef("b")),
                         group_by=("g",),
                         specs=(("min", "x"), ("max", "x")))
        rewritten, report = push_aggregate_into_unions(expr)
        assert report.changed
        assert isinstance(rewritten, Aggregate)
        union = rewritten.child
        assert isinstance(union, Union)
        assert isinstance(union.left, Aggregate) and isinstance(union.right, Aggregate)
        # the outer refold reads the partial outputs, keeping their names
        assert tuple(spec.attribute for spec in rewritten.specs) \
            == tuple(spec.output for spec in rewritten.specs)
        assert_equivalent(expr, rewritten, source)

    def test_non_idempotent_specs_are_not_pushed(self, source):
        for specs in (("count",), (("sum", "x"),), (("min", "x"), ("avg", "x"))):
            expr = Aggregate(Union(RelationRef("a"), RelationRef("b")),
                             group_by=("g",), specs=specs)
            _, report = push_aggregate_into_unions(expr)
            assert not report.changed

    def test_pushed_form_is_a_fixpoint(self, source):
        expr = Aggregate(Union(RelationRef("a"), RelationRef("b")),
                         group_by=("g",), specs=(("min", "x"),))
        once, _ = push_aggregate_into_unions(expr)
        _, report = push_aggregate_into_unions(once)
        assert not report.changed

    def test_bottom_group_routing_composes_through_the_push(self, source):
        """Rows lacking g partial-aggregate into a ⊥ row that re-routes to ⊥."""
        expr = Aggregate(Union(RelationRef("a"), RelationRef("b")),
                         group_by=("g",), specs=(("max", "x"),))
        rewritten, report = push_aggregate_into_unions(expr)
        assert report.changed
        result = Evaluator(source).evaluate(rewritten).tuples
        bottom = [tup for tup in result if "g" not in tup]
        assert len(bottom) == 1 and bottom[0]["max_x"] == 99


class TestPushAggregatePastRename:
    def _tree(self, mapping, group_by=("grp",), specs=(("count", None, "n"),)):
        return Aggregate(
            Rename(Projection(RelationRef("a"), ["id", "g", "x"]), mapping),
            group_by=group_by, specs=specs)

    def test_injective_rename_is_deferred_to_the_group_rows(self, source):
        expr = self._tree({"g": "grp", "id": "ident"},
                          specs=(("count", None, "n"), ("min", "ident", "lo")))
        rewritten, report = push_aggregate_past_rename(expr)
        assert report.changed
        assert isinstance(rewritten, Rename)
        assert rewritten.mapping == {"g": "grp"}
        inner = rewritten.child
        assert isinstance(inner, Aggregate) and inner.group_by == ("g",)
        assert isinstance(inner.child, Projection)
        assert_equivalent(expr, rewritten, source)

    def test_rename_of_unread_attributes_disappears(self, source):
        expr = self._tree({"id": "ident"}, group_by=("g",))
        rewritten, report = push_aggregate_past_rename(expr)
        assert report.changed
        # nothing the aggregate reads was renamed → no outer rename at all
        assert isinstance(rewritten, Aggregate) and rewritten.group_by == ("g",)
        assert_equivalent(expr, rewritten, source)

    def test_non_injective_rename_vetoes_the_push(self, source):
        # g and x both map to "v": tuples may collapse before aggregation
        expr = self._tree({"g": "v", "x": "v"}, group_by=("v",))
        _, report = push_aggregate_past_rename(expr)
        assert not report.changed

    def test_reading_an_attribute_outside_the_image_vetoes_the_push(self, source):
        expr = self._tree({"g": "grp"}, group_by=("grp", "missing"))
        _, report = push_aggregate_past_rename(expr)
        assert not report.changed

    def test_output_name_colliding_with_inner_group_vetoes_the_push(self, source):
        expr = self._tree({"g": "grp"}, specs=(("count", None, "g"),))
        _, report = push_aggregate_past_rename(expr)
        assert not report.changed

    def test_rename_without_projection_below_is_untouched(self, source):
        expr = Aggregate(Rename(RelationRef("a"), {"g": "grp"}),
                         group_by=("grp",), specs=("count",))
        _, report = push_aggregate_past_rename(expr)
        assert not report.changed


class TestPlannerIntegration:
    def test_all_four_rules_are_default(self):
        for rule in (eliminate_noop_sorts, push_limit_into_unions,
                     push_aggregate_into_unions, push_aggregate_past_rename):
            assert rule in DEFAULT_RULES

    def test_planner_reaches_a_fixpoint_on_a_combined_tree(self, employee_database):
        expr = Limit(
            Sort(
                Aggregate(
                    Sort(Selection(RelationRef("employees"),
                                   Comparison("salary", ">", 0)), ("name",)),
                    group_by=("jobtype",), specs=(("max", "salary"),)),
                ("-max_salary",)),
            2)
        planner = Planner(catalog=employee_database)
        optimized, report = planner.optimize(expr)
        assert report.changed  # at least the no-op sort under γ is gone
        evaluator = Evaluator(employee_database)
        assert evaluator.evaluate(expr).tuples \
            == evaluator.evaluate(optimized).tuples
        # quiescent: a second pass finds nothing
        _, again = planner.optimize(optimized)
        assert not again.changed
