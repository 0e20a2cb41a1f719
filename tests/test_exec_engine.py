"""Unit tests for the physical execution subsystem (:mod:`repro.exec`)."""

import os

import pytest

from repro.algebra import (
    Aggregate,
    Difference,
    EmptyRelation,
    Evaluator,
    Extension,
    Limit,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
    Union,
)
from repro.algebra.expressions import Expression
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.errors import CatalogError, MemoryBudgetExceeded
from repro.exec import (
    DifferenceOp,
    EmptyOp,
    ExecutionContext,
    ExtendOp,
    FilterOp,
    GuardOp,
    HashAggregateOp,
    HashJoin,
    MergeUnion,
    MultiwayJoinOp,
    NaturalJoinOp,
    NestedLoopJoin,
    OuterUnionOp,
    PhysicalExecutor,
    PhysicalPlanner,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
    TopKOp,
    expression_key,
)
from repro.exec.planner import PhysicalPlan
from repro.governor import QueryGovernor
from repro.model.batches import LazyBatch
from repro.model.tuples import FlexTuple
from repro.model.domains import IntDomain
from repro.model.scheme import FlexibleScheme
from repro.workloads.employees import employee_definition, generate_employees


@pytest.fixture
def database():
    db = Database()
    definition = employee_definition()
    table = db.create_table("employees", definition.scheme, domains=definition.domains,
                            key=definition.key, dependencies=definition.dependencies)
    table.insert_many(generate_employees(120, seed=5))
    return db


_R, _S = RelationRef("r"), RelationRef("s")
#: not a base relation, so a selection or guard over it cannot fold into a scan
_BOTH = Union(_R, _S)

#: expression class -> its lowerings: (expression, physical class of the root),
#: planned without a source (no cardinalities, no indexes).  The cost-driven
#: join forms are pinned by the other tests of :class:`TestLowering`.
LOWERINGS = {
    EmptyRelation: [(EmptyRelation(), EmptyOp)],
    RelationRef: [(_R, Scan)],
    Selection: [(Selection(_R, Comparison("a", "=", 1)), Scan),
                (Selection(_BOTH, Comparison("a", "=", 1)), FilterOp)],
    TypeGuardNode: [(TypeGuardNode(_R, ["a"]), Scan),
                    (TypeGuardNode(_BOTH, ["a"]), GuardOp)],
    Projection: [(Projection(_R, ["a"]), ProjectOp)],
    Product: [(Product(_R, _S), ProductOp)],
    Union: [(_BOTH, MergeUnion)],
    OuterUnion: [(OuterUnion(_R, _S), OuterUnionOp)],
    Difference: [(Difference(_R, _S), DifferenceOp)],
    Extension: [(Extension(_R, "tag", 1), ExtendOp)],
    Rename: [(Rename(_R, {"a": "b"}), RenameOp)],
    NaturalJoin: [(NaturalJoin(_R, _S, on=["a"]), HashJoin),
                  (NaturalJoin(_R, _S), NaturalJoinOp)],
    MultiwayJoin: [(MultiwayJoin([_R, _S], on=["a"]), MultiwayJoinOp)],
    Aggregate: [(Aggregate(_R, group_by=("a",), specs=("count",)), HashAggregateOp)],
    Sort: [(Sort(_R, ["a"]), SortOp)],
    Limit: [(Limit(Sort(_R, ["a"]), 0), TopKOp),
            (Limit(Sort(_R, ["a"]), 5), SortOp)],
    SubqueryExtension: [(SubqueryExtension(_R, "n", Limit(Projection(_S, ["a"]), 1)),
                         SubqueryExtendOp)],
}


def _algebra_nodes():
    """Every concrete node class of :mod:`repro.algebra.expressions`."""
    found, pending = [], [Expression]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__ == Expression.__module__:
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class TestLowering:
    @pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
    def test_node_lowers_to_one_physical_class(self, node):
        assert node in LOWERINGS, "no lowering pinned for {}".format(node.__name__)
        for expression, physical in LOWERINGS[node]:
            root = PhysicalPlanner().plan(expression).root
            assert type(root) is physical, root.explain()

    def test_selection_and_guard_collapse_into_scan(self, database):
        expression = TypeGuardNode(
            Selection(RelationRef("employees"), Comparison("jobtype", "=", "secretary")),
            ["typing_speed"],
        )
        plan = PhysicalPlanner(source=database).plan(expression)
        assert isinstance(plan.root, Scan)
        assert plan.root.predicate is not None
        assert plan.root.guard is not None
        assert plan.root.equalities == {"jobtype": "secretary"}

    def test_filter_used_when_pushdown_impossible(self, database):
        expression = Selection(Union(RelationRef("employees"), RelationRef("employees")),
                               Comparison("salary", ">", 100.0))
        plan = PhysicalPlanner(source=database).plan(expression)
        assert isinstance(plan.root, FilterOp)
        assert isinstance(plan.root.child, MergeUnion)

    def test_large_join_lowers_to_hash_join(self, database):
        expression = NaturalJoin(RelationRef("employees"), RelationRef("employees"))
        plan = PhysicalPlanner(source=database).plan(expression)
        assert isinstance(plan.root, NaturalJoinOp)
        keyed = NaturalJoin(RelationRef("employees"), RelationRef("employees"),
                            on=["emp_id"])
        assert isinstance(PhysicalPlanner(source=database).plan(keyed).root, HashJoin)

    def test_small_join_lowers_to_nested_loop(self, database):
        tiny = database.create_table("tiny", FlexibleScheme(1, 1, ["emp_id"]),
                                     domains={"emp_id": IntDomain()})
        tiny.insert_many({"emp_id": value} for value in range(5))
        expression = NaturalJoin(RelationRef("tiny"), RelationRef("tiny"))
        plan = PhysicalPlanner(source=database).plan(expression)
        assert isinstance(plan.root, NestedLoopJoin)

    def test_join_threshold_is_configurable(self, database):
        expression = NaturalJoin(RelationRef("employees"), RelationRef("employees"))
        planner = PhysicalPlanner(source=database, hash_join_pair_threshold=10 ** 9)
        assert isinstance(planner.plan(expression).root, NestedLoopJoin)

    def test_unknown_cardinalities_default_to_hash_join(self):
        plan = PhysicalPlanner().plan(NaturalJoin(RelationRef("a"), RelationRef("b")))
        assert isinstance(plan.root, NaturalJoinOp)
        plan = PhysicalPlanner().plan(
            NaturalJoin(RelationRef("a"), RelationRef("b"), on=["k"]))
        assert isinstance(plan.root, HashJoin)

    def test_explain_renders_tree(self, database):
        expression = Projection(
            Selection(RelationRef("employees"), Comparison("salary", ">", 100.0)),
            ["name"],
        )
        rendered = database.plan(expression, optimize=False).explain()
        assert "project" in rendered and "scan[employees" in rendered

    def test_empty_relation(self, database):
        result = database.execute(EmptyRelation())
        assert len(result) == 0


class TestMaterializingJoins:
    """Both materializing joins read batch streams (plain and lazy) and feed
    operators that pivot their list output back into columns."""

    @pytest.fixture
    def source(self):
        return {
            "people": {FlexTuple(id=i, team=i % 4, **({"grade": i % 3} if i % 2 else {}))
                       for i in range(40)},
            "teams": {FlexTuple(team=t, floor=t // 2) for t in range(4)},
            "floors": {FlexTuple(floor=f, wing="w{}".format(f)) for f in range(3)},
        }

    def plan(self):
        nested = NestedLoopJoin(                       # reads a TupleBatch and a LazyBatch
            Scan("teams"), ProjectOp(Scan("floors"), ["floor", "wing"]), on=["floor"])
        natural = NaturalJoinOp(                       # reads a LazyBatch and lists
            ExtendOp(Scan("people"), "source", "hr"),
            FilterOp(nested, Comparison("floor", "<", 2)))
        return PhysicalPlan(ProjectOp(natural, ["id", "grade", "wing", "source"]))

    def expression(self):
        people, teams, floors = (RelationRef(name) for name in ("people", "teams", "floors"))
        nested = NaturalJoin(teams, Projection(floors, ["floor", "wing"]), on=["floor"])
        natural = NaturalJoin(Extension(people, "source", "hr"),
                              Selection(nested, Comparison("floor", "<", 2)))
        return Projection(natural, ["id", "grade", "wing", "source"])

    def test_agrees_with_the_naive_evaluator(self, source):
        expected = Evaluator(source).evaluate(self.expression()).tuples
        assert len(expected) == 40
        for batch_size in (1, 7, 1024):
            result = self.plan().execute(source, batch_size=batch_size)
            assert result.tuples == expected
        rows_in = {row["operator"]: row["rows_in"] for row in result.operator_report()}
        assert rows_in["nested-loop-join[on={floor}]"] == 4 + 3
        assert rows_in["hash-join[on=shared]"] == 40 + 4

    def test_output_pivots_back_to_columns(self, source):
        batches = list(self.plan().root.run(ExecutionContext(source, batch_size=16)))
        assert batches and all(isinstance(batch, LazyBatch) for batch in batches)

    def test_budget_fails_fast_typed_without_debris(self, source, tmp_path):
        expected = Evaluator(source).evaluate(self.expression()).tuples

        def governed(budget):
            governor = QueryGovernor(memory_budget=budget, spill=True,
                                     spill_directory=str(tmp_path))
            try:
                return self.plan().execute(source, governor=governor).tuples
            finally:
                governor.finish()

        assert governed(50_000_000) == expected
        with pytest.raises(MemoryBudgetExceeded) as info:
            governed(2_000)
        assert "join" in info.value.operator
        assert not os.listdir(str(tmp_path))


class TestExecution:
    def test_small_batches_do_not_change_results(self, database):
        expression = Selection(RelationRef("employees"), Comparison("salary", ">", 4000.0))
        plan = PhysicalPlanner(source=database).plan(expression)
        one = plan.execute(database, batch_size=1)
        big = plan.execute(database, batch_size=10_000)
        assert one.tuples == big.tuples

    def test_operator_report_lists_plan_nodes(self, database):
        expression = Projection(
            Selection(RelationRef("employees"), Comparison("salary", ">", 4000.0)),
            ["name", "jobtype"],
        )
        result = PhysicalExecutor(database).execute(expression)
        labels = [row["operator"] for row in result.operator_report()]
        assert any(label.startswith("project") for label in labels)
        assert any(label.startswith("scan") for label in labels)
        rows_out = {row["operator"]: row["rows_out"] for row in result.operator_report()}
        assert rows_out[labels[0]] == len(result)

    def test_stats_compatible_with_evaluator_interface(self, database):
        result = database.execute(RelationRef("employees"))
        stats = result.stats.as_dict()
        assert stats["tuples_scanned"] == 120
        assert stats["tuples_produced"] == 120
        assert stats["total_work"] >= 120

    def test_unknown_executor_rejected(self, database):
        with pytest.raises(CatalogError):
            database.execute(RelationRef("employees"), executor="quantum")


class TestPlanCache:
    def test_repeated_queries_hit_the_cache(self, database):
        executor = database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 4000.0))
        database.execute(query)
        hits_before = executor.cache.hits
        database.execute(query)
        assert executor.cache.hits == hits_before + 1

    def test_schema_change_invalidates_cached_plans(self, database):
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 4000.0))
        database.execute(query)
        version = database.catalog_version
        database.create_table("extra", FlexibleScheme(1, 1, ["x"]),
                              domains={"x": IntDomain()})
        assert database.catalog_version == version + 1
        misses_before = database.physical_executor.cache.misses
        database.execute(query)
        assert database.physical_executor.cache.misses == misses_before + 1

    def test_cache_is_bounded(self, database):
        executor = PhysicalExecutor(database, cache_size=2)
        # five templates (a new literal alone would share one plan)
        for op in ("<", "<=", ">", ">=", "!="):
            executor.execute(Selection(RelationRef("employees"),
                                       Comparison("salary", op, 4000.0)))
        assert len(executor.cache) == 2
        assert len(executor._templates) == 2

    def test_expression_key_distinguishes_structure(self):
        a = Selection(RelationRef("r"), Comparison("x", "=", 1))
        b = Selection(RelationRef("r"), Comparison("x", "=", 2))
        c = Selection(RelationRef("r"), Comparison("x", "=", 1))
        assert expression_key(a) != expression_key(b)
        assert expression_key(a) == expression_key(c)


class TestIndexScan:
    def test_point_query_uses_key_index(self, database):
        result = database.execute(
            Selection(RelationRef("employees"), Comparison("emp_id", "=", 42)))
        assert len(result) == 1
        assert result.stats.tuples_scanned == 1

    def test_index_respects_extra_conjuncts(self, database):
        query = Selection(RelationRef("employees"),
                          Comparison("emp_id", "=", 42) & Comparison("salary", "<", 0.0))
        assert len(database.execute(query)) == 0

    def test_unhashable_equality_value_falls_back_to_full_scan(self, database):
        # A list constant can never hash into an index bucket; the scan must fall
        # back instead of crashing, and agree with the naive evaluator (empty).
        query = Selection(RelationRef("employees"), Comparison("emp_id", "=", [1, 2]))
        physical = database.execute(query, executor="physical")
        naive = database.execute(query, executor="naive")
        assert physical.tuples == naive.tuples == set()

    def test_dml_after_caching_is_visible(self, database):
        query = Selection(RelationRef("employees"), Comparison("emp_id", "=", 5000))
        assert len(database.execute(query)) == 0
        database.insert("employees", {"emp_id": 5000, "name": "avery", "salary": 1.0,
                                      "jobtype": "secretary", "typing_speed": 80,
                                      "foreign_languages": "english"})
        assert len(database.execute(query)) == 1
