"""Unit tests for the physical execution subsystem (:mod:`repro.exec`)."""

import inspect
import os

import pytest

from test_exec_parity import execute_and_audit

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
from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    PresencePredicate,
    TruePredicate,
)
from repro.core.dependencies import AttributeDependency, FunctionalDependency
from repro.engine import Database
from repro.errors import CatalogError, MemoryBudgetExceeded
from repro.exec import (
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    TARGET_BATCH_CELLS,
    CompiledGuard,
    CompiledPredicate,
    DifferenceOp,
    EmptyOp,
    ExecutionContext,
    ExtendOp,
    FilterOp,
    GuardOp,
    HashAggregateOp,
    HashJoin,
    IndexLookupJoin,
    MergeUnion,
    MultiwayJoinOp,
    NaturalJoinOp,
    NestedLoopJoin,
    OuterUnionOp,
    PhysicalExecutor,
    PhysicalOperator,
    PhysicalPlanner,
    ProductOp,
    ProjectOp,
    RenameOp,
    Scan,
    SortOp,
    SubqueryExtendOp,
    TopKOp,
    adaptive_batch_size,
    expression_key,
)
from repro.exec.planner import PhysicalPlan
from repro.governor import QueryGovernor
from repro.model.batches import LazyBatch, TupleBatch
from repro.model.tuples import FlexTuple
from repro.model.domains import IntDomain
from repro.model.scheme import FlexibleScheme
from repro.optimizer.cost import CostModel
from repro.workloads.employees import employee_definition, generate_employees
from repro.workloads.events import skewed_join_database


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
    """Every concrete node class of :mod:`repro.algebra.expressions` (the
    ``_``-prefixed structural bases are not nodes)."""
    found, pending = [], [Expression]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if (cls.__module__ == Expression.__module__
                    and not cls.__name__.startswith("_")):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


#: declared dependencies of ``r`` and ``s``, so the facts below are not empty
_CATALOG = {"r": [AttributeDependency(["a"], ["b"]), FunctionalDependency(["a"], ["c"])],
            "s": [AttributeDependency(["a"], ["d"])]}


def _facts(expression):
    return (expression.known_dependencies(_CATALOG), expression.guaranteed_attributes(),
            expression.established_equalities())


@pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
def test_with_children_round_trip_keeps_class_key_and_facts(node):
    for expression, _ in LOWERINGS[node]:
        rebuilt = expression.with_children(expression.children)
        assert type(rebuilt) is type(expression)
        assert expression_key(rebuilt) == expression_key(expression)
        assert _facts(rebuilt) == _facts(expression)


class TestLowering:
    @pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
    def test_node_lowers_to_one_physical_class(self, node):
        assert node in LOWERINGS, "no lowering pinned for {}".format(node.__name__)
        for expression, physical in LOWERINGS[node]:
            root = PhysicalPlanner().plan(expression).root
            assert type(root) is physical, root.explain()

    @pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
    def test_run_keeps_the_books(self, node):
        """Every lowering completes over ``r``/``s`` and passes the books
        audit of ``PhysicalOperator.run``."""
        source = {"r": {FlexTuple(a=1, c=i) for i in range(5)} | {FlexTuple(c=9)},
                  "s": {FlexTuple(a=1, d=i) for i in range(3)} | {FlexTuple(d=7)}}
        for expression, _ in LOWERINGS[node]:
            plan = PhysicalPlanner().plan(expression)
            result = execute_and_audit(plan, source, batch_size=2)
            assert result.tuples == Evaluator(source).evaluate(expression).tuples

    def test_every_operator_is_a_generator_function(self):
        """An operator's ``_generate`` is its stream: no closure it returns,
        no ``_start`` hook beside it."""
        operators, pending = [], [PhysicalOperator]
        while pending:
            cls = pending.pop()
            operators.append(cls)
            pending.extend(cls.__subclasses__())
        concrete = [cls for cls in operators if not cls.__name__.startswith("_")
                    and cls is not PhysicalOperator]
        assert len(concrete) == 20
        assert [cls.__name__ for cls in concrete
                if not inspect.isgeneratorfunction(cls._generate)] == []
        assert [cls.__name__ for cls in operators if "_start" in vars(cls)] == []

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

    def test_join_threshold_is_configurable(self, database, monkeypatch):
        monkeypatch.setattr("repro.exec.planner.DEFAULT_HASH_JOIN_PAIR_THRESHOLD", 10 ** 9)
        expression = NaturalJoin(RelationRef("employees"), RelationRef("employees"))
        planner = PhysicalPlanner(source=database)
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

    def test_cache_is_bounded(self, database, monkeypatch):
        monkeypatch.setattr("repro.exec.executor.PLAN_CACHE_SIZE", 2)
        executor = PhysicalExecutor(database)
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


# -- compiled predicates, operators in isolation, batch sizing --------------------------------


def _tuples(*dicts):
    return [FlexTuple(d) for d in dicts]


VARIANTS = _tuples(
    {"id": 1, "kind": "a", "x": 10},
    {"id": 2, "kind": "b"},
    {"id": 3, "kind": "a", "x": 30, "y": "hi"},
    {"id": 4, "y": "lo"},
)


class TestCompiledPredicates:
    def batch(self):
        return TupleBatch(list(VARIANTS))

    def select(self, predicate):
        return CompiledPredicate(predicate).select(self.batch())

    def test_comparison_missing_is_false(self):
        assert self.select(Comparison("x", ">", 5)) == [0, 2]
        assert self.select(Comparison("x", ">", 20)) == [2]

    def test_mixed_type_column_typeerror_is_false(self):
        rows = _tuples({"id": 1, "v": 5}, {"id": 2, "v": "five"}, {"id": 3, "v": 7})
        compiled = CompiledPredicate(Comparison("v", ">=", 6))
        assert compiled.select(TupleBatch(rows)) == [2]

    def test_constant_folding(self):
        assert self.select(TruePredicate()) == [0, 1, 2, 3]
        assert self.select(FalsePredicate()) == []
        assert self.select(And(Comparison("x", ">", 5), FalsePredicate())) == []
        assert CompiledPredicate(TruePredicate())._passes == []

    def test_conjunction_narrows_sequentially(self):
        predicate = And(Comparison("kind", "=", "a"), Comparison("x", ">=", 30))
        assert self.select(predicate) == [2]

    def test_or_not_and_presence(self):
        assert self.select(Or(Comparison("kind", "=", "b"),
                              PresencePredicate(["y"]))) == [1, 2, 3]
        assert self.select(Not(Comparison("kind", "=", "a"))) == [1, 3]
        assert self.select(PresencePredicate(["kind", "x"])) == [0, 2]

    def test_in_and_attribute_comparison(self):
        assert self.select(Comparison("id", "in", [2, 4])) == [1, 3]
        rows = _tuples({"a": 1, "b": 2}, {"a": 3, "b": 3}, {"a": 5})
        compiled = CompiledPredicate(AttributeComparison("a", "=", "b"))
        assert compiled.select(TupleBatch(rows)) == [1]

    def test_unknown_predicate_subclass_falls_back_to_evaluate(self):
        class OddId(Predicate):
            def evaluate(self, tup):
                return tup.get("id", 0) % 2 == 1

            @property
            def attributes(self):
                from repro.model.attributes import AttributeSet
                return AttributeSet()

        assert self.select(OddId()) == [0, 2]

    def test_matches_interpreted_evaluation(self):
        predicates = [
            Comparison("x", "<=", 10), Comparison("kind", "!=", "a"),
            Or(Comparison("x", "=", 30), Not(PresencePredicate(["kind"]))),
            And(PresencePredicate(["kind"]), Comparison("id", "<", 4)),
        ]
        batch = self.batch()
        for predicate in predicates:
            expected = [i for i, tup in enumerate(VARIANTS) if predicate.evaluate(tup)]
            assert CompiledPredicate(predicate).select(batch) == expected

    def test_compiled_guard(self):
        batch = self.batch()
        assert CompiledGuard(["kind"]).select(batch) == [0, 1, 2]
        assert CompiledGuard(["kind", "y"]).select(batch) == [2]
        assert CompiledGuard(["kind"]).select(batch, [1, 3]) == [1]


@pytest.fixture
def source():
    employees = {FlexTuple(row) for row in generate_employees(90, seed=3)}
    assignments = {FlexTuple({"emp_id": i, "project": "p{}".format(i % 4)})
                   for i in range(1, 70)}
    return {"employees": employees, "assignments": assignments}


def _run(root, source, batch_size=64, use_indexes=True):
    return PhysicalPlan(root).execute(source, batch_size=batch_size,
                                      use_indexes=use_indexes)


class TestBatchOperators:
    def test_all_guard_filtered_batches_yield_nothing(self, source):
        result = _run(Scan("assignments", guard=["typing_speed"]), source)
        assert result.tuples == set()

    def test_variant_records_missing_join_attribute_are_partitioned_out(self, source):
        # typing_speed exists only on secretaries; everyone else must be skipped
        # as a guard check, not a join pair.
        root = HashJoin(Scan("employees"), Scan("employees"),
                             on=["emp_id", "typing_speed"])
        result = _run(root, source)
        naive = Evaluator(source).evaluate(
            NaturalJoin(RelationRef("employees"), RelationRef("employees"),
                        on=["emp_id", "typing_speed"]))
        assert result.tuples == naive.tuples
        assert result.stats.guard_checks == 180  # both sides fully checked

    def test_batch_hash_join_needs_static_attributes(self):
        with pytest.raises(Exception):
            HashJoin(Scan("a"), Scan("b"), on=None)

    def test_batch_project_deduplicates_and_drops_empty(self, source):
        result = _run(ProjectOp(Scan("employees"), ["jobtype"]), source)
        naive = Evaluator(source).evaluate(Projection(RelationRef("employees"),
                                                      ["jobtype"]))
        assert result.tuples == naive.tuples

    def test_batch_size_one(self, source):
        root = FilterOp(Scan("employees"), Comparison("jobtype", "=", "salesman"))
        small = _run(root, source, batch_size=1)
        big = _run(root, source, batch_size=4096)
        assert small.tuples == big.tuples

    def test_index_lookup_join_with_and_without_index(self):
        database = skewed_join_database(big=300, small=60, rare_every=30)
        root = IndexLookupJoin(
            Scan("events", predicate=Comparison("kind", "=", "audit")),
            "sessions", on=["event_id"])
        with_index = _run(root, database, use_indexes=True)
        degraded = _run(root, database, use_indexes=False)
        naive = Evaluator(database).evaluate(
            NaturalJoin(Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
                        RelationRef("sessions"), on=["event_id"]))
        assert with_index.tuples == degraded.tuples == naive.tuples
        # The maintained index never scans the inner relation.
        assert with_index.stats.tuples_scanned < degraded.stats.tuples_scanned


class TestModeExposure:
    def test_scan_pushdown_preserves_batch_class(self, source):
        plan = PhysicalPlanner(source=source).plan(
            TypeGuardNode(Selection(RelationRef("employees"),
                                    Comparison("jobtype", "=", "secretary")),
                          ["typing_speed"]))
        assert isinstance(plan.root, Scan)
        assert plan.root.predicate is not None and plan.root.guard is not None


class TestPlanCacheCounters:
    def test_hit_miss_properties_and_info(self, employee_database):
        # Fresh statistics keep the estimates accurate, so no cardinality
        # feedback is recorded and the cache key stays stable across runs.
        employee_database.analyze()
        executor = employee_database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 1.0))
        base_misses = executor.cache_misses
        employee_database.execute(query)
        employee_database.execute(query)
        assert executor.cache_misses == base_misses + 1
        assert executor.cache_hits >= 1
        info = executor.cache_info()
        assert info["hits"] == executor.cache_hits
        assert info["misses"] == executor.cache_misses
        assert info["size"] >= 1 and info["max_size"] >= info["size"]


class TestAdaptiveBatchSizing:
    def test_heuristic_bounds(self):
        assert adaptive_batch_size(8.0) == TARGET_BATCH_CELLS // 8
        assert adaptive_batch_size(1.0) == MAX_BATCH_SIZE
        assert adaptive_batch_size(1000.0) == MIN_BATCH_SIZE

    def test_tiny_inputs_get_one_batch(self):
        # 300 rows would be split by the width-derived size of a wide tuple;
        # the heuristic widens to a single batch instead.
        assert adaptive_batch_size(64.0, base_rows=300) == 300
        assert adaptive_batch_size(64.0, base_rows=100_000) == TARGET_BATCH_CELLS // 64

    def test_width_estimate_prefers_statistics(self):
        database = skewed_join_database(big=400, small=40)
        model = CostModel(database)
        declared = model.estimate_width(RelationRef("events"))
        assert declared == 4.0  # the scheme universe
        database.analyze()
        observed = CostModel(database).estimate_width(RelationRef("events"))
        assert observed == pytest.approx(3.0)  # every variant carries 3 attrs

    def test_plan_carries_adaptive_size_and_override(self, source):
        expression = Selection(RelationRef("employees"),
                               Comparison("salary", ">", 0.0))
        plan = PhysicalPlanner(source=source).plan(expression)
        assert plan.batch_size is not None
        assert MIN_BATCH_SIZE <= plan.batch_size <= MAX_BATCH_SIZE
        pinned = PhysicalPlanner(source=source).plan(expression, batch_size=7)
        assert pinned.batch_size == 7

    def test_database_batch_size_passthrough(self, employee_database):
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 0.0))
        plan = employee_database.plan(query, batch_size=5)
        assert plan.batch_size == 5
        result = employee_database.execute(query, batch_size=5)
        adaptive = employee_database.execute(query)
        assert result.tuples == adaptive.tuples
        assert "batch_size=" in employee_database.explain(query)

    def test_plan_cache_keyed_on_batch_size(self, employee_database):
        """A plan built (and sized) for one batch size must not be reused for
        another — the PR 3 cache reused it regardless of the request."""
        employee_database.analyze()  # accurate estimates → no feedback re-plan
        executor = employee_database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 3.0))
        employee_database.execute(query)
        misses = executor.cache_misses
        employee_database.execute(query, batch_size=32)
        assert executor.cache_misses == misses + 1
        assert employee_database.plan(query, batch_size=32).batch_size == 32
        hits = executor.cache_hits
        employee_database.execute(query, batch_size=32)
        employee_database.execute(query)
        assert executor.cache_hits == hits + 2
