"""Unit tests for the physical execution subsystem (:mod:`repro.exec`)."""

import inspect
import os
import subprocess
import sys

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
from repro.algebra.analytic import AggregateSpec, SortKey
from repro.algebra.evaluator import EVALUATORS
from repro.algebra.expressions import Expression, dispatch
from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    FalsePredicate,
    Not,
    Or,
    Parameter,
    Predicate,
    PresencePredicate,
    TruePredicate,
)
from repro.core.dependencies import AttributeDependency, FunctionalDependency
from repro.engine import Database
from repro.engine.catalog import Catalog, TableDefinition
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
    adaptive_batch_size,
    expression_key,
)
from repro.exec.planner import LOWERINGS as PLANNER_LOWERINGS, PhysicalPlan
from repro.governor import QueryGovernor
from repro.model.batches import LazyBatch, TupleBatch
from repro.model.tuples import FlexTuple
from repro.model.domains import IntDomain
from repro.model.scheme import FlexibleScheme
from repro.model.attributes import AttributeSet
from repro.optimizer.cost import ESTIMATORS, WIDTHS, CostModel
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
                  (NaturalJoin(_R, _S), HashJoin)],
    MultiwayJoin: [(MultiwayJoin([_R, _S], on=["a"]), HashJoin)],
    Aggregate: [(Aggregate(_R, group_by=("a",), specs=("count",)), HashAggregateOp)],
    Sort: [(Sort(_R, ["a"]), SortOp)],
    Limit: [(Limit(Sort(_R, ["a"]), 0), SortOp),
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


#: declared dependencies and keys of ``r`` and ``s``, so the facts below are
#: not empty
_CATALOG = Catalog()
_CATALOG.register(TableDefinition(
    "r", FlexibleScheme.relational(["a", "b", "c"]), key=["a"],
    dependencies=[AttributeDependency(["a"], ["b"]), FunctionalDependency(["a"], ["c"])]))
_CATALOG.register(TableDefinition(
    "s", FlexibleScheme.relational(["a", "d"]), key=["d"],
    dependencies=[AttributeDependency(["a"], ["d"])]))


def _facts(expression):
    return (expression.known_dependencies(_CATALOG), expression.guaranteed_attributes(),
            expression.established_equalities(), expression.unique_keys(_CATALOG))


@pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
def test_with_children_round_trip_keeps_class_key_and_facts(node):
    for expression, _ in LOWERINGS[node]:
        rebuilt = expression.with_children(expression.children)
        assert type(rebuilt) is type(expression)
        assert expression_key(rebuilt) == expression_key(expression)
        assert _facts(rebuilt) == _facts(expression)


#: constructor arguments that take a child expression: the key holds their keys
_CHILD_ARGUMENTS = {"child", "left", "right", "inputs", "subquery"}


def _other(value):
    """A different constructor argument of the same kind as ``value``."""
    if value is None:
        return ["zz"]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "z"
    if isinstance(value, AttributeSet):
        return sorted(value.names) + ["zz"]
    if isinstance(value, dict):
        return dict(value, zz="yy")
    if isinstance(value, Predicate):
        return Comparison("zz", "=", 0)
    if isinstance(value, tuple):  # group-by names, aggregate specs, sort keys
        extra = {str: "zz", AggregateSpec: AggregateSpec("max", "zz", "top"),
                 SortKey: SortKey("zz")}[type(value[0])]
        return value + (extra,)
    raise AssertionError("no other value of {!r}".format(value))


def _constructor_arguments(expression):
    """``{name: value}`` of the arguments that rebuild ``expression``."""
    parameters = inspect.signature(type(expression).__init__).parameters.values()
    return {parameter.name: getattr(expression, parameter.name)
            for parameter in list(parameters)[1:]
            if parameter.kind is parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
def test_key_sees_the_whole_payload(node):
    """Changing any one non-child constructor argument changes the node's
    ``expression_key``: no two nodes that compute different things share a
    template key, and with it a cached plan."""
    for expression, _ in LOWERINGS[node]:
        arguments = _constructor_arguments(expression)
        assert expression_key(node(**arguments)) == expression_key(expression)
        for name in set(arguments) - _CHILD_ARGUMENTS:
            changed = node(**dict(arguments, **{name: _other(arguments[name])}))
            assert expression_key(changed) != expression_key(expression), (
                "{}'s key ignores its {!r}".format(node.__name__, name))


@pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
def test_every_walker_has_an_entry_for_the_node(node):
    """A node class is an entry of the evaluator's, the cost model's
    (estimate and width) and the planner's class table, and states its own
    structural key — the base class has none to inherit."""
    for table in (EVALUATORS, ESTIMATORS, WIDTHS, PLANNER_LOWERINGS):
        assert node in table, node.__name__
    assert node.structural_key is not Expression.structural_key, node.__name__


def test_dispatch_resolves_a_subclass_as_isinstance_did():
    class Tagged(OuterUnion):
        pass

    assert dispatch(PLANNER_LOWERINGS, Tagged(_R, _S)) is PLANNER_LOWERINGS[OuterUnion]
    assert dispatch(PLANNER_LOWERINGS, OuterUnion(_R, _S)) is not PLANNER_LOWERINGS[Union]
    assert dispatch({}, _R) is None


#: the node classes that inherit their ``keys_from`` rule, and why it is theirs
INHERITED_KEY_RULES = {
    EmptyRelation: "no keys claimed, as no dependencies are",
    Selection: "a subset of the child's tuples",
    TypeGuardNode: "a subset of the child's tuples",
    Sort: "the child's tuples, ordered",
    Limit: "a subset of the child's tuples",
    Extension: "each child tuple grows by the same constant attribute",
    SubqueryExtension: "each child tuple grows by the same scalar, or stays",
    OuterUnion: "a union: a key value may recur across the branches",
}


@pytest.mark.parametrize("node", _algebra_nodes(), ids=lambda cls: cls.__name__)
def test_every_node_states_its_key_rule(node):
    """A node defines ``keys_from`` or is listed as inheriting it — never
    both, and no new node silently passes its child's keys through; the
    recursion is ``Expression.unique_keys`` alone."""
    assert ("keys_from" in vars(node)) != (node in INHERITED_KEY_RULES), node
    assert "unique_keys" not in vars(node), node


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
        assert len(concrete) == 16
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
        assert isinstance(plan.root, HashJoin)
        assert plan.root.label() == "hash-join[on=shared]"
        keyed = NaturalJoin(RelationRef("employees"), RelationRef("employees"),
                            on=["emp_id"])
        assert isinstance(PhysicalPlanner(source=database).plan(keyed).root, HashJoin)

    def test_unknown_cardinalities_default_to_hash_join(self):
        plan = PhysicalPlanner().plan(NaturalJoin(RelationRef("a"), RelationRef("b")))
        assert isinstance(plan.root, HashJoin)
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


def _keys(expression, catalog=_CATALOG):
    return {key.names for key in expression.unique_keys(catalog)}


class TestUniqueKeys:
    """The key rules of the algebra nodes, and what the planner makes of them."""

    def test_declared_key_and_projection(self):
        assert _keys(_R) == {("a",)}
        assert _keys(Projection(_R, ["a", "b"])) == {("a",)}
        assert _keys(Projection(_R, ["b", "c"])) == set()
        assert _keys(_R, catalog=None) == set()
        assert _keys(RelationRef("unknown")) == set()

    def test_rename_drops_a_key_it_could_collapse(self):
        assert _keys(Rename(_R, {"b": "x"})) == {("a",)}
        assert _keys(Rename(_R, {"a": "b", "b": "y"})) == {("b",)}
        # a tuple may carry b (or x), and the target then keeps one of the
        # two values — not necessarily the key's
        assert _keys(Rename(_R, {"a": "b"})) == set()
        assert _keys(Rename(_R, {"a": "x"})) == set()
        assert _keys(Rename(_R, {"c": "a"})) == set()

    def test_joins_pair_keys_or_keep_one_side(self):
        assert _keys(Product(_R, _S)) == {("a", "d")}
        assert _keys(NaturalJoin(_R, _S)) == {("a", "d")}
        # r's key lies in ``on``: each s tuple meets at most one r tuple
        assert _keys(NaturalJoin(_R, _S, on=["a"])) == {("d",)}
        assert _keys(NaturalJoin(_R, _S, on=["a", "d"])) == {("a",), ("d",)}
        assert _keys(MultiwayJoin([_R, _S], on=["d"])) == {("a",)}
        assert _keys(MultiwayJoin([_R, _S], on=["a"])) == set()

    def test_union_none_difference_left_aggregate_without_bottom_group(self):
        assert _keys(_BOTH) == set()
        assert _keys(Difference(_R, _S)) == {("a",)}
        assert _keys(Aggregate(_R, group_by=("b",), specs=("count",))) == set()
        assert _keys(Aggregate(TypeGuardNode(_R, ["b"]), group_by=("b",),
                               specs=("count",))) == {("b",)}
        assert _keys(Aggregate(_R, specs=("count",))) == {()}

    def test_keyed_operators_skip_the_seen_set(self, database, monkeypatch):
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: 8)
        keyed = Projection(RelationRef("employees"), ["emp_id", "name"])
        unkeyed = Projection(RelationRef("employees"), ["name"])
        assert "distinct-by={emp_id}" in database.plan(keyed, optimize=False).explain()
        assert "distinct-by" not in database.plan(unkeyed, optimize=False).explain()
        # the seen set is the projection's held state, and only the unkeyed one
        # has it — reported once it outgrows a batch
        for expression, held in ((keyed, False), (unkeyed, True)):
            report = database.explain_analyze(expression, optimize=False)
            assert bool(report.result.operator_report()[0]["peak_bytes"]) is held
            assert ("mem=" in str(report).splitlines()[1]) is held
            assert report.tuples == Evaluator(database).evaluate(expression).tuples
        assert "distinct-by={emp_id}" in str(database.explain_analyze(keyed))


class TestMaterializingJoins:
    """The hash join on static and on data-dependent attributes reads batch
    streams (plain and lazy) and feeds operators that pivot its output back
    into columns."""

    @pytest.fixture
    def source(self):
        return {
            "people": {FlexTuple(id=i, team=i % 4, **({"grade": i % 3} if i % 2 else {}))
                       for i in range(40)},
            "teams": {FlexTuple(team=t, floor=t // 2) for t in range(4)},
            "floors": {FlexTuple(floor=f, wing="w{}".format(f)) for f in range(3)},
        }

    def plan(self, batch_size=None):
        nested = HashJoin(                             # reads a TupleBatch and a LazyBatch
            Scan("teams"), ProjectOp(Scan("floors"), ["floor", "wing"]), on=["floor"])
        natural = HashJoin(                            # reads a LazyBatch and lists
            ExtendOp(Scan("people"), "source", "hr"),
            FilterOp(nested, Comparison("floor", "<", 2)))
        return PhysicalPlan(ProjectOp(natural, ["id", "grade", "wing", "source"]),
                            batch_size=batch_size)

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
            result = self.plan(batch_size).execute(source)
            assert result.tuples == expected
        rows_in = {row["operator"]: row["rows_in"] for row in result.operator_report()}
        assert rows_in["hash-join[on={floor}]"] == 4 + 3
        assert rows_in["hash-join[on=shared]"] == 40 + 4

    @pytest.mark.parametrize("on", [[], None], ids=["empty-on", "nothing-shared"])
    def test_join_on_no_attribute_is_the_product(self, source, on):
        """Every row keys the one ``()`` bucket: the join is the product."""
        people = Projection(RelationRef("people"), ["id", "grade"])
        expression = NaturalJoin(people, RelationRef("floors"), on=on)
        expected = Evaluator(source).evaluate(Product(people, RelationRef("floors")))
        assert len(expected.tuples) == 40 * 3
        root = HashJoin(ProjectOp(Scan("people"), ["id", "grade"]), Scan("floors"), on=on)
        for batch_size in (1, 7, 1024):
            result = PhysicalPlan(root, batch_size=batch_size).execute(source)
            assert result.tuples == expected.tuples
            assert result.stats.join_pairs_considered == 40 * 3
        assert PhysicalPlanner().plan(expression).execute(source).tuples == expected.tuples

    def test_empty_on_spills_like_any_static_join(self, source, tmp_path):
        root = HashJoin(Scan("floors"), ProjectOp(Scan("people"), ["id", "grade"]), on=[])
        expected = PhysicalPlan(root).execute(source).tuples
        governor = QueryGovernor(memory_budget=1_000, spill=True,
                                 spill_directory=str(tmp_path))
        try:
            result = PhysicalPlan(root).execute(source, governor=governor)
            assert governor.spilled
        finally:
            governor.finish()
        assert result.tuples == expected and len(expected) == 3 * 40

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
        one = execute_and_audit(plan, database, 1)
        big = execute_and_audit(plan, database, 10_000)
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


#: 50 shuffled orders, amounts 7 (the first priced row), 7.0 (the last) and
#: larger; prints whether a physical scan reads them in insertion order and
#: the ``repr`` of their ``min(amount)``
SCAN_ORDER_SCRIPT = """
import random
from repro.algebra import Aggregate, RelationRef
from repro.engine import Database
from repro.exec import ExecutionContext, PhysicalExecutor
from repro.workloads.analytics import generate_orders, orders_domains, orders_scheme

rows = list(generate_orders(50, seed=4))
random.Random(3).shuffle(rows)
priced = [row for row in rows if "amount" in row]
for number, row in enumerate(priced):
    row["amount"] = 100 + number
priced[0]["amount"], priced[-1]["amount"] = 7, 7.0
database = Database()
database.create_table("orders", orders_scheme(), domains=orders_domains(),
                      key=["order_id"]).insert_many(rows)
plan = PhysicalExecutor(database).plan(RelationRef("orders"))
scanned = [tup["order_id"] for batch in plan.root.run(ExecutionContext(database))
           for tup in batch]
(low,) = database.execute(Aggregate(RelationRef("orders"), specs=(("min", "amount"),)))
print(scanned == [row["order_id"] for row in rows], repr(low["min_amount"]))
"""

#: 40 orders in one region bucket of a secondary index, the order-equal 7
#: and 7.0 the first two amounts: the probe must read the bucket in insertion
#: order, and ``min`` keep the 7 (a set bucket read it in hash order: 7.0
#: under PYTHONHASHSEED 1 and 3)
PROBE_ORDER_SCRIPT = """
from repro.algebra import Aggregate, Comparison, RelationRef, Selection
from repro.engine import Database
from repro.exec import ExecutionContext, PhysicalExecutor
from repro.workloads.analytics import generate_orders, orders_domains, orders_scheme

rows = list(generate_orders(40, seed=4))
priced = [row for row in rows if "amount" in row]
for row in rows:
    row["region"] = "r1"
for number, row in enumerate(priced):
    row["amount"] = 100 + number
priced[0]["amount"], priced[1]["amount"] = 7, 7.0
database = Database()
database.create_table("t", orders_scheme(), domains=orders_domains(), key=["order_id"],
                      indexes=[["region"]]).insert_many(rows)
selected = Selection(RelationRef("t"), Comparison("region", "=", "r1"))
plan = PhysicalExecutor(database).plan(selected)
assert plan.root.label() == "scan[t, σ[region = ?0]]", plan.root.label()
probed = [tup["order_id"] for batch in plan.root.run(ExecutionContext(database, params=plan.params))
          for tup in batch]
(low,) = database.execute(Aggregate(selected, specs=(("min", "amount"),)))
print(probed == [row["order_id"] for row in rows], repr(low["min_amount"]))
"""


def _run_under_seeds(script, seeds):
    """``script``'s printed words, once per ``PYTHONHASHSEED`` in ``seeds``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    printed = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout.split())
    return printed


class TestScanOrder:
    def test_a_scan_reads_the_table_in_insertion_order_under_any_hash_seed(self):
        # min keeps the first of the order-equal 7 and 7.0: the one inserted first
        assert _run_under_seeds(SCAN_ORDER_SCRIPT, ("0", "1")) == [["True", "7"]] * 2

    def test_an_index_probe_reads_its_bucket_in_insertion_order_under_any_hash_seed(self):
        assert _run_under_seeds(PROBE_ORDER_SCRIPT, ("0", "3")) == [["True", "7"]] * 2


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


def _run(root, source, batch_size=64):
    return PhysicalPlan(root, batch_size=batch_size).execute(source)


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
            Scan("sessions"), on=["event_id"])
        with_index = _run(root, database)
        # a plain mapping of the same relations has no indexes
        degraded = _run(root, {name: database.relation(name) for name in database.tables()})
        naive = Evaluator(database).evaluate(
            NaturalJoin(Selection(RelationRef("events"), Comparison("kind", "=", "audit")),
                        RelationRef("sessions"), on=["event_id"]))
        assert with_index.tuples == degraded.tuples == naive.tuples
        # The maintained index never scans the inner relation.
        assert with_index.stats.tuples_scanned < degraded.stats.tuples_scanned


def _parts_database():
    """``parts`` (key pid, an index on the variant attribute code) and
    ``uses`` referencing them: rows on both sides lack code or grade, a use
    may name a part that does not exist or a code that differs from its
    part's."""
    database = Database()
    parts = database.create_table(
        "parts",
        FlexibleScheme(4, 4, ["pid", "kind", FlexibleScheme(0, 1, ["code"]),
                              FlexibleScheme(0, 1, ["grade"])]),
        key=["pid"], indexes=[["code"]])
    for pid in range(1, 41):
        row = {"pid": pid, "kind": ("bolt", "nut", "gear")[pid % 3]}
        if pid % 4:
            row["code"] = pid % 7
        if pid % 5 == 0:
            row["grade"] = pid % 2
        parts.insert(row)
    uses = database.create_table(
        "uses", FlexibleScheme(2, 3, ["use_id", "pid", FlexibleScheme(0, 1, ["code"])]),
        key=["use_id"])
    for use_id in range(1, 31):
        row = {"use_id": use_id, "pid": (use_id * 7) % 45 + 1}
        if use_id % 3:
            row["code"] = row["pid"] % 7 if use_id % 4 else 3
        uses.insert(row)
    return database


class TestFilteredIndexLookupJoin:
    """The index lookup join through a selected or guarded inner relation
    agrees with the hash join over the same inner scan — result and join
    pairs — and with the naive evaluator, index or no index."""

    KIND = Comparison("kind", "=", Parameter(0))
    BOLT = Comparison("kind", "=", "bolt")
    CASES = {
        # inner scan, logical inner, join attributes (the outer side is uses
        # cut to use_id and them)
        "parameterised predicate": (Scan("parts", predicate=KIND),
                                    Selection(RelationRef("parts"), BOLT), ["pid"]),
        "guard": (Scan("parts", guard=["grade"]),
                  TypeGuardNode(RelationRef("parts"), ["grade"]), ["pid"]),
        "guard and predicate": (Scan("parts", predicate=KIND, guard=["code"]),
                                TypeGuardNode(Selection(RelationRef("parts"), BOLT),
                                              ["code"]), ["pid"]),
        "missing join keys": (Scan("parts", predicate=Not(KIND)),
                              Selection(RelationRef("parts"), Not(BOLT)), ["code"]),
        "index covers part of on": (Scan("parts", predicate=Not(KIND)),
                                    Selection(RelationRef("parts"), Not(BOLT)),
                                    ["pid", "code"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("indexed", [True, False])
    def test_agrees_with_hash_join_and_naive(self, case, indexed):
        inner, logical, on = self.CASES[case]
        database = _parts_database()
        # a plain mapping of the same relations has no indexes: the fallback
        source = database if indexed else {name: database.relation(name)
                                           for name in database.tables()}
        kept = ["use_id"] + on
        params = ("bolt",)

        def run(root):
            return execute_and_audit(PhysicalPlan(root, params=params), source, 4)

        probed_root = IndexLookupJoin(ProjectOp(Scan("uses"), kept), inner, on)
        assert probed_root.label() == "index-lookup-join[{}, on={}]".format(
            inner.label(), probed_root.on)
        probed = run(probed_root)
        hashed = run(HashJoin(ProjectOp(Scan("uses"), kept), inner, on=on))
        naive = Evaluator(database).evaluate(
            NaturalJoin(Projection(RelationRef("uses"), kept), logical, on=on))
        assert probed.tuples == hashed.tuples == naive.tuples
        assert probed.tuples  # something joins ...
        assert probed.stats.join_pairs_considered == hashed.stats.join_pairs_considered
        if indexed:
            # ... and some partners the index hands out fail the filter
            bare = run(IndexLookupJoin(ProjectOp(Scan("uses"), kept), Scan("parts"), on))
            assert len(bare.tuples) > len(probed.tuples)
            assert probed.stats.tuples_scanned == 2 * 30  # uses and its projection
        else:
            assert probed.stats.tuples_scanned == hashed.stats.tuples_scanned

    def test_planner_probes_through_the_selection(self):
        database = _parts_database()
        query = NaturalJoin(
            Selection(RelationRef("uses"), Comparison("use_id", "<", 4)),
            Selection(RelationRef("parts"), Comparison("kind", "!=", "bolt")), on=["pid"])
        database.analyze()
        plan = database.plan(query, optimize=False)
        assert plan.root.label() == \
            "index-lookup-join[scan[parts, σ[kind != ?1]], on={pid}]"
        assert database.execute(query, optimize=False).tuples == \
            Evaluator(database).evaluate(query).tuples


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

    def test_plan_carries_adaptive_size_and_override(self, source, monkeypatch):
        """The plan carries the planner's size; the one override is a test
        patching the planner's heuristic."""
        expression = Selection(RelationRef("employees"),
                               Comparison("salary", ">", 0.0))
        plan = PhysicalPlanner(source=source).plan(expression)
        assert plan.batch_size is not None
        assert MIN_BATCH_SIZE <= plan.batch_size <= MAX_BATCH_SIZE
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: 7)
        assert PhysicalPlanner(source=source).plan(expression).batch_size == 7
        with pytest.raises(TypeError):
            PhysicalPlanner(source=source).plan(expression, batch_size=7)

    def test_database_batch_size_passthrough(self, employee_database, monkeypatch):
        """The planner's size reaches the plan, the execution and both
        EXPLAIN headers."""
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: 5)
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 0.0))
        assert employee_database.plan(query).batch_size == 5
        result = employee_database.execute(query)
        assert result.context.batch_size == 5
        assert result.tuples == Evaluator(employee_database).evaluate(query).tuples
        assert employee_database.explain(query).startswith("batch_size=5 ")
        assert str(employee_database.explain_analyze(query)).startswith("batch_size=5 ")

    def test_cached_plan_keeps_its_batch_size(self, employee_database, monkeypatch):
        """The batch size is not in the plan key: a cached plan serves every
        later call with the size it was planned under."""
        employee_database.analyze()  # accurate estimates → no feedback re-plan
        executor = employee_database.physical_executor
        query = Selection(RelationRef("employees"), Comparison("salary", ">", 3.0))
        planned = employee_database.execute(query).context.batch_size
        misses = executor.cache_misses
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: planned + 1)
        assert employee_database.execute(query).context.batch_size == planned
        assert executor.cache_misses == misses
