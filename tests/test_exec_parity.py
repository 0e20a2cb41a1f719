"""Differential tests: the physical engine must equal the naive evaluator.

The naive set evaluator in :mod:`repro.algebra.evaluator` is the reference
implementation.  For randomized expression trees over the workload generators —
including guard/variant-record edge cases — the physical executor must produce
exactly the same tuple sets (and raise the same error class where the algebra
rejects an operation, e.g. merging disagreeing tuples).

The whole-plan corpus in :class:`TestWholePlanVectorization` covers every
operator shape (unions, difference, extension, rename, products, multiway
joins, variant records missing join attributes, empty inputs) and the
hash join on data-dependent attributes (``on=None``).
"""

import random

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
from repro.algebra.predicates import (
    And,
    Comparison,
    Not,
    Or,
    PresencePredicate,
    TruePredicate,
)
from repro.engine import Database
from repro.errors import ReproError, TupleError
from repro.exec import (
    ExecutionContext,
    HashJoin,
    IndexLookupJoin,
    PhysicalExecutor,
    PhysicalPlanner,
    Scan,
)
from repro.exec.planner import PhysicalPlan, PhysicalResult
from repro.governor import QueryGovernor
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.workloads.employees import VARIANTS_BY_JOBTYPE, generate_employees
from repro.workloads.generators import (
    instance_for_dependency,
    random_explicit_ad,
    random_flexible_scheme,
    random_instance,
)


def _outcome(thunk):
    """Run a query path, capturing the tuple set and the result, or the error class."""
    try:
        result = thunk()
        return ("ok", result.tuples), result
    except ReproError as error:
        return ("error", type(error)), None


def execute_and_audit(plan, source, batch_size):
    """Execute ``plan`` by pulling its root stream, then audit the books
    ``PhysicalOperator.run`` keeps: every operator ran once, no operator
    handed on a batch of more than ``batch_size`` rows, every operator with
    children took in exactly what they emitted, and the root's
    ``rows_out`` / ``batches_out`` are what the stream yielded — and, as every
    stream is distinct, as many rows as the result set holds (collecting the
    result into a set would otherwise hide a duplicate)."""
    ctx = ExecutionContext(source, batch_size=batch_size, params=plan.params)
    tuples, rows, batches = set(), 0, 0
    for batch in plan.root.run(ctx):
        tuples.update(batch)
        rows += len(batch)
        batches += 1
    books = iter(ctx.operator_stats)  # preorder, as run() registers them

    def audit(node):
        op = next(books)
        assert op.label == node.plan_label and op.invocations == 1, op
        assert op.rows_out <= op.batches_out * batch_size, (op, op.batches_out)
        emitted = [audit(child) for child in node.children]
        if emitted:
            assert op.rows_in == sum(emitted), (op, emitted)
        return op.rows_out

    assert audit(plan.root) == rows
    assert rows == len(tuples), "the root emitted {} rows for {} tuples".format(
        rows, len(tuples))
    assert ctx.operator_stats[0].batches_out == batches
    assert next(books, None) is None
    return PhysicalResult(tuples, ctx.stats, ctx)


def assert_parity(expression, source, batch_size=7, strict_error_class=True):
    """Physical execution agrees with the naive evaluator on the result (or on
    the raised error class).

    ``strict_error_class=False`` (used by the fuzz harness) accepts error
    outcomes whose *classes* differ: a random tree can contain several faulty
    operators, and which fault surfaces first depends on evaluation order —
    bottom-up in the naive evaluator, pull-driven in the pipelined engine —
    which is implementation-defined.  Both sides must still reject; an
    ok-vs-error split is always a failure."""
    naive, _ = _outcome(lambda: Evaluator(source).evaluate(expression))
    plan = PhysicalPlanner(source=source).plan(expression)
    physical, _ = _outcome(lambda: execute_and_audit(plan, source, batch_size))
    agrees = physical == naive or (
        not strict_error_class
        and physical[0] == "error" and naive[0] == "error"
    )
    assert agrees, "physical {} != naive {}\nplan:\n{}".format(
        physical[0], naive[0], plan.explain()
    )


def _joinable_tables(rows_a, rows_b):
    """Tables ``a`` (key ``id``) and ``b`` (key ``bid``, an index on ``x``)."""
    database = Database()
    for name, key, rows, indexes in (("a", "id", rows_a, []), ("b", "bid", rows_b, [["x"]])):
        names = sorted({attribute for row in rows for attribute in row})
        scheme = FlexibleScheme(len(names), len(names), names)
        database.create_table(name, scheme, key=[key], indexes=indexes).insert_many(rows)
    return database


def _join_paths(database, on):
    """``(path, run)``: ``a ⋈ b`` on ``on`` by the in-memory hash join, the
    index-lookup join with and without its index, and the hash join spilled
    to grace partitions — each run returns the tuple set."""
    mapping = {name: database.relation(name) for name in database.tables()}

    def run(root, source, governor=None):
        ctx = ExecutionContext(source, batch_size=4, governor=governor)
        return {tup for batch in root.run(ctx) for tup in batch}

    def grace():
        governor = QueryGovernor(memory_budget=300)
        try:
            tuples = run(HashJoin(Scan("a"), Scan("b"), on=on), mapping, governor)
            assert governor.spilled
            return tuples
        finally:
            governor.finish()

    yield "hash join", lambda: run(HashJoin(Scan("a"), Scan("b"), on=on), mapping)
    yield "index lookup", lambda: run(IndexLookupJoin(Scan("a"), Scan("b"), on), database)
    yield "index lookup, no index", lambda: run(
        IndexLookupJoin(Scan("a"), Scan("b"), on), mapping)
    yield "grace", grace


# -- fixed sources -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def employee_source():
    """Employees (variant records!) plus an assignments relation sharing emp_id."""
    employees = {FlexTuple(row) for row in generate_employees(80, seed=42)}
    assignments = {
        FlexTuple({"emp_id": emp_id, "project": "p{}".format(emp_id % 5)})
        for emp_id in range(1, 61)
    }
    return {"employees": employees, "assignments": assignments}


# -- hand-picked guard / variant edge cases ----------------------------------------------


class TestVariantEdgeCases:
    def test_scan_guard_drops_variant_records(self, employee_source):
        for jobtype, attributes in VARIANTS_BY_JOBTYPE.items():
            assert_parity(TypeGuardNode(RelationRef("employees"), attributes),
                          employee_source)

    def test_join_skips_tuples_lacking_join_attributes(self, employee_source):
        # typing_speed exists only on secretaries: the join attribute set is the
        # full attribute intersection, so nothing but secretaries can pair up.
        secretaries = Projection(RelationRef("employees"), ["emp_id", "typing_speed"])
        assert_parity(NaturalJoin(RelationRef("employees"), secretaries), employee_source)

    def test_join_on_narrower_attributes_raises_on_disagreement(self, employee_source):
        # Joining on emp_id only while both sides carry (different) salaries must
        # raise the same error in both engines when a merge disagrees.
        raised = Rename(
            Projection(RelationRef("employees"), ["emp_id", "salary"]),
            {"salary": "pay"},
        )
        doubled = Extension(
            Projection(RelationRef("employees"), ["emp_id"]), "salary", -1.0
        )
        assert_parity(NaturalJoin(doubled, Projection(RelationRef("employees"),
                                                      ["emp_id", "salary"]),
                                  on=["emp_id"]),
                      employee_source)
        assert_parity(NaturalJoin(raised, RelationRef("employees"), on=["emp_id"]),
                      employee_source)

    @pytest.mark.parametrize("agree", [False, True])
    def test_join_on_narrower_attributes_merges_in_every_join(self, agree):
        # the overlap beyond the join attribute: a disagreeing w raises in
        # the index-lookup and the grace join as in the naive join, an
        # agreeing one merges
        rows_a = [{"id": i, "x": i % 4, "w": i % 4} for i in range(12)]
        rows_b = [{"bid": i, "x": i % 4, "w": i % 4 if agree else -1, "z": i}
                  for i in range(1, 8)]
        database = _joinable_tables(rows_a, rows_b)
        naive, _ = _outcome(lambda: Evaluator(database).evaluate(
            NaturalJoin(RelationRef("a"), RelationRef("b"), on=["x"])))
        assert naive[0] == ("ok" if agree else "error")
        for path, run in _join_paths(database, ["x"]):
            try:
                physical = ("ok", run())
            except TupleError:
                physical = ("error", TupleError)
            assert physical == naive, path
        if agree:
            assert len(naive[1]) == 21  # each of the 12 rows meets its 1 or 2 partners

    @pytest.mark.parametrize("on", [["x"], ["v", "x"]])
    def test_a_nan_join_key_joins_nothing(self, on):
        # both sides hold one NaN object: a dict finds it by identity, but
        # NaN == NaN is false, so the naive join pairs none of its rows
        nan = float("nan")
        rows_a = [{"id": i, "x": nan if i % 3 == 0 else i % 5, "v": 1, "y": i}
                  for i in range(15)]
        rows_b = [{"bid": i, "x": nan if i % 2 else i % 5, "v": 1, "z": i}
                  for i in range(8)]
        database = _joinable_tables(rows_a, rows_b)
        naive = Evaluator(database).evaluate(
            NaturalJoin(RelationRef("a"), RelationRef("b"), on=on)).tuples
        assert naive and all(tup["x"] == tup["x"] for tup in naive)
        for path, run in _join_paths(database, on):
            assert run() == naive, path
        # a merge stage keeps the NaN rows of its master, unmerged
        mapping = {name: database.relation(name) for name in database.tables()}
        restoration = MultiwayJoin([RelationRef("a"), RelationRef("b")], on=on)
        kept = Evaluator(mapping).evaluate(restoration).tuples
        assert {tup for tup in kept if tup["x"] != tup["x"]} == {
            tup for tup in mapping["a"] if tup["x"] != tup["x"]}
        assert_parity(restoration, mapping, batch_size=4)

    def test_a_join_hands_its_parent_full_batches(self):
        # 40 probe rows in 10 chunks of 4 meet 9 partners: 3 batches, not 9
        rows_a = [{"id": i, "x": i, "y": i} for i in range(40)]
        rows_b = [{"bid": i, "x": i * 4, "z": i} for i in range(9)]
        database = _joinable_tables(rows_a, rows_b)
        mapping = {name: database.relation(name) for name in database.tables()}
        for keyed in (False, True):
            root = HashJoin(Scan("a"), Scan("b"), on=["x"])
            if keyed:
                root.distinct_by = root.on
            result = execute_and_audit(PhysicalPlan(root), mapping, 4)
            assert len(result.tuples) == 9
            assert result.context.operator_stats[0].batches_out == 3

    def test_multiway_join_preserves_masters_without_partners(self, employee_source):
        fragment = Projection(
            TypeGuardNode(RelationRef("employees"), ["typing_speed"]),
            ["emp_id", "typing_speed"],
        )
        master = Projection(RelationRef("employees"), ["emp_id", "name", "jobtype"])
        assert_parity(MultiwayJoin([master, fragment], on=["emp_id"]), employee_source)

    def test_projection_drops_empty_tuples(self, employee_source):
        assert_parity(Projection(RelationRef("employees"), ["sales_commission"]),
                      employee_source)

    def test_rename_can_collapse_tuples(self, employee_source):
        assert_parity(
            Rename(Projection(RelationRef("employees"), ["jobtype"]),
                   {"jobtype": "kind"}),
            employee_source,
        )

    def test_difference_union_and_empty(self, employee_source):
        secretaries = Selection(RelationRef("employees"),
                                Comparison("jobtype", "=", "secretary"))
        assert_parity(Difference(RelationRef("employees"), secretaries), employee_source)
        assert_parity(Union(secretaries, EmptyRelation()), employee_source)
        assert_parity(OuterUnion(secretaries,
                                 Selection(RelationRef("employees"),
                                           Comparison("jobtype", "=", "salesman"))),
                      employee_source)

    def test_guarded_predicate_on_missing_attribute_is_false(self, employee_source):
        assert_parity(Selection(RelationRef("employees"),
                                Comparison("typing_speed", ">", 0)),
                      employee_source)
        assert_parity(Selection(RelationRef("employees"),
                                Not(PresencePredicate(["typing_speed"]))),
                      employee_source)


class TestWholePlanVectorization:
    """Every operator shape must produce the naive result."""

    def test_union_of_heterogeneous_selections(self, employee_source):
        assert_parity(
            OuterUnion(
                Selection(RelationRef("employees"),
                          Comparison("jobtype", "=", "secretary")),
                Selection(RelationRef("employees"),
                          Comparison("jobtype", "=", "salesman"))),
            employee_source)
        assert_parity(Union(RelationRef("employees"), RelationRef("assignments")),
                      employee_source)

    def test_difference(self, employee_source):
        assert_parity(
            Difference(RelationRef("employees"),
                       Selection(RelationRef("employees"),
                                 Comparison("salary", ">", 4000.0))),
            employee_source)

    def test_extension_and_rename(self, employee_source):
        assert_parity(
            Extension(Rename(Projection(RelationRef("employees"),
                                        ["emp_id", "jobtype"]),
                             {"jobtype": "kind"}),
                      "source", "hr"),
            employee_source)

    def test_extension_collision_raises_in_both_modes(self, employee_source):
        assert_parity(Extension(RelationRef("employees"), "salary", 0.0),
                      employee_source)

    def test_product(self, employee_source):
        assert_parity(
            Product(Projection(RelationRef("employees"), ["emp_id"]),
                    Projection(RelationRef("assignments"), ["project"])),
            employee_source)

    def test_multiway_join_with_variant_fragments(self, employee_source):
        master = Projection(RelationRef("employees"), ["emp_id", "name", "jobtype"])
        fragments = [
            Projection(TypeGuardNode(RelationRef("employees"), [attr]),
                       ["emp_id", attr])
            for attr in ("typing_speed", "sales_commission")
        ]
        assert_parity(MultiwayJoin([master] + fragments, on=["emp_id"]),
                      employee_source)

    def test_join_with_variant_records_missing_join_attribute(self, employee_source):
        # typing_speed exists only on secretaries; everything else is guarded
        # out of the hash build via the presence bitmap.
        assert_parity(
            NaturalJoin(RelationRef("employees"),
                        Projection(RelationRef("employees"),
                                   ["emp_id", "typing_speed"]),
                        on=["emp_id", "typing_speed"]),
            employee_source)

    def test_empty_inputs_stay_batch(self, employee_source):
        assert_parity(Union(Selection(RelationRef("employees"),
                                      Comparison("salary", ">", 4000.0)),
                            EmptyRelation()),
                      employee_source)
        assert_parity(Difference(EmptyRelation(), RelationRef("employees")),
                      employee_source)

    def test_whole_realistic_plan_is_batch(self, employee_source):
        """The paper's restoration shape: outer union over heterogeneous
        variants, an n-way multiway join, a tag extension — one batch plan."""
        master = OuterUnion(
            Selection(RelationRef("employees"),
                      Comparison("jobtype", "=", "secretary")),
            Selection(RelationRef("employees"),
                      Comparison("jobtype", "=", "software engineer")))
        fragment = Projection(RelationRef("employees"), ["emp_id", "salary"])
        query = Extension(
            MultiwayJoin([master, fragment, RelationRef("assignments")],
                         on=["emp_id"]),
            "restored", True)
        assert_parity(query, employee_source)

    def test_data_dependent_join_still_falls_back_to_row(self, employee_source):
        # on=None: the shared attributes depend on the data, so both sides are
        # materialized as tuple sets before the hash join builds and probes.
        query = NaturalJoin(RelationRef("employees"), RelationRef("assignments"))
        root = PhysicalPlanner(source=employee_source).plan(query).root
        assert isinstance(root, HashJoin) and root.on is None
        assert_parity(query, employee_source)

    def test_fan_out_join_cuts_its_output_to_the_batch_size(self):
        # One probe row matches 3 × batch_size build rows: the merges of that
        # one probe batch leave in three batches, none over batch_size.
        source = {"probe": {FlexTuple(k=1, a=0)},
                  "build": {FlexTuple(k=1, b=i) for i in range(12)}}
        join = HashJoin(Scan("probe"), Scan("build"), on=["k"])
        batches = list(join.run(ExecutionContext(source, batch_size=4)))
        assert [len(batch) for batch in batches] == [4, 4, 4]
        assert {tup for batch in batches for tup in batch} == \
            Evaluator(source).evaluate(
                NaturalJoin(RelationRef("probe"), RelationRef("build"), on=["k"])).tuples


class TestAnalyticOperatorParity:
    """Aggregation, sorting, top-k and scalar-subquery extension must agree
    with the naive evaluator."""

    def test_group_by_variant_attribute_routes_bottom_group(self, employee_source):
        # typing_speed exists only on secretaries: everyone else lands in the
        # ⊥ group (output row without the attribute).
        assert_parity(
            Aggregate(RelationRef("employees"), group_by=("typing_speed",),
                      specs=("count", ("min", "salary"))),
            employee_source)

    def test_aggregate_over_heterogeneous_union(self, employee_source):
        assert_parity(
            Aggregate(Union(RelationRef("employees"), RelationRef("assignments")),
                      group_by=("jobtype",),
                      specs=("count", ("count", "salary"), ("sum", "salary"),
                             ("min", "salary"), ("max", "salary"), ("avg", "salary"))),
            employee_source)

    def test_global_aggregate_including_empty_input(self, employee_source):
        assert_parity(Aggregate(RelationRef("employees"),
                                specs=("count", ("avg", "salary"))),
                      employee_source)
        assert_parity(Aggregate(EmptyRelation(),
                                specs=("count", ("max", "salary"))),
                      employee_source)

    def test_sum_over_non_numeric_raises_in_all_engines(self, employee_source):
        assert_parity(Aggregate(RelationRef("employees"),
                                specs=(("sum", "name"),)),
                      employee_source)

    def test_sorted_limit_fuses_and_agrees(self, employee_source):
        assert_parity(Limit(Sort(RelationRef("employees"),
                                 ["-salary", "emp_id"]), 7),
                      employee_source)
        # NULL/absent sort last regardless of direction.
        assert_parity(Limit(Sort(RelationRef("employees"),
                                 ["typing_speed"]), 5),
                      employee_source)

    def test_bare_limit_uses_canonical_order(self, employee_source):
        assert_parity(Limit(RelationRef("employees"), 3),
                      employee_source)
        assert_parity(Limit(RelationRef("employees"), 0),
                      employee_source)

    def test_every_limit_lowers_to_the_bounded_sort(self, employee_source):
        # 80 employees: one form for every k, below n / 8 and beyond it
        def form(count):
            limit = Limit(Sort(RelationRef("employees"), ["emp_id"]), count)
            planner = PhysicalPlanner(source=employee_source)
            return planner.plan(limit).root.label()

        for count in (0, 10, 11, 70, 200):
            assert form(count) == "batch-top-k[emp_id, k={}]".format(count)
        for count in (10, 11, 70):
            assert_parity(Limit(Sort(RelationRef("employees"), ["emp_id"]), count),
                          employee_source)

    def test_standalone_sort_is_set_identity(self, employee_source):
        assert_parity(Sort(RelationRef("employees"), ["salary"]),
                      employee_source)

    def test_scalar_subquery_extension(self, employee_source):
        top = Aggregate(RelationRef("employees"), specs=(("max", "salary"),))
        assert_parity(SubqueryExtension(RelationRef("assignments"), "top_salary", top),
                      employee_source)

    def test_scalar_subquery_arity_errors_agree(self, employee_source):
        # More than one tuple → AlgebraError in every engine.
        many = Projection(RelationRef("employees"), ["emp_id"])
        assert_parity(SubqueryExtension(RelationRef("assignments"), "x", many),
                      employee_source)
        # More than one attribute → AlgebraError too.
        wide = Limit(Projection(RelationRef("employees"), ["emp_id", "salary"]), 1)
        assert_parity(SubqueryExtension(RelationRef("assignments"), "x", wide),
                      employee_source)

    def test_empty_scalar_subquery_leaves_attribute_absent(self, employee_source):
        empty = Limit(EmptyRelation(), 1)
        assert_parity(SubqueryExtension(RelationRef("assignments"), "x", empty),
                      employee_source)

    def test_extension_collision_with_subquery_value(self, employee_source):
        scalar = Limit(Projection(RelationRef("assignments"), ["project"]), 1)
        assert_parity(SubqueryExtension(RelationRef("assignments"), "project", scalar),
                      employee_source)

    def test_aggregate_over_join_pipeline(self, employee_source):
        joined = NaturalJoin(RelationRef("employees"), RelationRef("assignments"),
                             on=["emp_id"])
        query = Limit(Sort(Aggregate(joined, group_by=("project",),
                                     specs=(("avg", "salary"), "count")),
                           ["-avg_salary"]), 3)
        assert_parity(query, employee_source)


class TestAggregatePlanCacheRekey:
    """Aggregate plans must leave the plan cache when ANALYZE or DML shifts
    the versions baked into the cache key — stale group-count estimates must
    not pin a stale physical plan."""

    def _aggregate_query(self):
        return Aggregate(RelationRef("employees"), group_by=("jobtype",),
                         specs=("count", ("avg", "salary")))

    def test_steady_state_hits_the_cache(self, employee_database):
        executor = employee_database.physical_executor
        query = self._aggregate_query()
        employee_database.execute(query)   # may record group-count feedback
        employee_database.execute(query)   # re-plans under the new version once
        hits = executor.cache_hits
        misses = executor.cache_misses
        employee_database.execute(query)   # steady state: cache hit
        assert executor.cache_hits == hits + 1
        assert executor.cache_misses == misses

    def test_analyze_rekeys_aggregate_plans(self, employee_database):
        executor = employee_database.physical_executor
        query = self._aggregate_query()
        employee_database.execute(query)
        employee_database.execute(query)
        misses = executor.cache_misses
        employee_database.analyze()
        employee_database.execute(query)
        assert executor.cache_misses == misses + 1

    def test_dml_rekeys_aggregate_plans(self, employee_database):
        """Once the table drifted past 0.1 of its 60 rows at ANALYZE."""
        executor = employee_database.physical_executor
        query = self._aggregate_query()
        employee_database.analyze()
        first = employee_database.execute(query)
        misses = executor.cache_misses
        table = employee_database.table("employees")
        for step, victim in enumerate(sorted(table, key=repr)[:7]):
            table.update(victim, salary=victim["salary"] + 9999.0)
            second = employee_database.execute(query)
            assert (executor.cache_misses > misses) == (step == 6)
            assert second.tuples != first.tuples  # the update moved an aggregate


def test_plan_and_explain_take_query_text():
    """Query text plans as ``query`` resolves it: the plan ``explain``
    shows is the one ``query`` cached."""
    database = _joinable_tables([{"id": i, "x": i % 3} for i in range(9)],
                                [{"bid": i, "x": i, "z": i} for i in range(3)])
    text = "SELECT id, z FROM a JOIN b ON (x) WHERE id = 4"
    result = database.query(text)
    hits = database.physical_executor.cache_info()["hits"]
    assert database.plan(text).explain() in database.explain(text)
    assert database.physical_executor.cache_info()["hits"] > hits
    assert database.explain_analyze(text).result.tuples == result.tuples == {
        FlexTuple({"id": 4, "z": 1})}


class TestEngineParity:
    def test_database_executor_switch_agrees(self, employee_database):
        query = NaturalJoin(
            Selection(RelationRef("employees"), Comparison("salary", ">", 4000.0)),
            Projection(RelationRef("employees"), ["emp_id", "jobtype"]),
        )
        physical = employee_database.execute(query, executor="physical")
        naive = employee_database.execute(query, executor="naive")
        assert physical.tuples == naive.tuples

    def test_index_scan_matches_full_scan(self, employee_database):
        query = Selection(RelationRef("employees"), Comparison("emp_id", "=", 7))
        executor_with = PhysicalExecutor(employee_database)
        # a plain mapping of the same relations has no indexes
        executor_without = PhysicalExecutor(
            {name: employee_database.relation(name) for name in employee_database.tables()})
        with_index = executor_with.execute(query)
        without_index = executor_without.execute(query)
        assert with_index.tuples == without_index.tuples
        assert with_index.stats.tuples_scanned < without_index.stats.tuples_scanned


# -- randomized differential sweep -----------------------------------------------------------


def _random_predicate(rng, attributes, values):
    kind = rng.randrange(6)
    attribute = rng.choice(attributes)
    value = rng.choice(values)
    if kind == 0:
        return Comparison(attribute, rng.choice(["=", "<", ">", "<=", ">=", "!="]), value)
    if kind == 1:
        return PresencePredicate([attribute, rng.choice(attributes)])
    if kind == 2:
        return And(Comparison(attribute, ">", value),
                   Comparison(rng.choice(attributes), "<", rng.choice(values)))
    if kind == 3:
        return Or(Comparison(attribute, "=", value),
                  Comparison(rng.choice(attributes), "=", rng.choice(values)))
    if kind == 4:
        return Not(Comparison(attribute, "=", value))
    return TruePredicate()


def _random_expression(rng, names, attributes, values, depth):
    if depth <= 0 or rng.random() < 0.25:
        return RelationRef(rng.choice(names))
    kind = rng.randrange(9)
    child = lambda: _random_expression(rng, names, attributes, values, depth - 1)
    if kind == 0:
        return Selection(child(), _random_predicate(rng, attributes, values))
    if kind == 1:
        return TypeGuardNode(child(), rng.sample(attributes, rng.randrange(1, 3)))
    if kind == 2:
        return Projection(child(), rng.sample(attributes, rng.randrange(1, 4)))
    if kind == 3:
        return Union(child(), child())
    if kind == 4:
        return OuterUnion(child(), child())
    if kind == 5:
        return Difference(child(), child())
    if kind == 6:
        on = rng.sample(attributes, rng.randrange(1, 3)) if rng.random() < 0.5 else None
        return NaturalJoin(child(), child(), on=on)
    if kind == 7:
        return MultiwayJoin([child(), child()], on=rng.sample(attributes, 1))
    return Extension(child(), "tag{}".format(rng.randrange(4)), rng.choice(values))


@pytest.mark.parametrize("seed", range(8))
def test_randomized_parity_over_generated_schemes(seed):
    rng = random.Random(1000 + seed)
    scheme = random_flexible_scheme(base_attributes=3, variant_groups=2,
                                    attributes_per_group=2, seed=seed)
    attributes = sorted(a.name for a in scheme.attributes)
    source = {
        "r1": set(random_instance(scheme, count=40, seed=seed)),
        "r2": set(random_instance(scheme, count=30, seed=seed + 50)),
    }
    for _ in range(12):
        expression = _random_expression(rng, ["r1", "r2"], attributes,
                                        list(range(10)), depth=3)
        assert_parity(expression, source, batch_size=rng.choice([1, 3, 16, 256]))


@pytest.mark.parametrize("seed", range(4))
def test_randomized_parity_over_dependency_instances(seed):
    """Variant-record instances generated from a random explicit AD."""
    rng = random.Random(2000 + seed)
    dependency = random_explicit_ad(variant_count=3, attributes_per_variant=2,
                                    shared_attributes=1, seed=seed)
    tuples = instance_for_dependency(dependency, base_attributes=("id",), count=50,
                                     invalid_fraction=0.2, seed=seed)
    attributes = sorted({a.name for tup in tuples for a in tup.attributes})
    source = {"r": set(tuples)}
    for _ in range(10):
        expression = _random_expression(rng, ["r"], attributes,
                                        ["kind-1", "kind-2", "kind-3", 1, 2, 3], depth=3)
        assert_parity(expression, source, batch_size=rng.choice([1, 5, 64]))


@pytest.mark.parametrize("seed", range(4))
def test_randomized_parity_over_employee_workload(seed, employee_source):
    rng = random.Random(3000 + seed)
    attributes = ["emp_id", "name", "salary", "jobtype", "typing_speed",
                  "foreign_languages", "products", "programming_languages",
                  "sales_commission", "project"]
    values = [1, 10, 25, 4000.0, 6000.0, "secretary", "salesman",
              "software engineer", "p1", "p3"]
    for _ in range(10):
        expression = _random_expression(rng, ["employees", "assignments"],
                                        attributes, values, depth=3)
        assert_parity(expression, employee_source, batch_size=rng.choice([1, 8, 256]))
