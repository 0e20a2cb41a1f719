"""The plan cache is keyed by the query's template, not by its literals.

What must hold: constants the AD-driven rewrites can read (equalities on a
declared determinant such as ``jobtype``, tag values, anything under a union)
stay structure, every other constant is a parameter bound per call; a template
never serves a query whose structural literals differ; and every invalidation
the literal-keyed cache had still invalidates.
"""

import pytest

from repro.algebra import (
    Evaluator,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import And, Comparison, Parameter
from repro.engine import Database
from repro.exec import PhysicalPlanner
from repro.exec.executor import PlanKey
from repro.query import parse_query
from repro.workloads.employees import employee_definition, generate_employees

ROWS = 400


@pytest.fixture()
def database():
    database = Database()
    definition = employee_definition()
    table = database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies,
        indexes=[["jobtype"]])
    table.insert_many(generate_employees(ROWS, seed=3))
    return database


def _naive(database, text):
    return Evaluator(database).evaluate(parse_query(text)).tuples


def _planning_calls(database, monkeypatch):
    calls = []
    original = PhysicalPlanner.plan

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PhysicalPlanner, "plan", counted)
    return calls


class TestWhichLiteralsAreStructure:
    def test_determinant_literals_make_different_templates(self, database):
        executor = database.physical_executor
        text = "SELECT name FROM employees WHERE jobtype = '{}' GUARD sales_commission"
        secretary, _ = executor.statement(text.format("secretary"), optimize=True)
        salesman, _ = executor.statement(text.format("salesman"), optimize=True)
        assert secretary.key != salesman.key
        # the secretary variant excludes the guarded attribute: rewritten to ∅
        assert "∅" in secretary.expression.pretty()
        assert "jobtype = 'salesman'" in salesman.expression.pretty()
        assert database.query(text.format("secretary")).tuples == set()
        assert database.query(text.format("salesman")).tuples \
            == _naive(database, text.format("salesman")) != set()

    def test_data_literals_share_one_template(self, database):
        executor = database.physical_executor
        text = "SELECT name, salary FROM employees WHERE emp_id = {}"
        one, params_one = executor.statement(text.format(1), optimize=True)
        two, params_two = executor.statement(text.format(2), optimize=True)
        assert one is two
        assert (params_one, params_two) == ((1,), (2,))
        assert "emp_id = ?0" in one.expression.pretty()

    def test_text_and_algebra_derive_the_same_template(self, database):
        executor = database.physical_executor
        text = ("SELECT name FROM employees WHERE salary > 4000.0 AND "
                "jobtype = 'secretary' AND emp_id < 90")
        from_text, text_params = executor.statement(text, optimize=True)
        from_tree, tree_params = executor.template(parse_query(text), optimize=True)
        assert from_text is from_tree
        assert text_params == tree_params

    def test_tag_values_and_union_equalities_stay_structure(self, database):
        executor = database.physical_executor
        tagged = "SELECT name FROM employees WHERE emp_id = {} TAG source = {}"
        a, _ = executor.statement(tagged.format(1, "'x'"))
        b, _ = executor.statement(tagged.format(2, "'x'"))
        c, _ = executor.statement(tagged.format(1, "'y'"))
        assert a is b and a is not c
        union = ("SELECT name FROM employees WHERE emp_id = {} UNION "
                 "SELECT name FROM employees WHERE salary > {}")
        first, _ = executor.statement(union.format(1, 100))
        other_equality, _ = executor.statement(union.format(2, 100))
        other_range, _ = executor.statement(union.format(1, 200))
        assert first is not other_equality      # compared with the branches'
        assert first is other_range             # a range is never read

    def test_parameters_are_opaque_to_the_rewrite_analysis(self):
        predicate = And(Comparison("a", "=", Parameter(0)), Comparison("b", "=", 2))
        assert predicate.implied_equalities() == {"b": 2}
        assert set(predicate.implied_equalities(parameters=True)) == {"a", "b"}
        selection = Selection(RelationRef("r"), predicate)
        assert selection.established_equalities() == {"b": 2}
        bound = selection.substitute((7,))
        assert bound.established_equalities() == {"a": 7, "b": 2}
        assert repr(predicate) == "(a = ?0 AND b = 2)"


class TestLiteralEdgeCases:
    @pytest.mark.parametrize("literal", [
        "NULL", "TRUE", "FALSE", "1", "1.0", "-1", "-2.5", "+3", "''", "'it''s'",
        "'-- not a comment'", "'?0'"])
    def test_every_literal_kind_binds_correctly(self, database, literal):
        for text in ("SELECT name FROM employees WHERE emp_id = {}",
                     "SELECT emp_id FROM employees WHERE name != {}",
                     "SELECT emp_id FROM employees WHERE salary >= {}"):
            text = text.format(literal)
            assert database.query(text).tuples == _naive(database, text), text

    def test_true_one_and_one_point_zero_get_their_own_plans(self, database):
        text = "SELECT name FROM employees WHERE emp_id = {}"
        for literal in ("1", "TRUE", "1.0", "2", "FALSE", "2.0"):
            assert database.query(text.format(literal)).tuples \
                == _naive(database, text.format(literal))
        keys = [key for key in database.physical_executor.cache._plans]
        assert {key.parameters[0][0] for key in keys} == {int, bool, float}
        assert len({key.template for key in keys}) == 1

    def test_in_lists_of_different_lengths_share_a_plan(self, database, monkeypatch):
        calls = _planning_calls(database, monkeypatch)
        text = "SELECT name FROM employees WHERE emp_id IN ({})"
        for members in ("1", "1, 2", "3, 4, 5, 999999", "6, 6"):
            assert database.query(text.format(members)).tuples \
                == _naive(database, text.format(members))
        assert len(calls) == 1

    def test_comments_may_contain_literals(self, database):
        text = ("SELECT name -- the 'name' of 1 employee\n"
                "FROM employees -- WHERE emp_id = 5\n"
                "WHERE emp_id = {} -- = 7")
        assert database.query(text.format(9)).tuples == _naive(database, text.format(9))
        assert database.query(text.format(10)).tuples == _naive(database, text.format(10))
        template, params = database.physical_executor.statement(text.format(11))
        assert params == (11,)

    def test_unhashable_constants_pass_through_execute(self, database):
        for value in ([1, 2], {"a": 1}, [[1], [2]]):
            for op in ("=", "!=", "in"):
                if op == "in" and isinstance(value, dict):
                    continue
                tree = Selection(RelationRef("employees"),
                                 Comparison("emp_id", op, value))
                assert database.execute(tree).tuples \
                    == Evaluator(database).evaluate(tree).tuples
        # ... also where the constant is structure (an equality on the determinant)
        tree = TypeGuardNode(Selection(RelationRef("employees"),
                                       Comparison("jobtype", "=", ["secretary"])),
                             ["typing_speed"])
        assert database.execute(tree, optimize=True).tuples == set()

    def test_shared_predicate_objects_bind_every_occurrence(self, database):
        shared = Comparison("emp_id", "<", 40)
        tree = NaturalJoin(
            Projection(Selection(RelationRef("employees"), shared), ["emp_id", "name"]),
            Projection(Selection(RelationRef("employees"), shared), ["emp_id", "salary"]),
            on=["emp_id"])
        assert database.execute(tree).tuples == Evaluator(database).evaluate(tree).tuples
        wider = tree.map_comparisons(lambda c: Comparison(c.attribute, c.op, 90))
        assert database.execute(wider).tuples \
            == Evaluator(database).evaluate(wider).tuples


class TestInvalidation:
    TEXT = "SELECT name, salary FROM employees WHERE emp_id = {}"

    def _misses_of(self, database, action):
        database.query(self.TEXT.format(1))
        executor = database.physical_executor
        before = executor.cache_misses
        action()
        result = database.query(self.TEXT.format(2))
        assert result.tuples == _naive(database, self.TEXT.format(2))
        return executor.cache_misses - before

    def test_a_new_literal_alone_is_a_hit(self, database):
        assert self._misses_of(database, lambda: None) == 0

    def test_analyze_and_fresh_to_stale_replan(self, database):
        assert self._misses_of(database, database.analyze) == 1
        assert self._misses_of(database, lambda: database.insert(
            "employees", generate_employees(1, seed=8, start_id=10_000)[0])) == 1
        # already stale: further DML leaves the plan alone
        assert self._misses_of(database, lambda: database.insert(
            "employees", generate_employees(1, seed=8, start_id=10_001)[0])) == 0

    def test_power_of_two_row_count_crossing_replans(self, database):
        rows = generate_employees(512 - ROWS, seed=9, start_id=20_000)
        table = database.table("employees")
        table.insert_many(rows[:-2])            # 510 rows
        assert self._misses_of(database, lambda: table.insert(rows[-2])) == 0
        assert self._misses_of(database, lambda: table.insert(rows[-1])) == 1

    def test_ddl_replans_and_retemplates(self, database):
        definition = employee_definition()

        def recreate_without_dependencies():
            rows = list(database.table("employees"))
            database.drop_table("employees")
            database.create_table("employees", definition.scheme,
                                  domains=definition.domains, key=definition.key
                                  ).insert_many(rows)

        guarded = ("SELECT name FROM employees WHERE jobtype = 'secretary' "
                   "GUARD sales_commission")
        before, _ = database.physical_executor.statement(guarded, optimize=True)
        assert self._misses_of(database, recreate_without_dependencies) == 1
        after, _ = database.physical_executor.statement(guarded, optimize=True)
        # no declared AD any more: nothing to rewrite, the literal is data now
        assert before is not after
        assert "jobtype = ?" in after.expression.pretty()

    def test_rollback_evicts_what_the_transaction_cached(self, database):
        database.analyze()
        database.query(self.TEXT.format(1))
        executor = database.physical_executor
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees",
                                generate_employees(1, seed=8, start_id=30_000)[0])
                database.query(self.TEXT.format(3))     # cached under the new version
                inside = len(executor.cache)
                raise RuntimeError("abort")
        assert len(executor.cache) == inside - 1
        version = database.statistics_version
        assert all(key.statistics_version <= version
                   for key in executor.cache._plans)
        misses = executor.cache_misses
        assert database.query(self.TEXT.format(4)).tuples \
            == _naive(database, self.TEXT.format(4))
        assert executor.cache_misses == misses       # the pre-transaction plan

    def test_reset_metrics_keeps_plans_that_read_no_feedback(self, database):
        database.analyze()
        assert self._misses_of(database, database.reset_metrics) == 0

    def test_plan_key_fields_are_named(self, database):
        database.query(self.TEXT.format(1), batch_size=17)
        (key,) = database.physical_executor.cache._plans
        assert isinstance(key, PlanKey)
        assert len(PlanKey._fields) == 6
        assert key.batch_size == 17
        assert key.catalog_version == database.catalog_version
        assert key.statistics_version == database.statistics_version
        assert key.parameters == ((int, None),)       # never analyzed: no bucket
        assert "feedback_version" not in PlanKey._fields


class TestSelectivityBuckets:
    def test_a_skewed_value_gets_its_own_plan(self, monkeypatch):
        database = Database()
        definition = employee_definition()
        table = database.create_table(
            "employees", definition.scheme, domains=definition.domains,
            key=definition.key, dependencies=definition.dependencies)
        rows = generate_employees(600, seed=5)
        for row in rows[:500]:
            row["salary"] = 1234.0            # one heavy value, many rare ones
        table.insert_many(rows)
        database.analyze()
        calls = _planning_calls(database, monkeypatch)
        text = "SELECT name FROM employees WHERE salary = {}"
        rare = [row["salary"] for row in rows[500:520]]
        for value in rare:
            assert database.query(text.format(value)).tuples \
                == _naive(database, text.format(value))
        assert len(calls) == 1
        assert database.query(text.format(1234.0)).tuples \
            == _naive(database, text.format(1234.0))
        assert len(calls) == 2
        buckets = {key.parameters[0][1]
                   for key in database.physical_executor.cache._plans}
        assert buckets == {0, 8}              # ~1 row, and 2^8 <= 500 < 2^9


class TestHitRate:
    def test_distinct_point_reads_hit_the_plan_cache(self, database, monkeypatch):
        database.analyze()
        calls = _planning_calls(database, monkeypatch)
        text = "SELECT name, salary FROM employees WHERE emp_id = {}"
        for key in range(1, 501):
            result = database.query(text.format(key))
            assert len(result.tuples) == (1 if key <= ROWS else 0)
        info = database.physical_executor.cache_info()
        assert info["hits"] >= 0.99 * (info["hits"] + info["misses"])
        assert len(calls) == 1
        assert database.metrics()["plan_cache"]["hit_rate"] >= 0.99

    def test_point_reads_between_writes_still_hit(self, database, monkeypatch):
        """Stale statistics mis-estimate every point read, and every write
        drops the table's feedback — neither may re-plan the template."""
        database.analyze()
        calls = _planning_calls(database, monkeypatch)
        text = "SELECT name, salary FROM employees WHERE emp_id = {}"
        fresh = generate_employees(120, seed=12, start_id=40_000)
        for step, row in enumerate(fresh):
            database.insert("employees", row)
            for key in (step + 1, step + 2, row["emp_id"]):
                assert len(database.query(text.format(key)).tuples) == 1
        # analyzed → stale, then nothing but (possibly) the 512-row crossing
        assert len(calls) <= 3

    def test_the_watchdog_sees_one_query(self, database):
        text = "SELECT name, salary FROM employees WHERE emp_id = {}"
        for key in range(1, 300):
            database.query(text.format(key))
        watchdog = database.plan_watchdog.as_dict()
        assert watchdog["tracked_queries"] == 1
        (baseline,) = database.plan_watchdog._baselines.values()
        assert baseline.executions == 299
        assert any("emp_id = ?0" in label
                   for label in baseline.plan_summary["operators"])


def test_union_rewrites_see_structural_literals(database):
    """Branch pruning reads equalities on both sides of a union: they stay."""
    secretaries = Selection(RelationRef("employees"),
                            Comparison("jobtype", "=", "secretary"))
    salesmen = Selection(RelationRef("employees"),
                         Comparison("jobtype", "=", "salesman"))
    for wanted in ("secretary", "salesman", "nobody"):
        tree = Selection(Union(secretaries, salesmen),
                         Comparison("jobtype", "=", wanted))
        result, report = database.execute_with_report(tree, optimize=True)
        assert result.tuples == Evaluator(database).evaluate(tree).tuples
        assert report.changed
