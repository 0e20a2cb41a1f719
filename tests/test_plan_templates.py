"""The plan cache is keyed by the query's template, not by its literals.

What must hold: constants the AD-driven rewrites can read (equalities on a
declared determinant such as ``jobtype``, tag values, anything under a union)
stay structure, every other constant is a parameter bound per call; a template
never serves a query whose structural literals differ; and every invalidation
the literal-keyed cache had still invalidates.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.exec.executor import PhysicalExecutor, PlanKey
from repro.query import parse_query
from repro.query.lexer import QuerySyntaxError
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
        """ANALYZE re-plans; DML only once it drifted past 0.1 of the rows."""
        assert self._misses_of(database, database.analyze) == 1
        rows = generate_employees(41, seed=8, start_id=10_000)
        table = database.table("employees")
        assert self._misses_of(database, lambda: table.insert_many(rows[:40])) == 0
        assert self._misses_of(database, lambda: table.insert(rows[40])) == 1

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

    def test_rollback_replans_what_read_dropped_feedback(self, database):
        """Nothing is evicted: a plan costed on feedback learned inside is
        re-planned on its next run, as the rollback dropped what it read;
        the pre-transaction plan, whose reads hold, stays a hit."""
        database.analyze()
        database.query(self.TEXT.format(1))
        executor = database.physical_executor
        before = set(executor.cache._plans)
        inside_text = "SELECT name FROM employees WHERE salary > 0.0"
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("employees",
                                generate_employees(1, seed=8, start_id=30_000)[0])
                database.query(inside_text)
                (key,) = set(executor.cache._plans) - before
                _kind, (fingerprint, version) = next(
                    iter(executor.cache._plans[key].feedback_reads))
                database.cardinality_feedback.record(fingerprint, version, 3)
                misses = executor.cache_misses
                database.query(inside_text)             # costed on the 3
                assert executor.cache_misses == misses + 1
                database.query(self.TEXT.format(3))     # the pre-transaction plan
                inside = len(executor.cache)
                raise RuntimeError("abort")
        assert len(executor.cache) == inside
        misses = executor.cache_misses
        assert database.query(inside_text).tuples == _naive(database, inside_text)
        assert executor.cache_misses == misses + 1
        assert database.query(self.TEXT.format(4)).tuples \
            == _naive(database, self.TEXT.format(4))
        assert executor.cache_misses == misses + 1    # the pre-transaction plan

    def test_reset_metrics_keeps_plans_that_read_no_feedback(self, database):
        database.analyze()
        assert self._misses_of(database, database.reset_metrics) == 0

    def test_plan_key_fields_are_named(self, database, monkeypatch):
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: 17)
        database.query(self.TEXT.format(1))
        ((key, plan),) = database.physical_executor.cache._plans.items()
        assert isinstance(key, PlanKey)
        assert PlanKey._fields == ("template", "parameters", "catalog_version",
                                   "statistics_version")
        assert plan.batch_size == 17          # the planner's decision, not a key
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
        """Writes re-plan the template only when the table drifted past 0.1
        of its rows at ANALYZE or crossed a power of two in size."""
        database.analyze()
        calls = _planning_calls(database, monkeypatch)
        text = "SELECT name, salary FROM employees WHERE emp_id = {}"
        fresh = generate_employees(120, seed=12, start_id=40_000)
        for step, row in enumerate(fresh):
            database.insert("employees", row)
            for key in (step + 1, step + 2, row["emp_id"]):
                assert len(database.query(text.format(key)).tuples) == 1
        # analyzed, a drift of 40 rows three times, the 512-row crossing
        assert len(calls) <= 5

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


# -- the statement probe: a raw-text key the tokens confirmed -------------------------------

#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (the CI sweep)
PROBE_EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "150"))

_PROBE_DATABASE = Database()
_DEFINITION = employee_definition()
_PROBE_DATABASE.create_table(
    "employees", _DEFINITION.scheme, domains=_DEFINITION.domains,
    key=_DEFINITION.key, dependencies=_DEFINITION.dependencies)


def _typed(value):
    """A value with the type of every part: ``1``, ``1.0`` and ``True`` differ."""
    if isinstance(value, (list, tuple)):
        return (value.__class__, tuple(_typed(item) for item in value))
    return (value.__class__, value)


def _resolve(executor, text):
    """``statement(text)`` as ``(template, typed params)``, or the error text."""
    try:
        template, params = executor.statement(text)
    except QuerySyntaxError as error:
        return None, str(error)
    return template, _typed(params)


def _same_resolution(first, second):
    """Same template object (or none) and same typed params (or message)."""
    return first[0] is second[0] and first[1] == second[1]


def _describe(resolution):
    """What a resolution says independently of the executor that made it."""
    template, rest = resolution
    if template is None:
        return rest
    return repr(template.expression), template.key[1:], rest


def _agrees(*texts):
    """Every text resolves on one executor — first cold, then again (a raw hit
    once the tokens confirmed it) — as a fresh executor resolves it, and
    again through a token-key hit: the same text after a variant of it that
    only moves its whitespace, so that only the token stream is known."""
    executor = PhysicalExecutor(_PROBE_DATABASE)
    for text in texts:
        cold = _resolve(PhysicalExecutor(_PROBE_DATABASE), text)
        once = _resolve(executor, text)
        assert _describe(once) == _describe(cold), text
        assert _same_resolution(_resolve(executor, text), once), text
        shifted = PhysicalExecutor(_PROBE_DATABASE)
        moved = _resolve(shifted, " \n" + text)
        token_hit = _resolve(shifted, text)
        assert _describe(token_hit) == _describe(cold), text
        assert _same_resolution(_resolve(shifted, text), token_hit), text
        if moved[0] is not None and token_hit[0] is not None:
            assert moved[0] is token_hit[0], text


_NAMES = ["emp_id", "salary", "name", "jobtype", "a1", "x2y", "größe", "_z9"]
_SPACES = st.sampled_from([" ", "  ", "\n", "\t", " \n "])
_COMMENTS = st.sampled_from([
    "", " -- it's\n", "", " -- 5\n", "", " -- '7'\n", " -- 'a' 3.5 TRUE\n", " --\n"])


@st.composite
def _literal(draw):
    kind = draw(st.sampled_from(["number", "number", "string", "keyword"]))
    if kind == "number":
        # (a signed zero decodes equal to the unsigned number after its sign)
        return draw(st.sampled_from(
            ["5", "-0", "42", "-0.0", "2.5", "-0", "0", "007", "-5", "+3", "5."]))
    if kind == "string":
        return "'{}'".format(draw(st.sampled_from(
            ["", "x", "it''s", "-- no comment", "5", "?0", "é"])))
    return "".join(draw(st.sampled_from([c.lower(), c.upper()]))
                   for c in draw(st.sampled_from(["true", "false", "null"])))


@st.composite
def _skeleton(draw):
    """Statement text with ``{}`` slots for its literals (braces never
    appear otherwise), and how many slots it has."""
    def space():
        return draw(_SPACES)

    conditions = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(_NAMES))
        form = draw(st.sampled_from(["op", "in", "op", "names", "op", "glued"]))
        if form == "op":
            op = draw(st.sampled_from(["=", "!=", "<", ">=", "<>"]))
            conditions.append(name + space() + op + space() + "{}")
        elif form == "in":
            conditions.append(name + " IN (" + ", ".join(
                ["{}"] * draw(st.integers(1, 3))) + ")")
        elif form == "names":
            conditions.append(name + " = " + draw(st.sampled_from(_NAMES)))
        else:  # a literal glued to a name: ``a-0`` or ``a1``
            conditions.append(name + " = " + draw(st.sampled_from(_NAMES)) + "{}")
    where = draw(st.sampled_from([" AND ", " OR ", "\nand "])).join(conditions)
    text = "SELECT" + space() + draw(st.sampled_from(["*", "name, salary", "a1"])) \
        + space() + "FROM employees" + draw(_COMMENTS) + space() + "WHERE " + where
    if draw(st.sampled_from([False, False, False, True])):
        text += draw(_COMMENTS) + " TAG src = {}"
    return text, text.count("{}")


def _twin(literal: str) -> str:
    """The same kind of literal, with the same sign and other digits or
    contents: a text's twin has the text's remainder."""
    if literal.startswith("'"):
        return "'y'" if literal != "'y'" else "'it''s'"
    if literal[-1].isdigit() or literal.endswith("."):
        return "".join(str((int(c) + 3) % 10) if c.isdigit() else c for c in literal)
    return {"t": "false", "f": "null", "n": "TRUE"}[literal[0].lower()]


@st.composite
def _statements(draw):
    """One skeleton under three literal lists: the first, its twin, and a
    fresh draw."""
    skeleton, slots = draw(_skeleton())
    first = [draw(_literal()) for _ in range(slots)]
    fresh = [draw(_literal()) for _ in range(slots)]
    return (skeleton.format(*first), skeleton.format(*map(_twin, first)),
            skeleton.format(*fresh))


class TestStatementProbe:
    @settings(max_examples=PROBE_EXAMPLES)
    @given(_statements())
    def test_the_raw_probe_agrees_with_the_tokenizer(self, texts):
        _agrees(*texts)

    @pytest.mark.parametrize("texts", [
        # a ``--`` comment holding a quote or a digit
        ("SELECT name FROM employees -- it's\nWHERE emp_id = 5",
         "SELECT name FROM employees -- it's\nWHERE emp_id = 6"),
        ("SELECT name FROM employees WHERE emp_id = 5 -- = 7",
         "SELECT name FROM employees WHERE emp_id = 8 -- = 7"),
        # TAG values are structure
        ("SELECT name FROM employees WHERE emp_id = 1 TAG src = 'x'",
         "SELECT name FROM employees WHERE emp_id = 1 TAG src = 'y'"),
        # signs, and a sign glued to a name
        ("SELECT name FROM employees WHERE emp_id = -0",
         "SELECT name FROM employees WHERE emp_id = -5",
         "SELECT name FROM employees WHERE emp_id = 5",
         "SELECT name FROM employees WHERE emp_id = +5"),
        ("SELECT name FROM employees WHERE salary > a-0",
         "SELECT name FROM employees WHERE salary > a-7"),
        # the malformed ``5.``
        ("SELECT name FROM employees WHERE salary = 5.5",
         "SELECT name FROM employees WHERE salary = 5."),
        # TRUE / NULL in any case
        ("SELECT name FROM employees WHERE emp_id = true",
         "SELECT name FROM employees WHERE emp_id = NULL",
         "SELECT name FROM employees WHERE emp_id = nUlL",
         "SELECT name FROM employees WHERE emp_id = 1"),
        # digit-bearing and non-ASCII names
        ("SELECT a1 FROM employees WHERE x2y = 3 AND größe = 4",
         "SELECT a1 FROM employees WHERE x2y = 30 AND größe = 'é'"),
        ("SELECT name FROM employees WHERE name = 'it''s'",
         "SELECT name FROM employees WHERE name = 'its'"),
        # IN lists of different lengths
        ("SELECT name FROM employees WHERE emp_id IN (5, 6)",
         "SELECT name FROM employees WHERE emp_id IN (5, 6, 7)",
         "SELECT name FROM employees WHERE emp_id IN (8, 9)"),
        # white space
        ("SELECT name FROM employees WHERE emp_id = 5",
         "SELECT  name\tFROM employees\nWHERE emp_id=5",
         "SELECT  name\tFROM employees\nWHERE emp_id=6"),
    ])
    def test_named_cases(self, texts):
        _agrees(*texts)

    def test_a_signed_literal_is_never_read_unsigned(self):
        executor = PhysicalExecutor(_PROBE_DATABASE)
        text = "SELECT name FROM employees WHERE emp_id = {}"
        executor.statement(text.format("-0"))
        assert executor.statement(text.format("-5"))[1] == (-5,)

    def test_a_repeated_point_read_is_a_raw_hit(self, database):
        text = "SELECT name FROM employees WHERE emp_id = {}"
        for key in (1, 2, 3):
            database.query(text.format(key))
        tagged = "SELECT name FROM employees WHERE emp_id = {} TAG src = 'x'"
        for key in (1, 2):
            database.query(tagged.format(key))
        assert database.metrics()["statement_cache"] == {
            "raw_hits": 2, "token_hits": 1, "parses": 2}
