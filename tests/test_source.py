"""Tests for the source protocol (``repro.algebra.source``): every query reads
its base relations through one interface.

The same 12 employees are held six ways — a database, a ``weakref.proxy`` of
it (what the database's own executor holds), a mapping of a
``FlexibleRelation``, of a set of tuples and of a list of value dicts with a
duplicate, and the catalog (the fact half only) — and each answers the
protocol as documented: rows, scheme universe, key, dependencies, index.  A
query gives one answer on every data source, and a mapping is read afresh on
every execution.
"""

import weakref

import pytest

from repro.algebra import Comparison, NaturalJoin, Projection, RelationRef, Selection
from repro.algebra.evaluator import Evaluator
from repro.algebra.source import as_source
from repro.engine import Database
from repro.errors import AlgebraError, CatalogError
from repro.exec import PhysicalExecutor
from repro.model.relation import FlexibleRelation
from repro.model.tuples import FlexTuple
from repro.optimizer.planner import Planner
from repro.workloads.employees import employee_definition, generate_employees

ROWS = 12


def _database():
    definition = employee_definition()
    database = Database()
    database.create_table("employees", definition.scheme, domains=definition.domains,
                          key=definition.key, dependencies=definition.dependencies)
    database.insert_many("employees", generate_employees(ROWS, seed=5))
    return database


@pytest.fixture
def database():
    return _database()


def _data_sources(database):
    """name -> (source, whether it declares the scheme, whether it is the engine)"""
    rows = list(database.table("employees"))
    scheme = database.catalog.definition("employees").scheme
    dicts = [row.as_dict() for row in rows]
    return {
        "database": (database, True, True),
        "proxy": (weakref.proxy(database), True, True),
        "flexible relation": ({"employees": FlexibleRelation(scheme, rows)}, True, False),
        "tuple set": ({"employees": set(rows)}, False, False),
        "dict list": ({"employees": dicts + dicts[:1]}, False, False),
    }


class TestProtocol:
    def test_every_form_answers_as_documented(self, database):
        definition = employee_definition()
        stored = set(database.table("employees"))
        for name, (held, declares_scheme, engine) in _data_sources(database).items():
            source = as_source(held)
            rows = source.relation("employees")
            assert len(rows) == ROWS, name
            assert set(rows) == stored, name
            assert all(isinstance(row, FlexTuple) for row in rows), name
            assert list(source.scan_view("employees").rows) == list(rows), name
            assert source.universe("employees") == (
                definition.scheme.attributes if declares_scheme else None), name
            assert source.key("employees") == (definition.key if engine else None), name
            assert list(source.dependencies("employees")) == (
                definition.dependencies if engine else []), name
            index = source.index_for("employees", ["emp_id", "salary"])
            if engine:
                assert index is not None and index.names == ("emp_id",), name
            else:
                assert index is None, name

    def test_the_catalog_answers_the_facts(self, database):
        definition = employee_definition()
        catalog = database.catalog
        assert as_source(catalog) is catalog
        assert catalog.universe("employees") == definition.scheme.attributes
        assert catalog.key("employees") == definition.key
        assert list(catalog.dependencies("employees")) == definition.dependencies

    def test_an_unknown_name_is_known_to_have_nothing(self, database):
        forms = dict(_data_sources(database))
        forms["catalog"] = (database.catalog, True, True)
        forms["empty"] = (None, False, False)
        for name, (held, _, _) in forms.items():
            source = as_source(held)
            assert source.universe("missing") is None, name
            assert source.key("missing") is None, name
            assert tuple(source.dependencies("missing")) == (), name
            if name != "catalog":
                assert source.index_for("missing", ["emp_id"]) is None, name
                with pytest.raises((AlgebraError, CatalogError)):
                    source.relation("missing")
                with pytest.raises((AlgebraError, CatalogError)):
                    source.scan_view("missing")

    def test_the_empty_source_knows_nothing_and_reads_nothing(self):
        source = as_source(None)
        assert (source.universe("employees"), source.key("employees"),
                tuple(source.dependencies("employees")),
                source.index_for("employees", ["emp_id"])) == (None, None, (), None)
        assert (source.catalog_version, source.statistics_version, source.statistics,
                source.cardinality_feedback, source.tracer) == (None,) * 5
        with pytest.raises(AlgebraError):
            source.relation("employees")

    def test_a_source_is_not_wrapped_again(self, database):
        proxy = weakref.proxy(database)
        assert as_source(database) is database
        assert as_source(proxy) is proxy
        wrapped = as_source({"employees": []})
        assert as_source(wrapped) is wrapped

    def test_one_query_gives_one_answer_on_every_source(self, database):
        employees = RelationRef("employees")
        queries = (
            employees,
            Projection(Selection(employees, Comparison("salary", ">=", 3000.0)),
                       ["emp_id", "jobtype"]),
            Selection(employees, Comparison("emp_id", "=", 3)),
            NaturalJoin(Projection(employees, ["emp_id", "name"]),
                        Projection(employees, ["emp_id", "salary"])),
        )
        expected = [Evaluator(database).evaluate(query).tuples for query in queries]
        assert expected[0] and expected[2]
        for name, (held, _, _) in _data_sources(database).items():
            executor = PhysicalExecutor(held)
            for query, answer in zip(queries, expected):
                assert Evaluator(held).evaluate(query).tuples == answer, name
                assert executor.execute(query).tuples == answer, name
                rewritten, _ = Planner(catalog=held).optimize(query)
                assert executor.execute(rewritten).tuples == answer, name


def test_a_mapping_is_read_afresh_on_every_execution():
    """The wrapper keeps no view between executions: nothing versions a
    mapping, so a row added to the mapped relation shows in the next answer."""
    database = _database()
    scheme = database.catalog.definition("employees").scheme
    relation = FlexibleRelation(scheme, database.table("employees"))
    executor = PhysicalExecutor({"employees": relation})
    query = Projection(RelationRef("employees"), ["emp_id"])
    before = executor.execute(query).tuples
    relation.insert({"emp_id": 900, "name": "new", "salary": 3000.0,
                     "jobtype": "secretary", "typing_speed": 70,
                     "foreign_languages": "english"})
    after = executor.execute(query).tuples
    assert after == before | {FlexTuple(emp_id=900)}
    assert executor.cache_hits == 1
