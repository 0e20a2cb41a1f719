"""Tests for the storage engine: indexes, catalog, constraints, tables, database."""

import pytest

from repro.algebra import RelationRef, Selection, TypeGuardNode
from repro.algebra.predicates import Comparison
from repro.core.dependencies import ad, ead, fd
from repro.engine import Catalog, ConstraintChecker, Database, HashIndex, Table, TableDefinition
from repro.engine.database import REMOVE
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    DependencyViolation,
    KeyViolation,
    TypeCheckError,
)
from repro.model.attributes import attrset
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.workloads.employees import employee_definition, generate_employees


class TestHashIndex:
    def test_add_and_lookup(self):
        index = HashIndex(["k"])
        t1, t2 = FlexTuple(k=1, v="a"), FlexTuple(k=1, v="b")
        index.add(t1)
        index.add(t2)
        assert index.lookup({"k": 1}) == {t1, t2}
        assert index.lookup({"k": 9}) == set()

    def test_tuples_without_indexed_attributes_are_skipped(self):
        index = HashIndex(["k"])
        index.add(FlexTuple(other=1))
        assert len(index) == 0

    def test_remove(self):
        index = HashIndex(["k"])
        tup = FlexTuple(k=1)
        index.add(tup)
        index.remove(tup)
        assert len(index) == 0 and index.lookup({"k": 1}) == set()

    def test_remove_unindexed_is_noop(self):
        index = HashIndex(["k"])
        index.remove(FlexTuple(other=1))
        assert len(index) == 0

    def test_duplicate_add_counts_once(self):
        index = HashIndex(["k"])
        tup = FlexTuple(k=1)
        index.add(tup)
        index.add(tup)
        assert len(index) == 1

    def test_probe_by_raw_key(self):
        index = HashIndex(["a", "b"])
        tup = FlexTuple(a=1, b=2, c=3)
        index.add(tup)
        assert index.lookup((1, 2)) == {tup}

    def test_probe_missing_attribute_returns_empty(self):
        index = HashIndex(["a", "b"])
        index.add(FlexTuple(a=1, b=2))
        assert index.lookup({"a": 1}) == set()

    def test_a_bucket_of_one_is_a_tuple_of_several_a_set(self):
        index, other = HashIndex(["k"]), HashIndex(["k"])
        first, second = FlexTuple(k=1, v="a"), FlexTuple(k=1, v="b")
        index.put((1,), first)
        index.put((1,), FlexTuple(k=1, v="a"))  # an equal tuple: already there
        assert index.bucket((1,)) == (first,) and len(index) == 1
        index.put((1,), second)
        assert index.bucket((1,)) == {first, second} and len(index) == 2
        assert dict(index.groups()) == {(1,): {first, second}}
        other.put((1,), second)
        assert not index.same_buckets(other)
        index.drop((1,), FlexTuple(k=1, v="zzz"))  # not there
        index.drop((1,), first)
        assert index.bucket((1,)) == (second,) and index.same_buckets(other)
        assert dict(index.groups()) == {(1,): {second}} and index.lookup((1,)) == {second}
        index.drop((1,), second)
        assert index.bucket((1,)) == () and len(index) == 0 and not list(index.groups())

    def test_groups_and_clear(self):
        index = HashIndex(["k"])
        index.add(FlexTuple(k=1))
        assert len(list(index.groups())) == 1
        index.clear()
        assert len(index) == 0


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        definition = TableDefinition("t", FlexibleScheme.relational(["a"]))
        catalog.register(definition)
        assert catalog.definition("t") is definition
        assert "t" in catalog and len(catalog) == 1

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        catalog.register(TableDefinition("t", FlexibleScheme.relational(["a"])))
        with pytest.raises(CatalogError):
            catalog.register(TableDefinition("t", FlexibleScheme.relational(["b"])))

    def test_unknown_lookup_rejected(self):
        with pytest.raises(CatalogError):
            Catalog().definition("missing")

    def test_unregister(self):
        catalog = Catalog()
        catalog.register(TableDefinition("t", FlexibleScheme.relational(["a"])))
        catalog.unregister("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.unregister("t")

    def test_definition_validation_domain(self):
        with pytest.raises(CatalogError):
            TableDefinition("t", FlexibleScheme.relational(["a"]), domains={"z": IntDomain()})

    def test_definition_validation_key(self):
        with pytest.raises(CatalogError):
            TableDefinition("t", FlexibleScheme.relational(["a"]), key=["z"])

    def test_definition_validation_dependency(self):
        with pytest.raises(CatalogError):
            TableDefinition("t", FlexibleScheme.relational(["a"]), dependencies=[ad("a", "z")])

    def test_dependencies_listing(self):
        definition = employee_definition()
        catalog = Catalog()
        catalog.register(definition)
        assert len(catalog.dependencies("employees")) == 2


class TestTableDml:
    def test_insert_enforces_scheme(self):
        table = Table(employee_definition())
        with pytest.raises(TypeCheckError):
            table.insert({"emp_id": 1, "name": "x"})

    def test_insert_enforces_domains(self):
        table = Table(employee_definition())
        with pytest.raises(TypeCheckError):
            table.insert({"emp_id": "one", "name": "x", "salary": 1.0, "jobtype": "secretary",
                          "typing_speed": 1, "foreign_languages": "fr"})

    def test_insert_enforces_explicit_ad(self):
        table = Table(employee_definition())
        with pytest.raises(DependencyViolation):
            table.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "salesman",
                          "typing_speed": 1, "foreign_languages": "fr"})

    def test_insert_enforces_key(self):
        table = Table(employee_definition())
        tup = {"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
               "typing_speed": 1, "foreign_languages": "fr"}
        table.insert(tup)
        with pytest.raises(KeyViolation):
            table.insert({**tup, "name": "y"})

    def test_duplicate_identical_tuple_is_idempotent(self):
        table = Table(employee_definition())
        tup = {"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
               "typing_speed": 1, "foreign_languages": "fr"}
        table.insert(tup)
        table.insert(tup)
        assert len(table) == 1

    def test_missing_key_attribute_rejected(self):
        definition = TableDefinition(
            "t", FlexibleScheme(1, 2, ["a", "b"]), key=["a"]
        )
        table = Table(definition)
        with pytest.raises(KeyViolation):
            table.insert({"b": 1})

    def test_pairwise_fd_enforced_incrementally(self):
        definition = TableDefinition(
            "t", FlexibleScheme(2, 3, ["k", "v", "w"]), dependencies=[fd("k", "v")]
        )
        table = Table(definition)
        table.insert({"k": 1, "v": 10})
        with pytest.raises(DependencyViolation):
            table.insert({"k": 1, "v": 20})
        table.insert({"k": 2, "v": 20})

    def test_pairwise_ad_enforced_incrementally(self):
        definition = TableDefinition(
            "t", FlexibleScheme(1, 3, ["k", "v", "w"]), dependencies=[ad("k", ["v", "w"])]
        )
        table = Table(definition)
        table.insert({"k": 1, "v": 10})
        with pytest.raises(DependencyViolation):
            table.insert({"k": 1, "w": 5})
        table.insert({"k": 1, "v": 99})

    def test_delete_unregisters_from_indexes(self):
        definition = TableDefinition(
            "t", FlexibleScheme(1, 2, ["k", "v"]), dependencies=[fd("k", "v")]
        )
        table = Table(definition)
        tup = table.insert({"k": 1, "v": 10})
        assert table.delete(tup)
        table.insert({"k": 1, "v": 20})
        assert len(table) == 1

    def test_delete_missing_returns_false(self):
        table = Table(employee_definition())
        assert not table.delete({"emp_id": 99, "name": "x", "salary": 1.0, "jobtype": "secretary",
                                 "typing_speed": 1, "foreign_languages": "fr"})

    def test_delete_where(self):
        table = Table(employee_definition())
        table.insert_many(generate_employees(20, seed=3))
        removed = table.delete_where(lambda t: t["jobtype"] == "secretary")
        assert removed > 0
        assert all(t["jobtype"] != "secretary" for t in table)

    def test_update_value(self):
        table = Table(employee_definition())
        tup = table.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                            "typing_speed": 1, "foreign_languages": "fr"})
        updated = table.update(tup, salary=2.0)
        assert updated["salary"] == 2.0 and len(table) == 1

    def test_update_jobtype_requires_type_change(self):
        # The paper's footnote: changing the jobtype changes the type, so the update
        # must be rejected unless the variant attributes change too.
        table = Table(employee_definition())
        tup = table.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                            "typing_speed": 1, "foreign_languages": "fr"})
        with pytest.raises(DependencyViolation):
            table.update(tup, jobtype="salesman")
        updated = table.update(tup, jobtype="salesman", typing_speed=REMOVE,
                               foreign_languages=REMOVE, products="dbms", sales_commission=0.1)
        assert updated["jobtype"] == "salesman"

    def test_update_missing_tuple_rejected(self):
        table = Table(employee_definition())
        with pytest.raises(ConstraintViolation):
            table.update({"emp_id": 9, "name": "x", "salary": 1.0, "jobtype": "secretary",
                          "typing_speed": 1, "foreign_languages": "fr"}, salary=2.0)

    def test_update_key_to_existing_value_rejected(self):
        table = Table(employee_definition())
        first = table.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                              "typing_speed": 1, "foreign_languages": "fr"})
        table.insert({"emp_id": 2, "name": "y", "salary": 1.0, "jobtype": "secretary",
                      "typing_speed": 2, "foreign_languages": "en"})
        with pytest.raises(KeyViolation):
            table.update(first, emp_id=2)

    def test_unenforced_table_accepts_anything(self):
        table = Table(employee_definition(), enforce=False)
        table.insert({"emp_id": 1, "jobtype": "salesman", "typing_speed": 1})
        assert len(table) == 1

    def test_as_relation_snapshot(self):
        table = Table(employee_definition())
        table.insert_many(generate_employees(5, seed=5))
        relation = table.as_relation()
        assert len(relation) == 5 and relation.name == "employees"

    def test_checker_levels_can_be_disabled(self):
        definition = TableDefinition("t", FlexibleScheme.relational(["a"]),
                                     domains={"a": IntDomain()}, dependencies=[ad("a", "a")])
        checker = ConstraintChecker(definition, check_scheme=False,
                                    check_domains=False, check_dependencies=False)
        checker.check_insert(FlexTuple(unknown=1))

    def test_key_is_enforced_regardless_of_switches(self):
        checker = ConstraintChecker(employee_definition(), check_scheme=False,
                                    check_domains=False, check_dependencies=False)
        with pytest.raises(KeyViolation):
            checker.check_insert(FlexTuple(unknown=1))


class TestDatabase:
    def test_create_and_query(self, employee_database):
        result = employee_database.execute(RelationRef("employees"))
        assert len(result) == 60

    def test_duplicate_table_rejected(self, employee_database):
        with pytest.raises(CatalogError):
            employee_database.create_table("employees", FlexibleScheme.relational(["a"]))

    def test_unknown_table_rejected(self, employee_database):
        with pytest.raises(CatalogError):
            employee_database.table("missing")

    def test_drop_table(self):
        database = Database()
        database.create_table("t", FlexibleScheme.relational(["a"]))
        database.drop_table("t")
        assert database.tables() == []

    def test_insert_via_database(self):
        database = Database()
        database.create_table("t", FlexibleScheme.relational(["a"]))
        database.insert("t", {"a": 1})
        database.insert_many("t", [{"a": 2}, {"a": 3}])
        assert len(database.table("t")) == 3

    def test_dependencies_hook(self, employee_database):
        assert len(employee_database.dependencies("employees")) == 2

    def test_execute_with_report_optimizes(self, employee_database):
        expr = TypeGuardNode(
            Selection(RelationRef("employees"),
                      Comparison("jobtype", "=", "secretary") & Comparison("salary", ">", 0.0)),
            ["typing_speed"],
        )
        optimized_result, report = employee_database.execute_with_report(expr, optimize=True)
        plain_result = employee_database.execute(expr, optimize=False)
        assert report.changed
        assert optimized_result.tuples == plain_result.tuples

    def test_unenforced_database(self):
        database = Database(enforce_constraints=False)
        database.create_table("t", FlexibleScheme.relational(["a"]), dependencies=[ad("a", "a")])
        database.insert("t", {"z": 1})
        assert len(database.table("t")) == 1

    def test_repr_shows_sizes(self, employee_database):
        assert "employees" in repr(employee_database)
