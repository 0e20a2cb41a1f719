"""Tests for JSON serialization of schemes, domains, dependencies and databases."""

import io
import json

import pytest

from repro.core.dependencies import ad, ead, fd
from repro.engine import Database, dump_database, dumps_database, load_database, loads_database
from repro.engine.serialization import (
    SerializationError,
    database_from_dict,
    database_to_dict,
    dependency_from_dict,
    dependency_to_dict,
    domain_from_dict,
    domain_to_dict,
    scheme_from_dict,
    scheme_to_dict,
)
from repro.errors import DependencyViolation
from repro.model.domains import (
    AnyDomain,
    BoolDomain,
    EnumDomain,
    FloatDomain,
    IntDomain,
    RangeDomain,
    StringDomain,
)
from repro.model.scheme import FlexibleScheme, UnfoldedScheme
from repro.model.attributes import attrset
from repro.workloads.analytics import generate_orders, orders_domains, orders_scheme
from repro.workloads.employees import employee_definition, generate_employees


class TestSchemeRoundTrip:
    def test_relational_scheme(self):
        scheme = FlexibleScheme.relational(["a", "b"])
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme

    def test_nested_scheme(self, example1_scheme):
        restored = scheme_from_dict(scheme_to_dict(example1_scheme))
        assert restored == example1_scheme
        assert restored.dnf() == example1_scheme.dnf()

    def test_unfolded_scheme(self):
        scheme = UnfoldedScheme({frozenset(attrset(["a", "b"]).as_frozenset()),
                                 frozenset(attrset(["a", "c"]).as_frozenset())})
        restored = scheme_from_dict(scheme_to_dict(scheme))
        assert restored.dnf() == scheme.dnf()

    def test_document_is_json_serializable(self, example1_scheme):
        json.dumps(scheme_to_dict(example1_scheme))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            scheme_from_dict({"kind": "mystery"})


class TestDomainRoundTrip:
    @pytest.mark.parametrize("domain", [
        AnyDomain(), IntDomain(), FloatDomain(), BoolDomain(),
        StringDomain(), StringDomain(max_length=12),
        EnumDomain(["a", "b", "c"], name="letters"),
        RangeDomain(0, 10, integral=True),
    ])
    def test_round_trip_preserves_membership(self, domain):
        restored = domain_from_dict(domain_to_dict(domain))
        probes = [0, 5, 10, 11, -1, "a", "zz", "x" * 20, True, 3.5]
        for probe in probes:
            assert domain.contains(probe) == restored.contains(probe)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            domain_from_dict({"kind": "mystery"})


class TestDependencyRoundTrip:
    def test_ad(self):
        dependency = ad(["a", "b"], ["c"])
        assert dependency_from_dict(dependency_to_dict(dependency)) == dependency

    def test_fd(self):
        dependency = fd(["a"], ["b", "c"])
        assert dependency_from_dict(dependency_to_dict(dependency)) == dependency

    def test_explicit_ad(self, jobtype_ead):
        restored = dependency_from_dict(dependency_to_dict(jobtype_ead))
        assert restored == jobtype_ead
        assert {v.name for v in restored.variants} == {v.name for v in jobtype_ead.variants}

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            dependency_from_dict({"kind": "mystery"})


class TestDatabaseRoundTrip:
    def _loaded_database(self):
        database = Database()
        definition = employee_definition()
        table = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=definition.dependencies)
        table.insert_many(generate_employees(30, seed=61))
        return database

    def test_round_trip_preserves_tuples(self):
        database = self._loaded_database()
        restored = loads_database(dumps_database(database))
        assert restored.table("employees").tuples == database.table("employees").tuples

    def test_round_trip_preserves_constraints(self):
        database = self._loaded_database()
        restored = loads_database(dumps_database(database))
        with pytest.raises(DependencyViolation):
            restored.insert("employees", {"emp_id": 9999, "name": "x", "salary": 1.0,
                                          "jobtype": "salesman", "typing_speed": 1,
                                          "foreign_languages": "fr"})

    def test_round_trip_preserves_catalog_metadata(self):
        database = self._loaded_database()
        restored = loads_database(dumps_database(database))
        original = database.catalog.definition("employees")
        rebuilt = restored.catalog.definition("employees")
        assert rebuilt.key == original.key
        assert rebuilt.scheme == original.scheme
        assert len(rebuilt.dependencies) == len(original.dependencies)

    def test_file_round_trip(self, tmp_path):
        database = self._loaded_database()
        path = tmp_path / "db.json"
        with open(path, "w") as handle:
            dump_database(database, handle)
        with open(path) as handle:
            restored = load_database(handle)
        assert restored.table("employees").tuples == database.table("employees").tuples

    def test_schema_only_dump(self):
        database = self._loaded_database()
        document = database_to_dict(database, include_data=False)
        assert "tuples" not in document["tables"][0]
        restored = database_from_dict(document)
        assert len(restored.table("employees")) == 0

    def test_unsupported_version_rejected(self):
        with pytest.raises(SerializationError):
            database_from_dict({"format_version": 999, "tables": []})

    def test_dump_is_deterministic(self):
        database = self._loaded_database()
        assert dumps_database(database) == dumps_database(database)

    def _orders_database(self, **options):
        """``orders`` mixes NULL, int and float amounts in one column."""
        database = Database(**options)
        database.create_table("orders", orders_scheme(), domains=orders_domains(),
                              key=["order_id"]).insert_many(generate_orders(2000, seed=1))
        return database

    def test_mixed_type_column_round_trips_in_store_order(self):
        database = self._orders_database()
        document = dumps_database(database)
        restored = loads_database(document)
        assert restored.table("orders").tuples == database.table("orders").tuples
        # a reload restores the scan order, so the document is a fixed point
        assert list(restored.table("orders")) == list(database.table("orders"))
        assert dumps_database(loads_database(document)) == document

    def test_durable_mixed_type_table_checkpoints_and_reopens(self, tmp_path):
        path = str(tmp_path / "db")
        database = self._orders_database(durable_path=path)
        database.checkpoint()
        before = dumps_database(database)
        database.close()
        reopened = Database(durable_path=path)
        assert reopened.durability.recovery_report.checkpoint_loaded
        assert dumps_database(reopened) == before
        reopened.close()


class TestMalformedDocuments:
    """Malformed input raises SerializationError naming the offending path."""

    def _document(self):
        database = Database()
        definition = employee_definition()
        table = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=definition.dependencies)
        table.insert_many(generate_employees(3, seed=4))
        return database_to_dict(database)

    def test_version_message_names_supported_version(self):
        with pytest.raises(SerializationError, match="this build reads version 1"):
            database_from_dict({"format_version": 999, "tables": []})

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SerializationError, match="expected an object"):
            database_from_dict([1, 2, 3])

    def test_missing_table_name_names_the_path(self):
        document = self._document()
        del document["tables"][0]["name"]
        with pytest.raises(SerializationError, match=r"tables\[0\]"):
            database_from_dict(document)

    def test_malformed_scheme_names_the_path(self):
        document = self._document()
        document["tables"][0]["scheme"] = {"kind": "scheme", "at_least": 1,
                                           "at_most": 2, "components": "oops"}
        with pytest.raises(SerializationError, match=r"tables\[0\].scheme.components"):
            database_from_dict(document)

    def test_malformed_domain_names_the_attribute(self):
        document = self._document()
        document["tables"][0]["domains"]["salary"] = {"kind": "range", "low": 0}
        with pytest.raises(SerializationError, match=r"domains\['salary'\]"):
            database_from_dict(document)

    def test_malformed_dependency_names_the_index(self):
        document = self._document()
        document["tables"][0]["dependencies"][0] = {"kind": "fd", "lhs": ["a"]}
        with pytest.raises(SerializationError, match=r"dependencies\[0\]"):
            database_from_dict(document)

    def test_non_list_tuples_rejected(self):
        document = self._document()
        document["tables"][0]["tuples"] = {"not": "a list"}
        with pytest.raises(SerializationError, match=r"tables\[0\].tuples"):
            database_from_dict(document)

    def test_non_object_tuple_names_its_index(self):
        document = self._document()
        document["tables"][0]["tuples"].insert(1, "oops")
        with pytest.raises(SerializationError, match=r"tuples\[1\]"):
            database_from_dict(document)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        from repro.engine.serialization import load_json_file
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_json_file(str(path))

    def test_load_database_wraps_decode_errors(self):
        with pytest.raises(SerializationError, match="not valid JSON"):
            loads_database("{broken")


class TestAtomicDump:
    def _loaded_database(self):
        database = Database()
        definition = employee_definition()
        table = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=definition.dependencies)
        table.insert_many(generate_employees(5, seed=9))
        return database

    def test_dump_and_load_accept_paths(self, tmp_path):
        database = self._loaded_database()
        path = tmp_path / "db.json"
        dump_database(database, path)
        restored = load_database(path)
        assert restored.table("employees").tuples == database.table("employees").tuples

    def test_dump_replaces_atomically(self, tmp_path):
        database = self._loaded_database()
        path = tmp_path / "db.json"
        path.write_text("previous contents")
        dump_database(database, str(path))
        assert json.loads(path.read_text())["format_version"] == 1
        # no temp-file debris left behind
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    def test_failed_dump_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("precious")
        database = Database()
        database.create_table("t", FlexibleScheme.relational(["a"]))
        database.insert("t", {"a": object()})  # no JSON form
        with pytest.raises(TypeError):
            dump_database(database, str(path))
        assert path.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
