"""End-to-end integration tests spanning several subsystems."""

import pytest

from repro.algebra import (
    Evaluator,
    Extension,
    OuterUnion,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import Comparison
from repro.baselines import NullPaddedTable
from repro.core.closure import implies
from repro.core.inference import discover_ads, discover_explicit_ad
from repro.core.subtyping import derive_subtype_family
from repro.embedding import translate_scheme
from repro.engine import Database
from repro.er import (
    EntityType,
    Specialization,
    SpecializationSubclass,
    horizontal_decomposition,
    specialization_to_flexible_relation,
    vertical_decomposition,
)
from repro.errors import DependencyViolation
from repro.model.attributes import attrset
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.tuples import FlexTuple
from repro.types import RecordType, is_record_subtype
from repro.workloads.employees import employee_definition, employee_dependency, generate_employees


class TestErToEngineToQueries:
    """ER design → flexible relation + AD → engine → optimized queries."""

    def _build_database(self):
        entity = EntityType(
            "vehicle",
            {
                "vin": IntDomain(),
                "brand": StringDomain(),
                "kind": EnumDomain(["car", "truck", "motorcycle"]),
            },
            key=["vin"],
        )
        specialization = Specialization(entity, ["kind"], [
            SpecializationSubclass("car", {"kind": "car"},
                                   {"doors": IntDomain(), "trunk_volume": FloatDomain()}),
            SpecializationSubclass("truck", {"kind": "truck"},
                                   {"payload": FloatDomain(), "axles": IntDomain()}),
            SpecializationSubclass("motorcycle", {"kind": "motorcycle"},
                                   {"engine_cc": IntDomain()}),
        ])
        mapping = specialization_to_flexible_relation(specialization)
        database = Database()
        table = mapping.create_table(database, name="vehicles")
        table.insert_many([
            {"vin": 1, "brand": "ax", "kind": "car", "doors": 4, "trunk_volume": 0.5},
            {"vin": 2, "brand": "bx", "kind": "truck", "payload": 12.0, "axles": 3},
            {"vin": 3, "brand": "cx", "kind": "motorcycle", "engine_cc": 600},
            {"vin": 4, "brand": "dx", "kind": "car", "doors": 2, "trunk_volume": 0.3},
        ])
        return database, mapping

    def test_dependency_enforcement_from_er_design(self):
        database, _ = self._build_database()
        with pytest.raises(DependencyViolation):
            database.insert("vehicles", {"vin": 9, "brand": "zz", "kind": "car", "engine_cc": 1000})

    def test_guard_elimination_from_er_design(self):
        database, _ = self._build_database()
        expr = TypeGuardNode(
            Selection(RelationRef("vehicles"), Comparison("kind", "=", "car")), ["doors"]
        )
        result, report = database.execute_with_report(expr, optimize=True)
        assert report.changed
        assert {t["vin"] for t in result} == {1, 4}

    def test_subtype_family_round_trip(self):
        _, mapping = self._build_database()
        family = mapping.subtype_family()
        assert set(family.subtype_names()) == {"car", "truck", "motorcycle"}
        no_kind = RecordType("anonymous", {"brand": StringDomain()})
        assert family.classify_candidate(no_kind) == "lost-connection"

    def test_embedding_round_trip(self):
        _, mapping = self._build_database()
        translation = translate_scheme(mapping.scheme, mapping.dependency, type_name="vehicle")
        record = translation.record_type
        assert record.tag_field == "kind"
        assert record.accepts(FlexTuple(vin=1, brand="ax", kind="car", doors=4, trunk_volume=0.5))
        assert not record.accepts(FlexTuple(vin=1, brand="ax", kind="car", engine_cc=5))


class TestDecompositionAndQueriesAgree:
    """Horizontal decomposition + tagged outer union behaves like the single relation."""

    def _database_with_fragments(self):
        database = Database()
        definition = employee_definition()
        employees = database.create_table("employees", definition.scheme,
                                          domains=definition.domains, key=definition.key,
                                          dependencies=definition.dependencies)
        employees.insert_many(generate_employees(40, seed=41))
        decomposition = horizontal_decomposition(employees, employee_dependency())
        for name, tuples in decomposition.fragments.items():
            fragment_table = database.create_table(
                "frag_{}".format(name.replace(" ", "_")), definition.scheme,
                domains=definition.domains,
            )
            fragment_table.insert_many(tuples)
        return database, decomposition

    def test_outer_union_of_fragments_equals_base_relation(self):
        database, decomposition = self._database_with_fragments()
        names = ["frag_{}".format(n.replace(" ", "_")) for n in decomposition.fragment_names()]
        expression = RelationRef(names[0])
        for name in names[1:]:
            expression = OuterUnion(expression, RelationRef(name))
        restored = database.execute(expression)
        base = database.execute(RelationRef("employees"))
        assert restored.tuples == base.tuples

    def test_selection_on_fragments_prunes_branches(self):
        database, decomposition = self._database_with_fragments()
        secretaries = Extension(RelationRef("frag_secretary"), "source", "secretary")
        salesmen = Extension(RelationRef("frag_salesman"), "source", "salesman")
        query = Selection(OuterUnion(secretaries, salesmen), Comparison("source", "=", "secretary"))
        optimized, report = database.execute_with_report(query, optimize=True)
        unoptimized = database.execute(query, optimize=False)
        assert report.changed
        assert optimized.tuples == unoptimized.tuples
        assert optimized.stats.total_work < unoptimized.stats.total_work

    def test_vertical_decomposition_joins_back_inside_engine(self):
        database = Database()
        definition = employee_definition()
        employees = database.create_table("employees", definition.scheme,
                                          domains=definition.domains, key=definition.key,
                                          dependencies=definition.dependencies)
        employees.insert_many(generate_employees(25, seed=43))
        decomposition = vertical_decomposition(employees, employee_dependency(), key=["emp_id"])
        assert decomposition.restore() == set(employees)


class TestDiscoveryOnLegacyData:
    """Mining dependencies from a NULL-padded legacy table and migrating it."""

    def test_migration_pipeline(self):
        definition = employee_definition()
        legacy = NullPaddedTable(definition.scheme.attributes, employee_dependency())
        legacy.insert_many([FlexTuple(v) for v in generate_employees(60, seed=47)])

        heterogeneous = legacy.to_tuples()
        mined = discover_explicit_ad(heterogeneous, ["jobtype"],
                                     employee_dependency().rhs)
        database = Database()
        table = database.create_table("migrated", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=[mined])
        table.insert_many(heterogeneous)
        assert len(table) == len(heterogeneous)
        # the mined dependency implies (and is implied by) the designed one on this data
        designed = employee_dependency()
        assert implies([mined], designed.to_ad())
        assert implies([designed], mined.to_ad())

    def test_discovered_ads_enable_guard_elimination(self):
        definition = employee_definition()
        tuples = [FlexTuple(v) for v in generate_employees(60, seed=53)]
        mined = discover_explicit_ad(tuples, ["jobtype"], employee_dependency().rhs)
        database = Database()
        table = database.create_table("employees", definition.scheme,
                                      domains=definition.domains, key=definition.key,
                                      dependencies=[mined])
        table.insert_many(tuples)
        expr = TypeGuardNode(
            Selection(RelationRef("employees"), Comparison("jobtype", "=", "secretary")),
            ["typing_speed"],
        )
        _, report = database.execute_with_report(expr, optimize=True)
        assert report.changed


class TestSubtypingEndToEnd:
    def test_projection_of_query_result_loses_the_subtype_connection(self, employee_database):
        # Querying employees and projecting jobtype away yields tuples typed only by
        # <salary, ...>; the family flags such a supertype as lost-connection.
        definition = employee_database.catalog.definition("employees")
        family = derive_subtype_family(
            definition.scheme.attributes,
            employee_dependency(),
            domains=definition.domains,
        )
        expr = Projection(RelationRef("employees"), ["name", "salary"])
        result = employee_database.execute(expr)
        assert all(t.attributes == attrset(["name", "salary"]) for t in result)
        candidate = RecordType("projected", {"name": StringDomain(), "salary": FloatDomain()})
        assert family.classify_candidate(candidate) == "lost-connection"
        for name in family.subtype_names():
            assert is_record_subtype(family.subtype(name), candidate)
