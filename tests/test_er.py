"""Tests for the enhanced-ER layer: model, mapping onto flexible relations, decomposition."""

import pytest

from repro.algebra import MultiwayJoin
from repro.baselines import NullPaddedTable
from repro.engine import Database, Table
from repro.er import (
    EntityType,
    Specialization,
    SpecializationSubclass,
    horizontal_decomposition,
    null_count,
    specialization_to_dependency,
    specialization_to_flexible_relation,
    vertical_decomposition,
)
from repro.errors import DecompositionError, ReproError
from repro.exec import PhysicalPlanner
from repro.model.attributes import attrset
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain
from repro.model.tuples import FlexTuple
from repro.workloads.employees import (
    employee_definition,
    employee_dependency,
    employee_scheme,
    generate_employees,
)


@pytest.fixture
def employee_specialization():
    entity = EntityType(
        "employee",
        {
            "emp_id": IntDomain(),
            "name": StringDomain(),
            "salary": FloatDomain(),
            "jobtype": EnumDomain(["secretary", "software engineer", "salesman"]),
        },
        key=["emp_id"],
    )
    return Specialization(
        entity,
        ["jobtype"],
        [
            SpecializationSubclass("secretary", {"jobtype": "secretary"},
                                   {"typing_speed": IntDomain(), "foreign_languages": StringDomain()}),
            SpecializationSubclass("software engineer", {"jobtype": "software engineer"},
                                   {"products": StringDomain(), "programming_languages": StringDomain()}),
            SpecializationSubclass("salesman", {"jobtype": "salesman"},
                                   {"products": StringDomain(), "sales_commission": FloatDomain()}),
        ],
    )


class TestErModel:
    def test_entity_validation(self):
        with pytest.raises(ReproError):
            EntityType("", {"a": IntDomain()})
        with pytest.raises(ReproError):
            EntityType("e", {})
        with pytest.raises(ReproError):
            EntityType("e", {"a": IntDomain()}, key=["z"])

    def test_subclass_validation(self):
        with pytest.raises(ReproError):
            SpecializationSubclass("", {"k": 1}, {})
        with pytest.raises(ReproError):
            SpecializationSubclass("s", [], {})

    def test_specialization_validation(self, employee_specialization):
        entity = employee_specialization.entity
        with pytest.raises(ReproError):
            Specialization(entity, ["unknown"], employee_specialization.subclasses)
        with pytest.raises(ReproError):
            Specialization(entity, ["jobtype"], [
                SpecializationSubclass("bad", {"wrong_attribute": 1}, {"x": IntDomain()})
            ])
        with pytest.raises(ReproError):
            Specialization(entity, ["jobtype"], [
                SpecializationSubclass("bad", {"jobtype": "secretary"}, {"salary": FloatDomain()})
            ])

    def test_classification(self, employee_specialization):
        assert not employee_specialization.is_disjoint()   # products is shared
        assert employee_specialization.is_total()          # all three jobtypes covered
        assert employee_specialization.variant_attributes == attrset(
            ["typing_speed", "foreign_languages", "products",
             "programming_languages", "sales_commission"]
        )

    def test_partial_specialization(self):
        entity = EntityType("person", {"id": IntDomain(), "kind": EnumDomain(["a", "b"])})
        specialization = Specialization(entity, ["kind"], [
            SpecializationSubclass("only_a", {"kind": "a"}, {"extra": IntDomain()})
        ])
        assert not specialization.is_total()
        assert specialization.is_disjoint()


class TestMapping:
    def test_dependency_is_one_to_one(self, employee_specialization, jobtype_ead):
        dependency = specialization_to_dependency(employee_specialization)
        assert dependency.lhs == jobtype_ead.lhs
        assert dependency.rhs == jobtype_ead.rhs
        assert {v.name for v in dependency.variants} == {v.name for v in jobtype_ead.variants}

    def test_scheme_admits_every_subclass_shape(self, employee_specialization):
        mapping = specialization_to_flexible_relation(employee_specialization)
        for subclass in employee_specialization.subclasses:
            combo = employee_specialization.entity.attributes | subclass.local_attributes
            assert mapping.scheme.admits(combo)

    def test_create_table_round_trip(self, employee_specialization):
        mapping = specialization_to_flexible_relation(employee_specialization)
        database = Database()
        table = mapping.create_table(database)
        for tuple_values in generate_employees(30, seed=21):
            table.insert(tuple_values)
        assert len(table) == 30
        with pytest.raises(Exception):
            table.insert({"emp_id": 999, "name": "x", "salary": 1.0, "jobtype": "salesman",
                          "typing_speed": 1, "foreign_languages": "fr"})

    def test_subtype_family_from_mapping(self, employee_specialization):
        family = specialization_to_flexible_relation(employee_specialization).subtype_family()
        assert set(family.subtype_names()) == {"secretary", "software engineer", "salesman"}
        assert family.supertype.name == "employee"


def _restores_physically(decomposition, original) -> bool:
    """The decomposition's restoration, planned and run by the physical
    engine over the fragments, gives back ``original``."""
    fragments = decomposition.fragments
    plan = PhysicalPlanner(fragments).plan(decomposition.restoration())
    return plan.execute(fragments).tuples == set(original)


class TestDecomposition:
    @pytest.fixture
    def loaded_table(self):
        table = Table(employee_definition())
        table.insert_many(generate_employees(50, seed=17))
        return table

    def test_horizontal_fragments_and_restoration(self, loaded_table, jobtype_ead):
        decomposition = horizontal_decomposition(loaded_table, jobtype_ead)
        assert set(decomposition.fragment_names()) <= {"secretary", "software engineer",
                                                       "salesman", "rest"}
        assert decomposition.total_tuples() == len(loaded_table)
        assert decomposition.is_lossless(loaded_table)
        assert _restores_physically(decomposition, set(loaded_table))

    def test_horizontal_qualifications(self, loaded_table, jobtype_ead):
        decomposition = horizontal_decomposition(loaded_table, jobtype_ead)
        assert decomposition.qualifications["secretary"] == [{"jobtype": "secretary"}]

    def test_horizontal_rest_fragment(self, jobtype_ead):
        tuples = [FlexTuple(emp_id=1, name="x", salary=1.0, jobtype="secretary",
                            typing_speed=1, foreign_languages="fr"),
                  FlexTuple(emp_id=2, name="y", salary=1.0)]
        decomposition = horizontal_decomposition(tuples, jobtype_ead)
        assert "rest" in decomposition.fragment_names()
        assert decomposition.is_lossless(tuples)
        assert _restores_physically(decomposition, tuples)

    def test_vertical_fragments_and_restoration(self, loaded_table, jobtype_ead):
        decomposition = vertical_decomposition(loaded_table, jobtype_ead, key=["emp_id"])
        assert "master" in decomposition.fragment_names()
        assert decomposition.is_lossless(loaded_table)
        assert _restores_physically(decomposition, set(loaded_table))
        restoration = decomposition.restoration()
        assert isinstance(restoration, MultiwayJoin)
        assert [child.name for child in restoration.inputs] == ["master"] + [
            name for name in decomposition.fragment_names() if name != "master"]

    def test_vertical_master_has_no_variant_attributes(self, loaded_table, jobtype_ead):
        decomposition = vertical_decomposition(loaded_table, jobtype_ead, key=["emp_id"])
        for tup in decomposition.fragment("master"):
            assert tup.attributes.isdisjoint(jobtype_ead.rhs)

    def test_vertical_requires_key(self, loaded_table, jobtype_ead):
        with pytest.raises(DecompositionError):
            vertical_decomposition(loaded_table, jobtype_ead, key=[])
        with pytest.raises(DecompositionError):
            vertical_decomposition(loaded_table, jobtype_ead, key=["typing_speed"])

    def test_vertical_requires_key_presence(self, jobtype_ead):
        tuples = [FlexTuple(name="x", salary=1.0, jobtype="secretary",
                            typing_speed=1, foreign_languages="fr")]
        with pytest.raises(DecompositionError):
            vertical_decomposition(tuples, jobtype_ead, key=["emp_id"])

    def test_unknown_fragment_rejected(self, loaded_table, jobtype_ead):
        decomposition = horizontal_decomposition(loaded_table, jobtype_ead)
        with pytest.raises(DecompositionError):
            decomposition.fragment("pilot")

    def test_cell_counts_are_smaller_than_flat_table(self, loaded_table, jobtype_ead):
        decomposition = horizontal_decomposition(loaded_table, jobtype_ead)
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        assert decomposition.total_cells() < flat.stored_cells()

    def test_null_count_matches_flat_baseline(self, loaded_table, jobtype_ead):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        assert null_count(loaded_table, employee_scheme().attributes) == flat.null_cells()
