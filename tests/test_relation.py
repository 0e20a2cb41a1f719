"""Tests for flexible relations.

The bare mathematical object stores what it is given; the type check on
insertion — scheme admission and domains — is the engine's, so the refusals
below drive a :class:`~repro.engine.Table` over the same scheme."""

import pytest

from repro.core.dependencies import AttributeDependency, FunctionalDependency
from repro.engine import Table, TableDefinition
from repro.errors import TypeCheckError
from repro.model.attributes import attrset
from repro.model.domains import IntDomain
from repro.model.relation import FlexibleRelation
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple


SIMPLE_SCHEME = FlexibleScheme(2, 2, ["A", FlexibleScheme(1, 1, ["B", "C"])])


@pytest.fixture
def simple_relation():
    return FlexibleRelation(SIMPLE_SCHEME, domains={"A": IntDomain()}, name="simple")


@pytest.fixture
def simple_table():
    return Table(TableDefinition("simple", SIMPLE_SCHEME, domains={"A": IntDomain()}))


class TestInsertion:
    def test_insert_valid_tuple(self, simple_relation):
        simple_relation.insert({"A": 1, "B": 2})
        assert len(simple_relation) == 1

    def test_insert_accepts_flextuple(self, simple_relation):
        tup = FlexTuple(A=1, C=3)
        assert simple_relation.insert(tup) == tup

    def test_insert_rejects_bad_combination(self, simple_table):
        with pytest.raises(TypeCheckError):
            simple_table.insert({"A": 1, "B": 2, "C": 3})

    def test_insert_rejects_domain_violation(self, simple_table):
        with pytest.raises(TypeCheckError):
            simple_table.insert({"A": "not an int", "B": 2})

    def test_admits(self, simple_relation):
        assert simple_relation.scheme.admits(FlexTuple(A=1, B=2).attributes)
        assert not simple_relation.scheme.admits(FlexTuple(A=1).attributes)

    def test_initial_tuples_are_validated(self):
        table = Table(TableDefinition("t", FlexibleScheme.relational(["A"])))
        with pytest.raises(TypeCheckError):
            table.insert_many([{"B": 1}])
        assert len(table) == 0

    def test_insert_stores_any_combination(self, simple_relation):
        """The bare relation checks nothing: the engine's tables do
        (tests/test_engine.py::TestTableDml)."""
        simple_relation.insert({"A": "not an int", "B": 2, "C": 3})
        simple_relation.insert({"Z": 1})
        assert len(simple_relation) == 2

    def test_insert_many(self, simple_relation):
        simple_relation.insert_many([{"A": 1, "B": 1}, {"A": 2, "C": 2}])
        assert len(simple_relation) == 2

    def test_duplicates_collapse(self, simple_relation):
        simple_relation.insert({"A": 1, "B": 2})
        simple_relation.insert({"A": 1, "B": 2})
        assert len(simple_relation) == 1


class TestMutation:
    def test_delete(self, simple_relation):
        tup = simple_relation.insert({"A": 1, "B": 2})
        assert simple_relation.delete(tup)
        assert len(simple_relation) == 0

    def test_delete_missing_returns_false(self, simple_relation):
        assert not simple_relation.delete({"A": 9, "B": 9})

    def test_clear(self, simple_relation):
        simple_relation.insert({"A": 1, "B": 2})
        simple_relation.clear()
        assert len(simple_relation) == 0

    def test_tuples_returns_copy(self, simple_relation):
        simple_relation.insert({"A": 1, "B": 2})
        snapshot = simple_relation.tuples
        snapshot.clear()
        assert len(simple_relation) == 1


class TestSatisfaction:
    def test_satisfies_ad(self):
        scheme = FlexibleScheme(2, 2, ["A", FlexibleScheme(0, 2, ["B", "C"])])
        relation = FlexibleRelation(scheme)
        relation.insert_many([{"A": 1, "B": 1}, {"A": 2, "C": 2}])
        assert relation.satisfies(AttributeDependency(["A"], ["B", "C"]))

    def test_violations_listed(self):
        scheme = FlexibleScheme(2, 2, ["A", FlexibleScheme(0, 2, ["B", "C"])])
        relation = FlexibleRelation(scheme)
        relation.insert_many([{"A": 1, "B": 1}, {"A": 1, "C": 2}])
        dependency = AttributeDependency(["A"], ["B", "C"])
        assert relation.violations([dependency]) == [dependency]
        assert not relation.satisfies_all([dependency])

    def test_satisfies_fd(self):
        scheme = FlexibleScheme.relational(["A", "B"])
        relation = FlexibleRelation(scheme, tuples=[{"A": 1, "B": 1}, {"A": 2, "B": 1}])
        assert relation.satisfies(FunctionalDependency(["A"], ["B"]))
        assert not relation.satisfies(FunctionalDependency(["B"], ["A"]))


class TestDerivedViews:
    def test_attribute_combinations(self, simple_relation):
        simple_relation.insert_many([{"A": 1, "B": 1}, {"A": 2, "C": 1}])
        assert simple_relation.attribute_combinations() == {attrset(["A", "B"]), attrset(["A", "C"])}

    def test_project_instance(self, simple_relation):
        simple_relation.insert_many([{"A": 1, "B": 1}, {"A": 2, "C": 1}])
        assert simple_relation.project_instance(["A"]) == {FlexTuple(A=1), FlexTuple(A=2)}

    def test_copy_is_independent(self, simple_relation):
        simple_relation.insert({"A": 1, "B": 1})
        clone = simple_relation.copy(name="clone")
        clone.insert({"A": 2, "C": 2})
        assert len(simple_relation) == 1 and len(clone) == 2

    def test_with_scheme_inherits_domains(self, simple_relation):
        derived = simple_relation.with_scheme(
            FlexibleScheme.relational(["A"]), tuples=[{"A": 5}], name="derived"
        )
        assert derived.domains["A"].name == "int"
