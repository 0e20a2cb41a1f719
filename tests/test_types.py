"""Tests for record types, the traditional subtyping rule, and the paper's type
checks and type guards — run by the engine's ``ConstraintChecker`` and the
algebra's guard node."""

import pytest

from repro.errors import TypeCheckError
from repro.model.attributes import attrset
from repro.model.domains import AnyDomain, EnumDomain, FloatDomain, IntDomain, RangeDomain, StringDomain
from repro.model.tuples import FlexTuple
from repro.algebra import Evaluator, RelationRef, TypeGuardNode
from repro.engine import Table, TableDefinition
from repro.errors import DependencyViolation
from repro.exec import CompiledGuard, PhysicalPlanner
from repro.model.batches import TupleBatch
from repro.obs.feedback import expression_key
from repro.types import RecordType, domain_subsumes, is_record_subtype
from repro.workloads.employees import employee_definition


class TestDomainSubsumption:
    def test_any_subsumes_everything(self):
        assert domain_subsumes(AnyDomain(), IntDomain())
        assert domain_subsumes(AnyDomain(), EnumDomain(["a"]))

    def test_enum_subset(self):
        full = EnumDomain(["a", "b", "c"])
        restricted = EnumDomain(["a"])
        assert domain_subsumes(full, restricted)
        assert not domain_subsumes(restricted, full)

    def test_range_containment(self):
        assert domain_subsumes(RangeDomain(0, 100), RangeDomain(10, 20))
        assert not domain_subsumes(RangeDomain(10, 20), RangeDomain(0, 100))

    def test_enum_inside_infinite_domain(self):
        assert domain_subsumes(FloatDomain(), EnumDomain([1.0, 2.5]))
        assert not domain_subsumes(IntDomain(), EnumDomain(["x"]))

    def test_same_class_unparameterized(self):
        assert domain_subsumes(IntDomain(), IntDomain())

    def test_identity(self):
        domain = StringDomain(max_length=5)
        assert domain_subsumes(domain, domain)


class TestRecordType:
    def test_field_access(self):
        record = RecordType("employee", {"salary": FloatDomain()})
        assert record.domain_of("salary").name == "float"
        assert "salary" in record and "zip" not in record

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeCheckError):
            RecordType("t", {"a": IntDomain()}).domain_of("b")

    def test_attributes(self):
        record = RecordType("t", {"a": IntDomain(), "b": IntDomain()})
        assert record.attributes == attrset(["a", "b"])

    def test_accepts_width(self):
        record = RecordType("t", {"a": IntDomain()})
        assert record.accepts(FlexTuple(a=1, extra="x"))
        assert not record.accepts(FlexTuple(a=1, extra="x"), exact=True)
        assert record.accepts(FlexTuple(a=1), exact=True)

    def test_accepts_checks_domains(self):
        record = RecordType("t", {"a": IntDomain()})
        assert not record.accepts(FlexTuple(a="not an int"))

    def test_extend_and_restrict(self):
        base = RecordType("base", {"k": EnumDomain(["x", "y"]), "a": IntDomain()})
        extended = base.extend("sub", {"extra": IntDomain()})
        assert "extra" in extended
        restricted = extended.restrict_field("sub2", "k", ["x"])
        assert not restricted.domain_of("k").contains("y")

    def test_extend_rejects_existing_field(self):
        with pytest.raises(TypeCheckError):
            RecordType("t", {"a": IntDomain()}).extend("t2", {"a": IntDomain()})

    def test_project(self):
        record = RecordType("t", {"a": IntDomain(), "b": IntDomain()})
        assert record.project("p", ["a"]).attributes == attrset(["a"])

    def test_project_unknown_field_rejected(self):
        with pytest.raises(TypeCheckError):
            RecordType("t", {"a": IntDomain()}).project("p", ["z"])

    def test_shorthand_enum_fields(self):
        record = RecordType("t", {"k": ["a", "b"]})
        assert record.domain_of("k").contains("a")

    def test_structural_equality(self):
        first = RecordType("x", {"a": IntDomain()})
        second = RecordType("y", {"a": IntDomain()})
        assert first == second


class TestRecordSubtypingRule:
    def test_width_subtyping(self):
        super_type = RecordType("super", {"a": IntDomain()})
        sub_type = RecordType("sub", {"a": IntDomain(), "b": IntDomain()})
        assert is_record_subtype(sub_type, super_type)
        assert not is_record_subtype(super_type, sub_type)

    def test_depth_subtyping(self):
        super_type = RecordType("super", {"k": EnumDomain(["a", "b"])})
        sub_type = RecordType("sub", {"k": EnumDomain(["a"])})
        assert is_record_subtype(sub_type, super_type)
        assert not is_record_subtype(super_type, sub_type)

    def test_combined_width_and_depth(self):
        employee = RecordType("employee", {"salary": FloatDomain(),
                                           "jobtype": EnumDomain(["s", "e"])})
        secretary = RecordType("secretary", {"salary": FloatDomain(),
                                             "jobtype": EnumDomain(["s"]),
                                             "typing_speed": IntDomain()})
        assert is_record_subtype(secretary, employee)

    def test_reflexive(self):
        record = RecordType("t", {"a": IntDomain()})
        assert is_record_subtype(record, record)

    def test_incompatible_domains(self):
        first = RecordType("a", {"k": EnumDomain(["x"])})
        second = RecordType("b", {"k": EnumDomain(["y"])})
        assert not is_record_subtype(first, second)


#: a well-typed secretary, and the paper's salesman carrying a secretary's
#: attributes: his attribute combination is in the scheme, the jobtype AD refuses it
SECRETARY = {"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
             "typing_speed": 90, "foreign_languages": "fr"}
SALESMAN = dict(SECRETARY, jobtype="salesman")


def _without_dependencies(definition):
    return TableDefinition(definition.name, definition.scheme, domains=definition.domains,
                           key=definition.key)


def _guarded(source, attributes):
    """``TG[attributes](people)`` on the naive evaluator and the engine."""
    expression = TypeGuardNode(RelationRef("people"), attributes)
    naive = Evaluator(source).evaluate(expression).tuples
    assert PhysicalPlanner(source).plan(expression).execute(source).tuples == naive
    return naive


PEOPLE = {"people": {FlexTuple(id=1, a=1, b=2), FlexTuple(id=2, a=1),
                     FlexTuple(id=3, b=2), FlexTuple(id=4)}}


class TestTypeGuards:
    def test_check(self):
        guard = CompiledGuard(["typing_speed"])
        batch = TupleBatch([FlexTuple(typing_speed=90), FlexTuple(salary=1.0)])
        assert guard.select(batch) == [0]

    def test_trivial_guard(self):
        assert CompiledGuard([]).select(TupleBatch([FlexTuple(a=1)])) == [0]
        assert _guarded(PEOPLE, []) == PEOPLE["people"]

    def test_union_and_conjunction(self):
        """A guard over ``X ∪ Y`` keeps what the guard over ``X`` under the
        guard over ``Y`` keeps: the tuples carrying both."""
        both = _guarded(PEOPLE, ["a", "b"])
        assert both == {FlexTuple(id=1, a=1, b=2)}
        chained = TypeGuardNode(TypeGuardNode(RelationRef("people"), ["a"]), ["b"])
        assert Evaluator(PEOPLE).evaluate(chained).tuples == both

    def test_guards_for_attributes(self):
        """A one-attribute guard per attribute: each keeps the carriers of its own."""
        assert _guarded(PEOPLE, ["a"]) == {t for t in PEOPLE["people"] if "a" in t}
        assert _guarded(PEOPLE, ["b"]) == {t for t in PEOPLE["people"] if "b" in t}

    def test_equality_and_hash(self):
        """Guards over the same attributes are one plan-cache key."""
        first = TypeGuardNode(RelationRef("people"), ["a", "b"])
        second = TypeGuardNode(RelationRef("people"), ["b", "a"])
        assert expression_key(first) == expression_key(second)
        assert expression_key(first) != expression_key(
            TypeGuardNode(RelationRef("people"), ["a"]))


class TestTypeChecker:
    def test_check_tuple_against_type(self):
        record = RecordType("t", {"a": IntDomain()})
        assert record.accepts(FlexTuple(a=1)) and record.accepts(FlexTuple(a=1, b=2))
        assert not record.accepts(FlexTuple(b=1))
        assert not record.accepts(FlexTuple(a="x"))

    def test_scheme_only_accepts_wrong_variant(self):
        # The paper's point: the scheme cannot reject the salesman-with-typing-speed tuple.
        table = Table(_without_dependencies(employee_definition()))
        assert table.insert(SALESMAN) == FlexTuple(SALESMAN)

    def test_dependency_level_rejects_wrong_variant(self):
        definition = employee_definition()
        with pytest.raises(DependencyViolation) as refused:
            Table(definition).insert(SALESMAN)
        assert refused.value.dependency == definition.dependencies[0]

    def test_domain_level(self):
        with pytest.raises(TypeCheckError, match="violates its domain"):
            Table(employee_definition()).insert(dict(SECRETARY, emp_id="not an int"))

    def test_check_raises_with_message(self):
        table = Table(employee_definition())
        assert table.insert(SECRETARY) == FlexTuple(SECRETARY)
        lacking = {"emp_id": 2, "name": "x", "salary": 1.0, "jobtype": "secretary"}
        with pytest.raises(DependencyViolation, match="exactly the attributes"):
            table.insert(lacking)

    def test_levels_can_be_disabled(self):
        definition = employee_definition()
        keyless = TableDefinition(definition.name, definition.scheme,
                                  domains=definition.domains,
                                  dependencies=definition.dependencies)
        table = Table(keyless, enforce=False)
        assert table.insert({"unknown": "attribute"}) == FlexTuple(unknown="attribute")
