"""Tests for the three dependency classes (Definitions 2.1, 4.1 and 4.2)."""

import pytest

from repro.core.dependencies import (
    AttributeDependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
    ad,
    ead,
    fd,
)
from repro.errors import DependencyError
from repro.model.attributes import attrset
from repro.model.domains import EnumDomain
from repro.model.tuples import FlexTuple


class TestAttributeDependency:
    def test_satisfied_when_agreeing_tuples_share_rhs_subset(self):
        instance = [FlexTuple(X=1, Y=1), FlexTuple(X=1, Y=2, Z=None)]
        # both tuples defined on X with the same value, both possess Y, neither... Z differs
        assert not ad("X", ["Y", "Z"]).holds_in(instance)
        assert ad("X", ["Y"]).holds_in(instance)

    def test_tuples_not_defined_on_lhs_are_ignored(self):
        instance = [FlexTuple(Y=1), FlexTuple(X=1, Y=1)]
        assert ad("X", "Y").holds_in(instance)

    def test_values_of_rhs_do_not_matter(self):
        instance = [FlexTuple(X=1, Y="a"), FlexTuple(X=1, Y="b")]
        assert ad("X", "Y").holds_in(instance)
        assert not fd("X", "Y").holds_in(instance)

    def test_violation_witnesses_are_pairs(self):
        t1, t2 = FlexTuple(X=1, Y=1), FlexTuple(X=1)
        witnesses = ad("X", "Y").violations([t1, t2])
        assert len(witnesses) == 1 and set(witnesses[0]) == {t1, t2}

    def test_trivial_dependency(self):
        assert ad(["X", "Y"], ["X"]).is_trivial
        assert not ad(["X"], ["Y"]).is_trivial

    def test_project_rhs_rule_a1(self):
        dependency = ad("X", ["Y", "Z"]).project_rhs(["Y"])
        assert dependency == ad("X", "Y")

    def test_augment_lhs_rule_a4(self):
        dependency = ad("X", "Y").augment_lhs(["W"])
        assert dependency == ad(["X", "W"], "Y")

    def test_equality_and_hash(self):
        assert ad("X", "Y") == ad("X", "Y")
        assert len({ad("X", "Y"), ad("X", "Y")}) == 1
        assert ad("X", "Y") != ad("X", "Z")

    def test_ad_is_not_equal_to_fd(self):
        assert ad("X", "Y") != fd("X", "Y")
        assert len({ad("X", "Y"), fd("X", "Y")}) == 2

    def test_holds_in_relation_object(self, employee_table, jobtype_ead):
        assert jobtype_ead.to_ad().holds_in(employee_table)

    def test_repr_mentions_kind(self):
        assert "attr" in repr(ad("X", "Y"))


class TestFunctionalDependency:
    def test_requires_rhs_presence_in_both_tuples(self):
        instance = [FlexTuple(X=1, Y=1), FlexTuple(X=1)]
        assert not fd("X", "Y").holds_in(instance)

    def test_requires_equal_values(self):
        instance = [FlexTuple(X=1, Y=1), FlexTuple(X=1, Y=2)]
        assert not fd("X", "Y").holds_in(instance)

    def test_satisfied_fd(self):
        instance = [FlexTuple(X=1, Y=1), FlexTuple(X=1, Y=1, Z=5), FlexTuple(X=2, Y=9)]
        assert fd("X", "Y").holds_in(instance)

    def test_guarded_access_ignores_tuples_without_lhs(self):
        instance = [FlexTuple(Y=1), FlexTuple(X=1, Y=2)]
        assert fd("X", "Y").holds_in(instance)

    def test_subsumption_to_ad(self):
        assert fd("X", "Y").to_ad() == ad("X", "Y")

    def test_fd_implies_its_ad_semantically(self):
        instance = [FlexTuple(X=1, Y=1), FlexTuple(X=1, Y=1)]
        dependency = fd("X", "Y")
        assert dependency.holds_in(instance)
        assert dependency.to_ad().holds_in(instance)

    def test_trivial_fd(self):
        assert fd(["X", "Y"], ["Y"]).is_trivial


class TestVariant:
    def test_single_mapping_becomes_singleton(self):
        variant = Variant({"jobtype": "secretary"}, ["typing_speed"])
        assert len(variant.values) == 1

    def test_matches(self):
        variant = Variant([{"k": 1}, {"k": 2}], ["a"])
        assert variant.matches(FlexTuple(k=1)) and variant.matches(FlexTuple(k=2))
        assert not variant.matches(FlexTuple(k=3))

    def test_needs_at_least_one_value(self):
        with pytest.raises(DependencyError):
            Variant([], ["a"])

    def test_equality(self):
        assert Variant({"k": 1}, ["a"]) == Variant([{"k": 1}], ["a"])


class TestExplicitAttributeDependency:
    def test_jobtype_example(self, jobtype_ead):
        secretary = FlexTuple(jobtype="secretary", typing_speed=90, foreign_languages="fr",
                              emp_id=1, name="x", salary=1.0)
        assert jobtype_ead.check_tuple(secretary)

    def test_rejects_wrong_variant_attributes(self, jobtype_ead):
        bad = FlexTuple(jobtype="salesman", typing_speed=90, foreign_languages="fr")
        assert not jobtype_ead.check_tuple(bad)

    def test_rejects_missing_variant_attributes(self, jobtype_ead):
        bad = FlexTuple(jobtype="secretary", typing_speed=90)
        assert not jobtype_ead.check_tuple(bad)

    def test_rejects_extra_variant_attributes(self, jobtype_ead):
        bad = FlexTuple(jobtype="secretary", typing_speed=90, foreign_languages="fr",
                        sales_commission=0.5)
        assert not jobtype_ead.check_tuple(bad)

    def test_unmatched_value_requires_no_rhs_attributes(self):
        dependency = ead(["k"], ["a", "b"], [({"k": 1}, ["a"])])
        assert dependency.check_tuple(FlexTuple(k=2))
        assert not dependency.check_tuple(FlexTuple(k=2, a=1))

    def test_tuple_without_determinant_requires_no_rhs_attributes(self, jobtype_ead):
        assert jobtype_ead.check_tuple(FlexTuple(name="x", salary=1.0))
        assert not jobtype_ead.check_tuple(FlexTuple(name="x", typing_speed=90))

    def test_variant_for(self, jobtype_ead):
        tup = FlexTuple(jobtype="salesman", products="db", sales_commission=0.1)
        assert jobtype_ead.variant_for(tup).name == "salesman"
        assert jobtype_ead.variant_for(FlexTuple(name="x")) is None

    def test_holds_in_instance(self, jobtype_ead):
        good = [FlexTuple(jobtype="secretary", typing_speed=1, foreign_languages="fr")]
        bad = good + [FlexTuple(jobtype="secretary", products="db")]
        assert jobtype_ead.holds_in(good)
        assert not jobtype_ead.holds_in(bad)
        assert len(jobtype_ead.violations(bad)) == 1

    def test_to_ad(self, jobtype_ead):
        abbreviated = jobtype_ead.to_ad()
        assert abbreviated.lhs == attrset(["jobtype"])
        assert "typing_speed" in abbreviated.rhs

    def test_overlapping_variants_not_disjoint(self, jobtype_ead):
        # 'products' is shared by software engineer and salesman.
        assert not jobtype_ead.is_disjoint()

    def test_disjoint_classification(self):
        dependency = ead(["k"], ["a", "b"], [({"k": 1}, ["a"]), ({"k": 2}, ["b"])])
        assert dependency.is_disjoint()

    def test_totality(self, jobtype_ead):
        domains = {"jobtype": EnumDomain(["secretary", "software engineer", "salesman"])}
        assert jobtype_ead.is_total(domains)
        domains_with_extra = {"jobtype": EnumDomain(["secretary", "software engineer",
                                                     "salesman", "pilot"])}
        assert not jobtype_ead.is_total(domains_with_extra)

    def test_totality_needs_domains(self, jobtype_ead):
        with pytest.raises(DependencyError):
            jobtype_ead.is_total({})

    def test_project_rhs_example4(self, jobtype_ead):
        projected = jobtype_ead.project_rhs(["typing_speed"])
        assert projected.rhs == attrset(["typing_speed"])
        by_name = {v.name: v for v in projected.variants}
        assert by_name["secretary"].attributes == attrset(["typing_speed"])
        assert by_name["salesman"].attributes == attrset([])

    def test_combine_additivity(self):
        first = ead(["k"], ["a"], [({"k": 1}, ["a"]), ({"k": 2}, ["a"])])
        second = ead(["k"], ["b"], [({"k": 1}, ["b"])])
        combined = first.combine(second)
        assert combined.rhs == attrset(["a", "b"])
        assert combined.required_attributes(FlexTuple(k=1)) == attrset(["a", "b"])

    def test_combine_requires_same_lhs(self):
        first = ead(["k"], ["a"], [({"k": 1}, ["a"])])
        second = ead(["j"], ["b"], [({"j": 1}, ["b"])])
        with pytest.raises(DependencyError):
            first.combine(second)

    def test_structural_validation_yi_subset(self):
        with pytest.raises(DependencyError):
            ead(["k"], ["a"], [({"k": 1}, ["not_in_rhs"])])

    def test_structural_validation_disjoint_values(self):
        with pytest.raises(DependencyError):
            ead(["k"], ["a", "b"], [({"k": 1}, ["a"]), ({"k": 1}, ["b"])])

    def test_structural_validation_value_shape(self):
        with pytest.raises(DependencyError):
            ead(["k"], ["a"], [({"wrong": 1}, ["a"])])

    def test_needs_variants(self):
        with pytest.raises(DependencyError):
            ead(["k"], ["a"], [])

    def test_multi_attribute_determinant(self, maiden_name_ead):
        married = FlexTuple(sex="f", marital_status="married", maiden_name="smith")
        single = FlexTuple(sex="f", marital_status="single")
        male = FlexTuple(sex="m", marital_status="married")
        assert maiden_name_ead.check_tuple(married)
        assert maiden_name_ead.check_tuple(single)
        assert maiden_name_ead.check_tuple(male)
        assert not maiden_name_ead.check_tuple(FlexTuple(sex="m", marital_status="married",
                                                         maiden_name="x"))

    def test_equality_and_hash(self):
        first = ead(["k"], ["a"], [({"k": 1}, ["a"])])
        second = ead(["k"], ["a"], [({"k": 1}, ["a"])])
        assert first == second and len({first, second}) == 1


def _pairwise_violations(dependency, instance):
    """The definition, pair by pair: every (earlier, later) tuple pair of a
    determinant bucket that breaks the dependency."""
    pairs = []
    for later, tup in enumerate(instance):
        for other in instance[:later]:
            if not (tup.is_defined_on(dependency.lhs) and other.is_defined_on(dependency.lhs)):
                continue
            if any(tup[a] != other[a] for a in dependency.lhs):
                continue
            if isinstance(dependency, FunctionalDependency):
                broken = not dependency._pair_ok(other, tup)
            else:
                broken = (other.attributes & dependency.rhs) != (tup.attributes & dependency.rhs)
            if broken:
                pairs.append((other, tup))
    return pairs


@pytest.mark.parametrize("seed", range(30))
def test_violations_agree_with_the_pairwise_definition(seed):
    """One witness per class stands for the bucket: the first witness is the
    definition's, every witness is a violating pair, and every tuple that
    violates the dependency appears as the later tuple of one."""
    import random

    rng = random.Random(seed)
    instance = []
    for _ in range(rng.randrange(1, 25)):
        values = {name: rng.randrange(3) for name in "XYZ" if rng.random() < 0.8}
        if values:
            instance.append(FlexTuple(values))
    for dependency in (ad("X", ["Y", "Z"]), ad(["X", "Y"], "Z"), fd("X", "Y"),
                       fd("X", ["Y", "Z"])):
        expected = _pairwise_violations(dependency, instance)
        witnesses = dependency.violations(instance)
        assert dependency.violations(instance, first_only=True) == expected[:1]
        assert set(witnesses) <= set(expected)
        assert {tup for _, tup in witnesses} == {tup for _, tup in expected}
