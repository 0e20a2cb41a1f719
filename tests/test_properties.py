"""Property-based tests (hypothesis) on the core data structures and invariants.

The central properties:

* soundness of the axiom systems — anything syntactically derivable holds in every
  (randomly generated) satisfying relation;
* agreement of syntactic and semantic implication (the completeness direction via
  the appendix construction);
* consistency of the lazy scheme-membership test with the materialized DNF;
* Theorem 4.3 propagation rules hold empirically on random instances;
* decompositions along an AD are lossless;
* closure monotonicity and idempotence.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.closure import attribute_closure, functional_closure, implies
from repro.core.dependencies import AttributeDependency, FunctionalDependency
from repro.core.implication import random_satisfying_relation, semantically_implies
from repro.core.inference import discover_explicit_ad
from repro.core.propagation import propagate_projection, propagate_selection, propagate_tagged_union
from repro.er.decomposition import horizontal_decomposition, vertical_decomposition
from repro.model.attributes import AttributeSet, attrset
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.workloads.generators import instance_for_dependency, random_explicit_ad

#: a small fixed universe keeps the search space meaningful but tractable
UNIVERSE = ["A", "B", "C", "D"]

def subset_strategy(universe=UNIVERSE, min_size=0):
    return st.sets(st.sampled_from(universe), min_size=min_size, max_size=len(universe))


def ad_strategy():
    return st.builds(
        AttributeDependency,
        subset_strategy(min_size=1),
        subset_strategy(),
    )


def fd_strategy():
    return st.builds(
        FunctionalDependency,
        subset_strategy(min_size=1),
        subset_strategy(),
    )


def dependency_set_strategy():
    return st.lists(st.one_of(ad_strategy(), fd_strategy()), min_size=0, max_size=4)


class TestAxiomSoundness:
    @given(deps=dependency_set_strategy(), lhs=subset_strategy(min_size=1), seed=st.integers(0, 1000))
    def test_derivable_ads_hold_in_random_models(self, deps, lhs, seed):
        closure = attribute_closure(lhs, deps, combined=True)
        candidate = AttributeDependency(lhs, closure)
        assert implies(deps, candidate)
        relation = random_satisfying_relation(deps, universe=UNIVERSE, size=12,
                                              rng=random.Random(seed))
        assert candidate.holds_in(relation)

    @given(deps=dependency_set_strategy(), lhs=subset_strategy(min_size=1), seed=st.integers(0, 1000))
    def test_derivable_fds_hold_in_random_models(self, deps, lhs, seed):
        closure = functional_closure(lhs, deps)
        candidate = FunctionalDependency(lhs, closure)
        relation = random_satisfying_relation(deps, universe=UNIVERSE, size=12,
                                              rng=random.Random(seed))
        assert candidate.holds_in(relation)

    @given(deps=dependency_set_strategy(), candidate=ad_strategy())
    def test_syntactic_and_semantic_implication_agree(self, deps, candidate):
        assert implies(deps, candidate) == semantically_implies(deps, candidate)

    @given(deps=dependency_set_strategy(), lhs=subset_strategy(min_size=1))
    def test_subsumption_functional_closure_inside_attribute_closure(self, deps, lhs):
        assert functional_closure(lhs, deps).issubset(attribute_closure(lhs, deps))

    @given(deps=dependency_set_strategy(), lhs=subset_strategy(min_size=1),
           extra=subset_strategy())
    def test_closure_monotone_in_lhs(self, deps, lhs, extra):
        small = attribute_closure(lhs, deps)
        large = attribute_closure(attrset(lhs) | attrset(extra), deps)
        # Monotonicity holds for the *functional* part; for the AD part it holds
        # because every dependency applicable under lhs stays applicable under lhs ∪ extra.
        assert small.issubset(large | attrset(lhs))

    @given(deps=dependency_set_strategy(), lhs=subset_strategy(min_size=1))
    def test_reflexivity_lhs_always_in_closure(self, deps, lhs):
        assert attrset(lhs).issubset(attribute_closure(lhs, deps))
        assert attrset(lhs).issubset(functional_closure(lhs, deps))


class TestSchemeProperties:
    @given(
        base=st.integers(min_value=1, max_value=3),
        groups=st.integers(min_value=1, max_value=2),
        per_group=st.integers(min_value=2, max_value=3),
        seed=st.integers(0, 100),
    )
    def test_dnf_and_admits_agree(self, base, groups, per_group, seed):
        from repro.workloads.generators import random_flexible_scheme

        scheme = random_flexible_scheme(base_attributes=base, variant_groups=groups,
                                        attributes_per_group=per_group, seed=seed)
        combos = scheme.dnf()
        for combo in combos:
            assert scheme.admits(combo)
        assert scheme.count_variants() == len(combos)

    @given(
        seed=st.integers(0, 100),
        drop=st.integers(min_value=0, max_value=3),
    )
    def test_admits_rejects_mutilated_combinations(self, seed, drop):
        from repro.workloads.generators import random_flexible_scheme

        scheme = random_flexible_scheme(seed=seed)
        combos = sorted(scheme.dnf(), key=lambda c: c.names)
        combo = combos[seed % len(combos)]
        names = list(combo.names)
        removed = names[: min(drop, len(names))]
        mutilated = attrset([n for n in names if n not in removed])
        assert scheme.admits(mutilated) == (mutilated in combos)


class TestDependencyProperties:
    @given(variant_count=st.integers(2, 4), per_variant=st.integers(1, 3),
           seed=st.integers(0, 100), count=st.integers(5, 40))
    def test_generated_instances_satisfy_their_ead(self, variant_count, per_variant, seed, count):
        dependency = random_explicit_ad(variant_count=variant_count,
                                        attributes_per_variant=per_variant, seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        assert dependency.holds_in(tuples)
        assert dependency.to_ad().holds_in(tuples)

    @given(variant_count=st.integers(2, 4), seed=st.integers(0, 100), count=st.integers(10, 40))
    def test_discovery_roundtrip(self, variant_count, seed, count):
        dependency = random_explicit_ad(variant_count=variant_count, seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        reconstructed = discover_explicit_ad(tuples, dependency.lhs, dependency.rhs)
        assert reconstructed.holds_in(tuples)
        # every reconstructed variant is one of the declared variants
        declared = {frozenset(v.attributes.names) for v in dependency.variants}
        assert {frozenset(v.attributes.names) for v in reconstructed.variants} <= declared

    @given(variant_count=st.integers(2, 3), seed=st.integers(0, 50), count=st.integers(10, 30),
           keep=st.sets(st.integers(0, 5), min_size=1, max_size=4))
    def test_projection_propagation_holds_empirically(self, variant_count, seed, count, keep):
        dependency = random_explicit_ad(variant_count=variant_count, seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        all_attributes = sorted({a.name for t in tuples for a in t.attributes})
        kept = attrset([all_attributes[i % len(all_attributes)] for i in keep])
        projected = [t.project_existing(kept) for t in tuples]
        for propagated in propagate_projection([dependency.to_ad()], kept):
            assert propagated.holds_in(projected)

    @given(seed=st.integers(0, 50), count=st.integers(5, 30))
    def test_tagged_union_propagation_holds_empirically(self, seed, count):
        dependency = random_explicit_ad(seed=seed)
        left = instance_for_dependency(dependency, count=count, seed=seed)
        right = instance_for_dependency(dependency, count=count, seed=seed + 1)
        union = [t.extend(tag="l") for t in left] + [t.extend(tag="r") for t in right]
        for propagated in propagate_tagged_union([dependency.to_ad()], [dependency.to_ad()], "tag"):
            assert propagated.holds_in(union)

    @given(seed=st.integers(0, 50), count=st.integers(5, 30), threshold=st.integers(0, 1000))
    def test_selection_propagation_holds_empirically(self, seed, count, threshold):
        dependency = random_explicit_ad(seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        selected = [t for t in tuples if t["id"] <= threshold]
        for propagated in propagate_selection([dependency.to_ad()]):
            assert propagated.holds_in(selected)


class TestDecompositionProperties:
    @given(variant_count=st.integers(2, 4), seed=st.integers(0, 100), count=st.integers(5, 50))
    def test_horizontal_decomposition_is_lossless(self, variant_count, seed, count):
        dependency = random_explicit_ad(variant_count=variant_count, seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        decomposition = horizontal_decomposition(tuples, dependency)
        assert decomposition.is_lossless(tuples)

    @given(variant_count=st.integers(2, 4), seed=st.integers(0, 100), count=st.integers(5, 50))
    def test_vertical_decomposition_is_lossless(self, variant_count, seed, count):
        dependency = random_explicit_ad(variant_count=variant_count, seed=seed)
        tuples = instance_for_dependency(dependency, count=count, seed=seed)
        decomposition = vertical_decomposition(tuples, dependency, key=["id"])
        assert decomposition.is_lossless(tuples)


class TestSerializationProperties:
    @given(
        base=st.integers(min_value=1, max_value=3),
        groups=st.integers(min_value=1, max_value=2),
        seed=st.integers(0, 100),
    )
    def test_scheme_round_trip(self, base, groups, seed):
        from repro.engine.serialization import scheme_from_dict, scheme_to_dict
        from repro.workloads.generators import random_flexible_scheme

        scheme = random_flexible_scheme(base_attributes=base, variant_groups=groups, seed=seed)
        restored = scheme_from_dict(scheme_to_dict(scheme))
        assert restored == scheme
        assert restored.dnf() == scheme.dnf()

    @given(variant_count=st.integers(2, 4), per_variant=st.integers(1, 3),
           shared=st.integers(0, 1), seed=st.integers(0, 100))
    def test_explicit_ad_round_trip(self, variant_count, per_variant, shared, seed):
        from repro.engine.serialization import dependency_from_dict, dependency_to_dict

        dependency = random_explicit_ad(variant_count=variant_count,
                                        attributes_per_variant=per_variant,
                                        shared_attributes=shared, seed=seed)
        restored = dependency_from_dict(dependency_to_dict(dependency))
        assert restored == dependency
        tuples = instance_for_dependency(dependency, count=15, seed=seed)
        assert restored.holds_in(tuples)


class TestTupleProperties:
    @given(values=st.dictionaries(st.sampled_from(UNIVERSE), st.integers(0, 5),
                                  min_size=1, max_size=4),
           keep=subset_strategy())
    def test_projection_is_idempotent(self, values, keep):
        tup = FlexTuple(values)
        once = tup.project_existing(keep)
        twice = once.project_existing(keep)
        assert once == twice
        assert once.attributes == (tup.attributes & attrset(keep))

    @given(left=st.dictionaries(st.sampled_from(["A", "B"]), st.integers(0, 3), min_size=0),
           right=st.dictionaries(st.sampled_from(["C", "D"]), st.integers(0, 3), min_size=0))
    def test_merge_of_disjoint_tuples_is_union(self, left, right):
        merged = FlexTuple(left).merge(FlexTuple(right))
        assert merged.attributes == attrset(list(left) + list(right))
