"""Propagation of attribute dependencies through algebraic operators (Theorem 4.3).

Given the set ``ads(FR)`` of attribute dependencies holding in a flexible relation,
the theorem describes which dependencies hold in the result of the standard
operators:

1. ``ads(FR1 × FR2) = ads(FR1) ∪ ads(FR2)``
2. ``ads(π_X(FR)) = { V --attr--> W∩X | V --attr--> W ∈ ads(FR), V ⊆ X }``
3. ``ads(σ_F(FR)) = ads(FR)``
4. ``ads(FR1 ∪ FR2) = ∅``
5. ``ads(FR1 − FR2) = ads(FR1)``
6. ``ads(ε_{A:a1}(FR1) ∪ ε_{A:a2}(FR2)) = { AX --attr--> Y | X --attr--> Y ∈
   ads(FR1) ∪ ads(FR2) }`` — the *tagged* union that restores dependency
   information by extending both inputs with a tag attribute before the union.

The functions below implement the right-hand sides; the algebra evaluator
(:mod:`repro.algebra`) and the optimizer consult them to know which dependencies are
available at every node of an expression tree, and experiment E6 verifies the rules
against instances.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.dependencies import AttributeDependency, Dependency, ExplicitAttributeDependency
from repro.model.attributes import attrset


def as_ads(dependencies: Iterable[Dependency]) -> Set[AttributeDependency]:
    """Normalize a dependency collection to abbreviated attribute dependencies."""
    result: Set[AttributeDependency] = set()
    for dependency in dependencies:
        if isinstance(dependency, ExplicitAttributeDependency):
            result.add(dependency.to_ad())
        elif isinstance(dependency, AttributeDependency):
            result.add(dependency)
        else:
            # Functional dependencies also imply their AD form (subsumption), so they
            # survive propagation in that weakened shape.
            result.add(AttributeDependency(dependency.lhs, dependency.rhs))
    return result


def propagate_product(ads_left: Iterable[Dependency], ads_right: Iterable[Dependency]) -> Set[AttributeDependency]:
    """Rule (1): the product keeps the dependencies of both inputs."""
    return as_ads(ads_left) | as_ads(ads_right)


def propagate_projection(ads: Iterable[Dependency], attributes) -> Set[AttributeDependency]:
    """Rule (2): only dependencies whose left side survives the projection remain,
    with their right side intersected with the projection attributes."""
    attributes = attrset(attributes)
    result: Set[AttributeDependency] = set()
    for dependency in as_ads(ads):
        if dependency.lhs.issubset(attributes):
            result.add(AttributeDependency(dependency.lhs, dependency.rhs & attributes))
    return result


def propagate_selection(ads: Iterable[Dependency]) -> Set[AttributeDependency]:
    """Rule (3): selections preserve every dependency."""
    return as_ads(ads)


def propagate_union(ads_left: Iterable[Dependency], ads_right: Iterable[Dependency]) -> Set[AttributeDependency]:
    """Rule (4): an untagged union preserves no dependency at all."""
    return set()


def propagate_difference(ads_left: Iterable[Dependency], ads_right: Iterable[Dependency]) -> Set[AttributeDependency]:
    """Rule (5): the difference keeps the dependencies of its left input."""
    return as_ads(ads_left)


def propagate_extension(ads: Iterable[Dependency], new_attributes) -> Set[AttributeDependency]:
    """The extension operator enlarges every tuple, so existing dependencies survive.

    (The paper groups ε with the operators that "enlarge" the input, Section 4.3.)
    """
    del new_attributes  # the added attributes do not invalidate anything
    return as_ads(ads)


def propagate_tagged_union(
    ads_left: Iterable[Dependency],
    ads_right: Iterable[Dependency],
    tag_attribute,
) -> Set[AttributeDependency]:
    """Rule (6): tag both inputs with ``tag_attribute`` before the union.

    Every dependency of either input survives with the tag attribute added to its
    left side (justified by left augmentation on the extended inputs).
    """
    tag = attrset(tag_attribute)
    result: Set[AttributeDependency] = set()
    for dependency in as_ads(ads_left) | as_ads(ads_right):
        result.add(AttributeDependency(dependency.lhs | tag, dependency.rhs))
    return result
