"""Discovery of attribute and functional dependencies from instances.

The paper assumes dependencies are declared by the designer.  As a practical
extension (useful for migrating existing heterogeneous data into the model, and for
the property tests that need "the dependencies that actually hold" in generated
instances), this module mines them:

* :func:`discover_ads` — for every candidate determinant ``X`` (bounded size), the
  maximal ``Y`` with ``X --attr--> Y`` holding in the instance;
* :func:`discover_fds` — likewise for functional dependencies (Definition 4.2);
* :func:`discover_explicit_ad` — reconstruct the explicit variant structure
  ``V_i → Y_i`` for a given determinant, which is how an EAD can be reverse
  engineered from legacy data.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Set

from repro.core.dependencies import (
    AttributeDependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
    Variant,
)
from repro.errors import DependencyError
from repro.model.attributes import AttributeSet, attrset
from repro.model.tuples import FlexTuple, tuples_of


def _instance_attributes(tuples: Iterable[FlexTuple]) -> AttributeSet:
    universe = AttributeSet()
    for tup in tuples:
        universe = universe | tup.attributes
    return universe


def maximal_ad_rhs(tuples: List[FlexTuple], lhs: AttributeSet, candidates: AttributeSet) -> AttributeSet:
    """The largest ``Y ⊆ candidates`` with ``lhs --attr--> Y`` holding in the instance."""
    groups: Dict[tuple, List[FlexTuple]] = defaultdict(list)
    for tup in tuples:
        if tup.is_defined_on(lhs):
            groups[tuple(tup[a] for a in lhs)].append(tup)
    stable = set(candidates.as_frozenset())
    for bucket in groups.values():
        if len(bucket) < 2:
            continue
        reference = bucket[0].attributes
        for tup in bucket[1:]:
            for attribute in list(stable):
                in_reference = attribute in reference
                in_current = attribute in tup.attributes
                if in_reference != in_current:
                    stable.discard(attribute)
        if not stable:
            break
    return AttributeSet(stable)


def maximal_fd_rhs(tuples: List[FlexTuple], lhs: AttributeSet, candidates: AttributeSet) -> AttributeSet:
    """The largest ``Y ⊆ candidates`` with ``lhs --func--> Y`` holding in the instance."""
    groups: Dict[tuple, List[FlexTuple]] = defaultdict(list)
    for tup in tuples:
        if tup.is_defined_on(lhs):
            groups[tuple(tup[a] for a in lhs)].append(tup)
    stable = set(candidates.as_frozenset())
    for bucket in groups.values():
        if len(bucket) < 2:
            continue
        reference = bucket[0]
        for tup in bucket[1:]:
            for attribute in list(stable):
                if attribute not in reference or attribute not in tup \
                        or reference[attribute] != tup[attribute]:
                    stable.discard(attribute)
        if not stable:
            break
    return AttributeSet(stable)


def discover_ads(
    relation,
    max_lhs: int = 2,
    include_trivial: bool = False,
    universe=None,
) -> Set[AttributeDependency]:
    """Mine the attribute dependencies holding in an instance.

    For every determinant ``X`` of size at most ``max_lhs`` the maximal right-hand
    side is reported (smaller right-hand sides follow by projectivity and are
    omitted).  Trivial dependencies (``Y ⊆ X``) are excluded unless requested.
    """
    tuples = list(tuples_of(relation))
    universe = _instance_attributes(tuples) if universe is None else attrset(universe)
    found: Set[AttributeDependency] = set()
    attributes = list(universe)
    for size in range(1, max_lhs + 1):
        for combo in combinations(attributes, size):
            lhs = AttributeSet(combo)
            rhs = maximal_ad_rhs(tuples, lhs, universe - lhs)
            if include_trivial:
                rhs = rhs | lhs
            if rhs:
                found.add(AttributeDependency(lhs, rhs))
    return found


def discover_fds(
    relation,
    max_lhs: int = 2,
    universe=None,
) -> Set[FunctionalDependency]:
    """Mine the functional dependencies (Definition 4.2) holding in an instance."""
    tuples = list(tuples_of(relation))
    universe = _instance_attributes(tuples) if universe is None else attrset(universe)
    found: Set[FunctionalDependency] = set()
    attributes = list(universe)
    for size in range(1, max_lhs + 1):
        for combo in combinations(attributes, size):
            lhs = AttributeSet(combo)
            rhs = maximal_fd_rhs(tuples, lhs, universe - lhs)
            if rhs:
                found.add(FunctionalDependency(lhs, rhs))
    return found


def discover_explicit_ad(
    relation,
    lhs,
    rhs=None,
) -> ExplicitAttributeDependency:
    """Reconstruct the explicit variant structure for a given determinant.

    Groups the instance by ``t[lhs]``; every group must exhibit a single subset of
    ``rhs`` (otherwise no AD with this determinant holds and
    :class:`~repro.errors.DependencyError` is raised).  Groups exhibiting the empty
    subset need no variant — Definition 2.1 already maps unmatched values to ∅.
    """
    tuples = list(tuples_of(relation))
    lhs = attrset(lhs)
    universe = _instance_attributes(tuples)
    rhs = (universe - lhs) if rhs is None else attrset(rhs)

    groups: Dict[FlexTuple, Set] = {}
    for tup in tuples:
        if not tup.is_defined_on(lhs):
            continue
        key = tup.project(lhs)
        present = tup.attributes & rhs
        if key in groups and groups[key] != present:
            raise DependencyError(
                "no explicit AD with determinant {}: value {!r} exhibits both {} and {}".format(
                    lhs, key, groups[key], present
                )
            )
        groups[key] = present

    by_subset: Dict[AttributeSet, List[FlexTuple]] = defaultdict(list)
    for key, present in groups.items():
        if present:
            by_subset[present].append(key)
    variants = [Variant(values, attributes) for attributes, values in by_subset.items()]
    if not variants:
        raise DependencyError(
            "the instance exhibits no variant for determinant {}; an explicit AD needs "
            "at least one variant".format(lhs)
        )
    return ExplicitAttributeDependency(lhs, rhs, variants)
