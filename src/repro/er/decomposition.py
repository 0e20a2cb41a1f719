"""Decomposition of a flexible relation along an attribute dependency (Section 3.1.1).

The third and fourth classical translation methods for predicate-defined
specializations decompose the entity horizontally or vertically along the
specialization.  With attribute dependencies the decompositions become mechanical:

* **horizontal** — one fragment per variant (plus one for the tuples matching no
  variant); the qualification of a fragment is the variant's value set, and the
  original relation is restored by an *outer union* of the fragments;
* **vertical** — a master fragment with the non-variant attributes and one dependent
  fragment per variant carrying the key and the variant's attributes; the original
  relation is restored by a *multiway join* on the key.

Both functions return a :class:`DecompositionResult` that can restore the original
instance and verify losslessness; :func:`null_count` measures how many NULL cells a
flat single-table translation would need for the same data, which is the storage
comparison of experiment E8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.dependencies import ExplicitAttributeDependency
from repro.errors import DecompositionError
from repro.model.attributes import AttributeSet, attrset
from repro.model.tuples import FlexTuple


def _as_tuples(relation) -> Set[FlexTuple]:
    if hasattr(relation, "tuples"):
        tuples = relation.tuples
        tuples = tuples() if callable(tuples) else tuples
    else:
        tuples = relation
    return {t if isinstance(t, FlexTuple) else FlexTuple(t) for t in tuples}


class DecompositionResult:
    """Fragments produced by a decomposition, with their qualifications and restoration."""

    def __init__(self, method: str, fragments: Dict[str, Set[FlexTuple]],
                 qualifications: Dict[str, List[Dict[str, object]]],
                 join_attributes: Optional[AttributeSet] = None):
        self.method = method
        self.fragments = {name: set(tuples) for name, tuples in fragments.items()}
        self.qualifications = dict(qualifications)
        self.join_attributes = join_attributes

    def fragment(self, name: str) -> Set[FlexTuple]:
        try:
            return set(self.fragments[name])
        except KeyError:
            raise DecompositionError("no fragment named {!r}".format(name)) from None

    def fragment_names(self) -> List[str]:
        return sorted(self.fragments)

    def total_tuples(self) -> int:
        """Number of stored tuples summed over all fragments."""
        return sum(len(tuples) for tuples in self.fragments.values())

    def total_cells(self) -> int:
        """Number of stored (attribute, value) cells summed over all fragments."""
        return sum(len(tup) for tuples in self.fragments.values() for tup in tuples)

    # -- restoration --------------------------------------------------------------------------

    def restore(self) -> Set[FlexTuple]:
        """Rebuild the original instance (outer union or multiway join)."""
        if self.method == "horizontal":
            result: Set[FlexTuple] = set()
            for tuples in self.fragments.values():
                result |= tuples
            return result
        if self.method == "vertical":
            if self.join_attributes is None:
                raise DecompositionError("vertical decomposition lost its join attributes")
            master = self.fragments.get("master", set())
            current = set(master)
            for name in self.fragment_names():
                if name == "master":
                    continue
                fragment = self.fragments[name]
                index: Dict[tuple, List[FlexTuple]] = {}
                for tup in fragment:
                    index.setdefault(tuple(tup[a] for a in self.join_attributes), []).append(tup)
                merged = set()
                for tup in current:
                    partners = index.get(tuple(tup[a] for a in self.join_attributes), [])
                    if not partners:
                        merged.add(tup)
                        continue
                    for partner in partners:
                        merged.add(tup.merge(partner))
                current = merged
            return current
        raise DecompositionError("unknown decomposition method {!r}".format(self.method))

    def is_lossless(self, original) -> bool:
        """``True`` when restoration reproduces the original instance exactly."""
        return self.restore() == _as_tuples(original)

    def __repr__(self) -> str:
        sizes = {name: len(tuples) for name, tuples in sorted(self.fragments.items())}
        return "DecompositionResult({}, fragments={})".format(self.method, sizes)


def horizontal_decomposition(relation, dependency: ExplicitAttributeDependency) -> DecompositionResult:
    """One fragment per variant; tuples matching no variant go to the ``'rest'`` fragment."""
    tuples = _as_tuples(relation)
    fragments: Dict[str, Set[FlexTuple]] = {}
    qualifications: Dict[str, List[Dict[str, object]]] = {}
    names: Dict[int, str] = {}
    for index, variant in enumerate(dependency.variants):
        name = variant.name or "variant-{}".format(index + 1)
        names[index] = name
        fragments[name] = set()
        qualifications[name] = [value.as_dict() for value in variant.values]
    fragments["rest"] = set()
    qualifications["rest"] = []
    for tup in tuples:
        variant = dependency.variant_for(tup)
        if variant is None:
            fragments["rest"].add(tup)
            continue
        index = dependency.variants.index(variant)
        fragments[names[index]].add(tup)
    if not fragments["rest"]:
        del fragments["rest"]
        del qualifications["rest"]
    return DecompositionResult("horizontal", fragments, qualifications)


def vertical_decomposition(relation, dependency: ExplicitAttributeDependency, key) -> DecompositionResult:
    """Master fragment without the variant attributes; one dependent fragment per variant."""
    key = attrset(key)
    if not key:
        raise DecompositionError("vertical decomposition needs a key to join on")
    if not key.isdisjoint(dependency.rhs):
        raise DecompositionError("the key must not contain variant attributes")
    tuples = _as_tuples(relation)
    for tup in tuples:
        if not tup.is_defined_on(key):
            raise DecompositionError(
                "tuple {!r} lacks the key {} required for vertical decomposition".format(tup, key)
            )
    fragments: Dict[str, Set[FlexTuple]] = {"master": set()}
    qualifications: Dict[str, List[Dict[str, object]]] = {"master": []}
    for index, variant in enumerate(dependency.variants):
        name = variant.name or "variant-{}".format(index + 1)
        fragments[name] = set()
        qualifications[name] = [value.as_dict() for value in variant.values]
    for tup in tuples:
        master_part = tup.project_existing(tup.attributes - dependency.rhs)
        fragments["master"].add(master_part)
        variant = dependency.variant_for(tup)
        if variant is None:
            continue
        name = variant.name or "variant-{}".format(dependency.variants.index(variant) + 1)
        dependent_part = tup.project_existing(key | (tup.attributes & variant.attributes))
        fragments[name].add(dependent_part)
    return DecompositionResult("vertical", fragments, qualifications, join_attributes=key)


def null_count(relation, full_attributes) -> int:
    """NULL cells a flat, homogeneous table over ``full_attributes`` would store.

    Each tuple of the flexible relation occupies one row of the flat table; every
    attribute the tuple does not possess becomes a NULL.  (The artificial variant-tag
    attribute such a table additionally needs is counted by the baseline itself.)
    """
    full_attributes = attrset(full_attributes)
    tuples = _as_tuples(relation)
    return sum(len(full_attributes - tup.attributes) for tup in tuples)
