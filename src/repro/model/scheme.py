"""Flexible schemes — the generic scheme constructor of the paper.

A flexible scheme is a three-tuple ``<at-least, at-most, components>`` where every
component is either a single attribute or, recursively, another flexible scheme
(Section 2.1).  The cardinality bounds say how many of the components have at least
to be taken and how many are allowed at most.  The standard constructs are:

* a traditional relational scheme over ``A1..An`` — ``<n, n, {A1..An}>``,
* a disjoint union (exactly one variant) — ``<1, 1, {A1..An}>``,
* a non-disjoint union (at least one, possibly all) — ``<1, n, {A1..An}>``,
* optional attributes — ``<0, 1, {A}>`` nested inside an enclosing scheme.

The *disjunctive normal form* ``dnf(FS)`` unfolds the scheme into the set of allowed
attribute combinations; ``dom(FS)`` is the union of ``Tup(X)`` over those
combinations.  Unfolding can be exponential in the number of optional components,
which is why :meth:`FlexibleScheme.admits` decides membership of an attribute set in
``dnf(FS)`` *without* materializing the DNF (the lazy path ablated in experiment E1).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple, Union

from repro.errors import SchemeError
from repro.model.attributes import Attribute, AttributeSet, attrset

#: a component of a flexible scheme: a single attribute or a nested scheme
SchemeComponent = Union[Attribute, "FlexibleScheme"]


class FlexibleScheme:
    """The generic scheme constructor ``<at_least, at_most, {components}>``.

    ``components`` may contain attribute names (strings), :class:`Attribute` objects
    or nested :class:`FlexibleScheme` instances.  The attribute sets of distinct
    components must be disjoint — an attribute may occur only once in a scheme.
    """

    __slots__ = ("_at_least", "_at_most", "_components", "_attributes")

    def __init__(self, at_least: int, at_most: int, components: Iterable):
        components = tuple(_normalize_component(c) for c in components)
        if not components:
            raise SchemeError("a flexible scheme needs at least one component")
        if not (isinstance(at_least, int) and isinstance(at_most, int)):
            raise SchemeError("cardinality bounds must be integers")
        if at_least < 0:
            raise SchemeError("at-least bound must be non-negative")
        if at_most < at_least:
            raise SchemeError(
                "at-most bound ({}) must not be smaller than at-least bound ({})".format(
                    at_most, at_least
                )
            )
        if at_most > len(components):
            raise SchemeError(
                "at-most bound ({}) exceeds the number of components ({})".format(
                    at_most, len(components)
                )
            )
        seen = AttributeSet()
        for component in components:
            component_attrs = _component_attributes(component)
            if not seen.isdisjoint(component_attrs):
                raise SchemeError(
                    "attribute(s) {} occur in more than one component".format(
                        seen & component_attrs
                    )
                )
            seen = seen | component_attrs
        self._at_least = at_least
        self._at_most = at_most
        self._components = components
        self._attributes = seen

    # -- construction helpers ----------------------------------------------------------

    @classmethod
    def relational(cls, attributes: Iterable) -> "FlexibleScheme":
        """``<n, n, {A1..An}>`` — the homogeneous relational scheme."""
        attributes = list(attrset(attributes))
        return cls(len(attributes), len(attributes), attributes)

    @classmethod
    def disjoint_union(cls, components: Iterable) -> "FlexibleScheme":
        """``<1, 1, {...}>`` — exactly one of the components."""
        return cls(1, 1, list(components))

    @classmethod
    def non_disjoint_union(cls, components: Iterable) -> "FlexibleScheme":
        """``<1, n, {...}>`` — at least one, possibly all components."""
        components = list(components)
        return cls(1, len(components), components)

    @classmethod
    def optional(cls, components: Iterable) -> "FlexibleScheme":
        """``<0, n, {...}>`` — any number of the components, including none."""
        components = list(components)
        return cls(0, len(components), components)

    # -- basic accessors ------------------------------------------------------------------

    @property
    def at_least(self) -> int:
        """Lower cardinality bound."""
        return self._at_least

    @property
    def at_most(self) -> int:
        """Upper cardinality bound."""
        return self._at_most

    @property
    def components(self) -> Tuple[SchemeComponent, ...]:
        """The components in declaration order."""
        return self._components

    @property
    def attributes(self) -> AttributeSet:
        """``attr(FS)`` — every attribute mentioned anywhere in the scheme."""
        return self._attributes

    @property
    def is_relational(self) -> bool:
        """``True`` for a flat ``<n, n, {attributes}>`` scheme (no variants)."""
        return (
            self._at_least == self._at_most == len(self._components)
            and all(isinstance(c, Attribute) for c in self._components)
        )

    # -- DNF unfolding -----------------------------------------------------------------------

    def dnf(self) -> Set[AttributeSet]:
        """``dnf(FS)`` — the set of allowed attribute combinations.

        The empty attribute set is excluded unless the scheme genuinely admits a
        tuple with no attributes (``at_least == 0`` everywhere), matching the paper's
        examples where every legal tuple carries at least the unconditioned
        attributes.
        """
        combos = {frozenset(c) for c in self._dnf_frozensets()}
        return {AttributeSet(c) for c in combos}

    def _dnf_frozensets(self) -> Set[FrozenSet[Attribute]]:
        per_component: List[Set[FrozenSet[Attribute]]] = []
        for component in self._components:
            if isinstance(component, Attribute):
                per_component.append({frozenset((component,))})
            else:
                # A nested scheme that admits the empty attribute set may be "taken"
                # without contributing any attribute; keeping the empty option here
                # keeps dnf() consistent with the lazy admits() test.
                per_component.append(component._dnf_frozensets())
        results: Set[FrozenSet[Attribute]] = set()
        n = len(per_component)
        for mask in range(1 << n):
            taken = [i for i in range(n) if mask & (1 << i)]
            if not (self._at_least <= len(taken) <= self._at_most):
                continue
            partial: Set[FrozenSet[Attribute]] = {frozenset()}
            for index in taken:
                partial = {
                    existing | option
                    for existing in partial
                    for option in per_component[index]
                }
            results |= partial
        return results

    def count_variants(self) -> int:
        """Number of attribute combinations in ``dnf(FS)``."""
        return len(self._dnf_frozensets())

    # -- lazy membership ----------------------------------------------------------------------

    def admits(self, attributes) -> bool:
        """Decide ``X ∈ dnf(FS)`` without materializing the DNF.

        The test assigns to every component the portion of ``X`` falling into its
        attribute set (components are attribute-disjoint, so the assignment is
        unique), checks that portion recursively, and finally verifies that the
        number of taken components can satisfy the cardinality bounds.
        """
        attributes = attrset(attributes)
        if not attributes.issubset(self._attributes):
            return False
        feasible_low = 0
        feasible_high = 0
        for component in self._components:
            component_attrs = _component_attributes(component)
            portion = attributes & component_attrs
            if not portion:
                # The component is not taken.  (A nested scheme that admits the
                # empty set contributes the same attributes either way, so counting
                # it as "not taken" is the canonical reading.)
                continue
            if isinstance(component, Attribute):
                taken_ok = portion == AttributeSet(component)
            else:
                taken_ok = component.admits(portion)
            if not taken_ok:
                return False
            feasible_low += 1
            feasible_high += 1
        # Components with an empty portion may optionally count as "taken" when they
        # admit the empty attribute set (at_least == 0); this widens the upper bound.
        for component in self._components:
            component_attrs = _component_attributes(component)
            portion = attributes & component_attrs
            if portion:
                continue
            if isinstance(component, FlexibleScheme) and component._admits_empty():
                feasible_high += 1
        return feasible_low <= self._at_most and feasible_high >= self._at_least

    def _admits_empty(self) -> bool:
        if self._at_least == 0:
            return True
        candidates = [
            c for c in self._components
            if isinstance(c, FlexibleScheme) and c._admits_empty()
        ]
        return len(candidates) >= self._at_least

    # -- structural operations -----------------------------------------------------------------

    def project(self, attributes) -> "FlexibleScheme":
        """Restrict the scheme to the attributes in ``X`` (used by the projection operator).

        Components that lose all their attributes disappear; cardinality bounds are
        clipped to the remaining component count.  The result is the natural scheme
        of ``π_X(FR)``.
        """
        attributes = attrset(attributes)
        new_components: List[SchemeComponent] = []
        for component in self._components:
            if isinstance(component, Attribute):
                if component in attributes:
                    new_components.append(component)
            else:
                overlap = component.attributes & attributes
                if overlap:
                    new_components.append(component.project(overlap))
        if not new_components:
            raise SchemeError(
                "projection onto {} removes every component of the scheme".format(attributes)
            )
        dropped = len(self._components) - len(new_components)
        at_least = max(0, self._at_least - dropped)
        at_most = min(self._at_most, len(new_components))
        at_least = min(at_least, at_most)
        return FlexibleScheme(at_least, at_most, new_components)

    def extend(self, attributes) -> "FlexibleScheme":
        """Add unconditioned attributes (the ε extension operator on schemes)."""
        attributes = attrset(attributes)
        if not attributes:
            return self
        overlap = attributes & self._attributes
        if overlap:
            raise SchemeError("attributes {} already present in the scheme".format(overlap))
        new_attrs = list(attributes)
        if self.is_relational:
            merged = list(self._components) + new_attrs
            return FlexibleScheme(len(merged), len(merged), merged)
        components = list(new_attrs) + [self._as_component()]
        count = len(components)
        return FlexibleScheme(count, count, components)

    def product(self, other: "FlexibleScheme") -> "FlexibleScheme":
        """Scheme of the cartesian product of two flexible relations."""
        overlap = self._attributes & other.attributes
        if overlap:
            raise SchemeError(
                "cartesian product requires disjoint schemes; shared attributes: {}".format(
                    overlap
                )
            )
        components = [self._as_component(), other._as_component()]
        return FlexibleScheme(2, 2, components)

    def outer_union(self, other: "FlexibleScheme") -> "FlexibleScheme":
        """Scheme admitting every combination admitted by either input scheme."""
        return FlexibleScheme(1, 1, [self._as_component(), other._as_component()]) \
            if self._attributes.isdisjoint(other.attributes) else _merged_union(self, other)

    def _as_component(self) -> SchemeComponent:
        """Collapse single-attribute relational schemes to a bare attribute."""
        if len(self._components) == 1 and isinstance(self._components[0], Attribute) \
                and self._at_least == self._at_most == 1:
            return self._components[0]
        return self

    # -- equality & display -------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlexibleScheme):
            return NotImplemented
        return (
            self._at_least == other._at_least
            and self._at_most == other._at_most
            and _component_key(self) == _component_key(other)
        )

    def __hash__(self) -> int:
        return hash((self._at_least, self._at_most, _component_key(self)))

    def __repr__(self) -> str:
        parts = []
        for component in self._components:
            parts.append(str(component) if isinstance(component, Attribute) else repr(component))
        return "<{}, {}, {{{}}}>".format(self._at_least, self._at_most, ", ".join(parts))


def _normalize_component(component) -> SchemeComponent:
    if isinstance(component, FlexibleScheme):
        return component
    if isinstance(component, Attribute):
        return component
    if isinstance(component, str):
        return Attribute(component)
    if isinstance(component, (tuple, list)) and len(component) == 3:
        at_least, at_most, nested = component
        return FlexibleScheme(at_least, at_most, nested)
    raise SchemeError("cannot interpret {!r} as a scheme component".format(component))


def _component_attributes(component: SchemeComponent) -> AttributeSet:
    if isinstance(component, Attribute):
        return AttributeSet(component)
    return component.attributes


def _component_key(scheme: FlexibleScheme):
    keys = []
    for component in scheme.components:
        if isinstance(component, Attribute):
            keys.append(("attr", component.name))
        else:
            keys.append(("scheme", component.at_least, component.at_most, _component_key(component)))
    return tuple(sorted(keys))


def _merged_union(left: FlexibleScheme, right: FlexibleScheme) -> FlexibleScheme:
    """Outer-union scheme for overlapping inputs, built from the unfolded DNFs.

    Overlapping outer unions have no compact generic form in general; falling back to
    the disjunction of both DNFs keeps the semantics exact at the price of an
    unfolded representation.
    """
    combos = {frozenset(c.as_frozenset()) for c in left.dnf()} | {
        frozenset(c.as_frozenset()) for c in right.dnf()
    }
    variants = []
    for combo in sorted(combos, key=lambda c: sorted(a.name for a in c)):
        attributes = sorted(combo)
        variants.append(FlexibleScheme(len(attributes), len(attributes), attributes)
                        if attributes else FlexibleScheme(0, 0, list(left.attributes | right.attributes)))
    if len(variants) == 1:
        return variants[0]
    # A disjoint union over the variants would repeat attributes across components,
    # which the constructor forbids; represent the union as an UnfoldedScheme instead.
    return UnfoldedScheme(combos)


class UnfoldedScheme(FlexibleScheme):
    """A scheme given directly by its set of allowed attribute combinations.

    Produced only by overlapping outer unions, where the compact constructor cannot
    express the disjunction without repeating attributes.  It behaves like a
    flexible scheme for membership tests and DNF queries.
    """

    __slots__ = ("_combos",)

    def __init__(self, combos: Iterable[FrozenSet[Attribute]]):
        combos = {frozenset(c) for c in combos}
        if not combos:
            raise SchemeError("an unfolded scheme needs at least one combination")
        all_attrs = AttributeSet(a for combo in combos for a in combo)
        # Initialize the base class with a permissive wrapper so shared accessors work.
        super().__init__(0, len(all_attrs) or 1, list(all_attrs) or ["_placeholder"])
        self._combos = combos
        self._attributes = all_attrs

    def dnf(self) -> Set[AttributeSet]:
        return {AttributeSet(c) for c in self._combos}

    def _dnf_frozensets(self) -> Set[FrozenSet[Attribute]]:
        return set(self._combos)

    def admits(self, attributes) -> bool:
        target = frozenset(attrset(attributes).as_frozenset())
        return target in self._combos

    def count_variants(self) -> int:
        return len(self._combos)

    def __repr__(self) -> str:
        combos = sorted(
            "{" + ", ".join(sorted(a.name for a in combo)) + "}" for combo in self._combos
        )
        return "UnfoldedScheme([{}])".format(", ".join(combos))


def relational_scheme(attributes: Iterable) -> FlexibleScheme:
    """Convenience wrapper for :meth:`FlexibleScheme.relational`."""
    return FlexibleScheme.relational(attributes)
