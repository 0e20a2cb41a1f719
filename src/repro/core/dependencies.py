"""Attribute dependencies, explicit attribute dependencies and functional dependencies.

Three constraint classes from the paper:

* :class:`ExplicitAttributeDependency` — Definition 2.1.  Lists the legal variants
  explicitly: each variant pairs a set of determining values ``V_i ⊆ Tup(X)`` with
  the attribute set ``Y_i ⊆ Y`` that must be present exactly when ``t[X] ∈ V_i``;
  tuples whose ``X``-value matches no variant must possess no attribute of ``Y``.
* :class:`AttributeDependency` — Definition 4.1, the abbreviated form
  ``X --attr--> Y``: tuples that agree on ``X`` possess the same subset of ``Y``.
  Every explicit AD implies the corresponding abbreviated AD (``to_ad``).
* :class:`FunctionalDependency` — Definition 4.2, the classical FD adapted to
  flexible relations by guarding value access with ``X ⊆ attr(t)``.

All three share the :class:`Dependency` interface: ``holds_in(relation)`` evaluates
the constraint over a :class:`~repro.model.relation.FlexibleRelation` (or any
iterable of tuples), ``violations(relation)`` reports witnesses.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DependencyError
from repro.model.attributes import AttributeSet, attrset
from repro.model.domains import Domain, cross_product
from repro.model.tuples import FlexTuple


def _tuples_of(relation) -> Iterable[FlexTuple]:
    """Accept a FlexibleRelation, an engine table, or a bare iterable of tuples."""
    if hasattr(relation, "tuples"):
        candidate = relation.tuples
        return candidate() if callable(candidate) else candidate
    return [t if isinstance(t, FlexTuple) else FlexTuple(t) for t in relation]


class Dependency:
    """Common interface of ADs, EADs and FDs."""

    #: short tag used in reprs and proof traces ("attr", "func", "exp.attr")
    kind: str = "dep"

    @property
    def lhs(self) -> AttributeSet:
        """The determining attribute set ``X``."""
        raise NotImplementedError

    @property
    def rhs(self) -> AttributeSet:
        """The determined attribute set ``Y``."""
        raise NotImplementedError

    def holds_in(self, relation) -> bool:
        """``True`` when the dependency is satisfied by the relation's instance."""
        return not self.violations(relation, first_only=True)

    def violations(self, relation, first_only: bool = False) -> List:
        """Witnesses of violation (tuples or tuple pairs); empty when satisfied."""
        raise NotImplementedError

    @property
    def attributes(self) -> AttributeSet:
        """All attributes mentioned by the dependency."""
        return self.lhs | self.rhs

    def __repr__(self) -> str:
        return "{} --{}--> {}".format(self.lhs, self.kind, self.rhs)


class AttributeDependency(Dependency):
    """``X --attr--> Y`` (Definition 4.1).

    A flexible relation satisfies the dependency when any two tuples that are both
    defined on ``X`` and agree on ``X`` possess the same subset of ``Y`` as
    attributes.  Nothing is said about the *values* of the ``Y`` attributes — this is
    precisely what distinguishes ADs from FDs and what invalidates transitivity.
    """

    kind = "attr"

    def __init__(self, lhs, rhs):
        self._lhs = attrset(lhs)
        self._rhs = attrset(rhs)

    @property
    def lhs(self) -> AttributeSet:
        return self._lhs

    @property
    def rhs(self) -> AttributeSet:
        return self._rhs

    @property
    def is_trivial(self) -> bool:
        """Trivial by reflexivity: ``Y ⊆ X``."""
        return self._rhs.issubset(self._lhs)

    def violations(self, relation, first_only: bool = False) -> List[Tuple[FlexTuple, FlexTuple]]:
        """One witness pair per earlier presence class of the tuple's
        determinant bucket that differs from its own: the class's first
        tuple stands for all of them, so each tuple costs one comparison per
        class, not one per earlier tuple."""
        # determinant value -> presence class on the rhs -> its first tuple
        groups: Dict[tuple, Dict[AttributeSet, FlexTuple]] = defaultdict(dict)
        witnesses: List[Tuple[FlexTuple, FlexTuple]] = []
        for tup in _tuples_of(relation):
            if not tup.is_defined_on(self._lhs):
                continue
            classes = groups[tuple(tup[a] for a in self._lhs)]
            present = tup.attributes & self._rhs
            for other_present, other in classes.items():
                if other_present != present:
                    witnesses.append((other, tup))
                    if first_only:
                        return witnesses
            classes.setdefault(present, tup)
        return witnesses

    def project_rhs(self, attributes) -> "AttributeDependency":
        """Rule (A1) applied syntactically: keep only the ``Y`` attributes in ``attributes``."""
        return AttributeDependency(self._lhs, self._rhs & attrset(attributes))

    def augment_lhs(self, attributes) -> "AttributeDependency":
        """Rule (A4) applied syntactically: ``X --attr--> Y ⊢ XZ --attr--> Y``."""
        return AttributeDependency(self._lhs | attrset(attributes), self._rhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeDependency) or isinstance(other, FunctionalDependency):
            return NotImplemented
        return self._lhs == other._lhs and self._rhs == other._rhs

    def __hash__(self) -> int:
        return hash(("attr", self._lhs, self._rhs))


class FunctionalDependency(Dependency):
    """``X --func--> Y`` adapted to flexible relations (Definition 4.2).

    Two tuples that are both defined on ``X`` and agree there must both be defined on
    all of ``Y`` and agree on ``Y``.  Note the existential strengthening with respect
    to the classical definition: the conclusion requires ``Y ⊆ attr(t)`` for *both*
    tuples.
    """

    kind = "func"

    def __init__(self, lhs, rhs):
        self._lhs = attrset(lhs)
        self._rhs = attrset(rhs)

    @property
    def lhs(self) -> AttributeSet:
        return self._lhs

    @property
    def rhs(self) -> AttributeSet:
        return self._rhs

    @property
    def is_trivial(self) -> bool:
        """Trivial by reflexivity: ``Y ⊆ X``."""
        return self._rhs.issubset(self._lhs)

    def violations(self, relation, first_only: bool = False) -> List[Tuple[FlexTuple, FlexTuple]]:
        """One witness pair per earlier right-hand-side value of the tuple's
        determinant bucket that it does not agree with (a tuple lacking part
        of the rhs agrees with none): the first tuple of each value stands
        for all of them."""
        # determinant value -> rhs value (None: not defined on it) -> its first tuple
        groups: Dict[tuple, Dict[Optional[tuple], FlexTuple]] = defaultdict(dict)
        witnesses: List[Tuple[FlexTuple, FlexTuple]] = []
        for tup in _tuples_of(relation):
            if not tup.is_defined_on(self._lhs):
                continue
            values = groups[tuple(tup[a] for a in self._lhs)]
            for other in values.values():
                if not self._pair_ok(other, tup):
                    witnesses.append((other, tup))
                    if first_only:
                        return witnesses
            values.setdefault(tuple(tup[a] for a in self._rhs)
                              if tup.is_defined_on(self._rhs) else None, tup)
        return witnesses

    def _pair_ok(self, t1: FlexTuple, t2: FlexTuple) -> bool:
        if not (t1.is_defined_on(self._rhs) and t2.is_defined_on(self._rhs)):
            return False
        return all(t1[a] == t2[a] for a in self._rhs)

    def to_ad(self) -> AttributeDependency:
        """The subsumption rule (AF1): every FD implies the AD with the same sides."""
        return AttributeDependency(self._lhs, self._rhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalDependency):
            return NotImplemented
        return self._lhs == other._lhs and self._rhs == other._rhs

    def __hash__(self) -> int:
        return hash(("func", self._lhs, self._rhs))


class Variant:
    """One variant ``V_i --exp.attr--> Y_i`` of an explicit attribute dependency.

    ``values`` is the set ``V_i ⊆ Tup(X)`` of determining tuples; ``attributes`` is
    the attribute set ``Y_i ⊆ Y`` that must be present exactly when the tuple's
    ``X``-projection lies in ``V_i``.  A name may be given for display (e.g. the
    subtype name the variant induces).
    """

    def __init__(self, values: Iterable, attributes, name: Optional[str] = None):
        if isinstance(values, (FlexTuple, dict)):
            # A single determining value is common (one value per variant, as in the
            # jobtype example); accept it without the enclosing list.
            values = [values]
        normalized = []
        for value in values:
            normalized.append(value if isinstance(value, FlexTuple) else FlexTuple(value))
        if not normalized:
            raise DependencyError("a variant needs at least one determining value")
        self.values: Tuple[FlexTuple, ...] = tuple(normalized)
        self.attributes = attrset(attributes)
        self.name = name

    def matches(self, projection: FlexTuple) -> bool:
        """``True`` when the ``X``-projection of a tuple lies in ``V_i``."""
        return projection in self.values

    def __repr__(self) -> str:
        label = self.name + ": " if self.name else ""
        values = ", ".join(repr(v) for v in self.values)
        return "{}{{{}}} --exp.attr--> {}".format(label, values, self.attributes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Variant):
            return NotImplemented
        return set(self.values) == set(other.values) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((frozenset(self.values), self.attributes))


class ExplicitAttributeDependency(Dependency):
    """``<X --exp.attr--> Y, {V_1 --> Y_1, ..., V_n --> Y_n}>`` (Definition 2.1).

    Structural requirements enforced at construction time: every ``Y_i`` is a subset
    of ``Y``, the value sets ``V_i`` are pairwise disjoint, and every determining
    tuple is defined exactly on ``X``.
    """

    kind = "exp.attr"

    def __init__(self, lhs, rhs, variants: Sequence[Variant]):
        self._lhs = attrset(lhs)
        self._rhs = attrset(rhs)
        variants = tuple(
            v if isinstance(v, Variant) else Variant(v[0], v[1]) for v in variants
        )
        if not variants:
            raise DependencyError("an explicit AD needs at least one variant")
        seen_values = set()
        for variant in variants:
            if not variant.attributes.issubset(self._rhs):
                raise DependencyError(
                    "variant attribute set {} is not a subset of {}".format(
                        variant.attributes, self._rhs
                    )
                )
            for value in variant.values:
                if value.attributes != self._lhs:
                    raise DependencyError(
                        "determining value {!r} is not defined exactly on {}".format(
                            value, self._lhs
                        )
                    )
                if value in seen_values:
                    raise DependencyError(
                        "determining value {!r} occurs in more than one variant "
                        "(the V_i must be pairwise disjoint)".format(value)
                    )
                seen_values.add(value)
        self._variants = variants

    # -- accessors ---------------------------------------------------------------------

    @property
    def lhs(self) -> AttributeSet:
        return self._lhs

    @property
    def rhs(self) -> AttributeSet:
        return self._rhs

    @property
    def variants(self) -> Tuple[Variant, ...]:
        return self._variants

    # -- semantics ------------------------------------------------------------------------

    def variant_for(self, tup: FlexTuple) -> Optional[Variant]:
        """The variant whose value set contains ``t[X]``, or ``None``.

        ``None`` is returned both when no variant matches and when the tuple is not
        defined on all of ``X``; in both cases the dependency demands
        ``attr(t) ∩ Y = ∅``.
        """
        if not tup.is_defined_on(self._lhs):
            return None
        projection = tup.project(self._lhs)
        for variant in self._variants:
            if variant.matches(projection):
                return variant
        return None

    def required_attributes(self, tup: FlexTuple) -> AttributeSet:
        """The exact subset of ``Y`` the tuple must carry."""
        variant = self.variant_for(tup)
        return variant.attributes if variant is not None else AttributeSet()

    def check_tuple(self, tup: FlexTuple) -> bool:
        """``True`` when the single tuple conforms to the dependency."""
        return (tup.attributes & self._rhs) == self.required_attributes(tup)

    def violations(self, relation, first_only: bool = False) -> List[FlexTuple]:
        witnesses = []
        for tup in _tuples_of(relation):
            if not self.check_tuple(tup):
                witnesses.append(tup)
                if first_only:
                    return witnesses
        return witnesses

    # -- classification (Section 3.1) --------------------------------------------------------

    def is_disjoint(self) -> bool:
        """Disjoint specialization: the variant attribute sets are pairwise disjoint."""
        for i, left in enumerate(self._variants):
            for right in self._variants[i + 1:]:
                if not left.attributes.isdisjoint(right.attributes):
                    return False
        return True

    def is_total(self, domains: Dict[str, Domain], limit: Optional[int] = 100_000) -> bool:
        """Total specialization: ``∪ V_i = Tup(X)`` under the given finite domains."""
        ordered = list(self._lhs)
        domain_list = []
        for attribute in ordered:
            try:
                domain_list.append(domains[attribute.name])
            except KeyError:
                raise DependencyError(
                    "no domain declared for determining attribute {!r}".format(attribute.name)
                ) from None
        covered = {tuple(v[a] for a in ordered) for variant in self._variants for v in variant.values}
        for combination in cross_product(domain_list, limit=limit):
            if combination not in covered:
                return False
        return True

    # -- conversions and rule applications -------------------------------------------------------

    def to_ad(self) -> AttributeDependency:
        """The abbreviated AD ``X --attr--> Y`` implied by this explicit AD."""
        return AttributeDependency(self._lhs, self._rhs)

    def project_rhs(self, attributes) -> "ExplicitAttributeDependency":
        """Rule (A1) in explicit form: intersect ``Y`` and every ``Y_i`` with ``attributes``."""
        attributes = attrset(attributes)
        variants = [
            Variant(v.values, v.attributes & attributes, name=v.name) for v in self._variants
        ]
        return ExplicitAttributeDependency(self._lhs, self._rhs & attributes, variants)

    def combine(self, other: "ExplicitAttributeDependency") -> "ExplicitAttributeDependency":
        """The additivity rule (A2) in explicit form (Section 4.1).

        Both dependencies must share the determining attribute set ``X``.  The result
        pairs ``V1_i ∩ V2_j`` with ``Y1_i ∪ Y2_j`` for every non-empty intersection.
        """
        if self._lhs != other._lhs:
            raise DependencyError(
                "additivity in explicit form requires the same determining attributes"
            )
        variants: List[Variant] = []
        for left in self._variants:
            for right in other._variants:
                common = [v for v in left.values if v in right.values]
                if common:
                    variants.append(Variant(common, left.attributes | right.attributes))
        if not variants:
            raise DependencyError("combined explicit AD has no variants (disjoint value sets)")
        return ExplicitAttributeDependency(self._lhs, self._rhs | other._rhs, variants)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplicitAttributeDependency):
            return NotImplemented
        return (
            self._lhs == other._lhs
            and self._rhs == other._rhs
            and set(self._variants) == set(other._variants)
        )

    def __hash__(self) -> int:
        return hash(("exp.attr", self._lhs, self._rhs, frozenset(self._variants)))

    def __repr__(self) -> str:
        variants = "; ".join(repr(v) for v in self._variants)
        return "<{} --exp.attr--> {}, [{}]>".format(self._lhs, self._rhs, variants)


# -- convenience constructors -----------------------------------------------------------------------


def ad(lhs, rhs) -> AttributeDependency:
    """Shorthand constructor for :class:`AttributeDependency`."""
    return AttributeDependency(lhs, rhs)


def fd(lhs, rhs) -> FunctionalDependency:
    """Shorthand constructor for :class:`FunctionalDependency`."""
    return FunctionalDependency(lhs, rhs)


def ead(lhs, rhs, variants) -> ExplicitAttributeDependency:
    """Shorthand constructor for :class:`ExplicitAttributeDependency`.

    ``variants`` may be :class:`Variant` objects or ``(values, attributes)`` pairs
    where ``values`` is an iterable of mappings over ``lhs``.
    """
    return ExplicitAttributeDependency(lhs, rhs, list(variants))
