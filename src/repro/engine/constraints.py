"""Incremental constraint enforcement for DML.

The checks performed when a tuple enters (or changes in) a table:

1. **scheme admission** — the tuple's attribute combination must be in the DNF of
   the table's flexible scheme (decided lazily, without unfolding);
2. **domain conformance** — every value must lie in its declared domain;
3. **key** — the tuple must carry the key attributes and no stored tuple may share
   its key value;
4. **explicit attribute dependencies** — a per-tuple check: the variant selected by
   the tuple's determinant values dictates exactly which dependent attributes the
   tuple must carry (Definition 2.1);
5. **abbreviated attribute dependencies and functional dependencies** — two-tuple
   constraints, checked incrementally against the stored tuples that agree on the
   determinant (served by a hash index on the determinant).

Every violation raises a subclass of :class:`~repro.errors.ConstraintViolation` (or
:class:`~repro.errors.TypeCheckError` for levels 1–2) naming the offending
constraint, so callers can distinguish type errors from integrity errors.

Attribute dependencies confine the tuples of a table to a few attribute sets, so
whatever these checks need that depends on ``attr(t)`` alone is decided once per
attribute set and kept in a :class:`ShapePlan`; per row only the values are looked
at.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.dependencies import (
    AttributeDependency,
    Dependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
)
from repro.engine.catalog import TableDefinition
from repro.engine.indexes import HashIndex
from repro.errors import DependencyViolation, KeyViolation, TypeCheckError
from repro.model.attributes import AttributeSet
from repro.model.domains import Domain
from repro.model.tuples import FlexTuple

#: stands in for "some value no variant declares" when a plan probes an explicit AD
_UNDECLARED = object()


def _names_within(attributes: AttributeSet, shape: FrozenSet[str]) -> Optional[Tuple[str, ...]]:
    """The sorted names of ``attributes`` when the shape has them all, else ``None``."""
    names = attributes.names
    return names if shape.issuperset(names) else None


class KeyConstraint:
    """A primary-key constraint: presence of the key attributes plus uniqueness."""

    def __init__(self, attributes: AttributeSet):
        self.attributes = attributes

    def check(self, tup: FlexTuple, key_names: Optional[Tuple[str, ...]], index: HashIndex,
              ignore: Optional[FlexTuple] = None) -> None:
        """``key_names`` is the shape plan's verdict: the key's names, or ``None``
        when the tuple's attribute set lacks one of them."""
        if key_names is None:
            raise KeyViolation(
                "tuple lacks key attribute(s) {}".format(self.attributes - tup.attributes)
            )
        values = tup._values
        ignored = ignore._values if ignore is not None else None
        key = tuple([values[name] for name in key_names])
        for existing in index.bucket(key):
            stored = existing._values
            if stored != values and stored != ignored:
                raise KeyViolation("key value {} already present".format(key))

    def __repr__(self) -> str:
        return "KeyConstraint({})".format(self.attributes)


class _ExplicitStep:
    """One explicit AD against one shape.

    ``attr(t) ∩ Y`` is fixed by the shape, so whether it equals the ``Y_i`` a
    determinant value requires is tabulated once — by asking
    :meth:`ExplicitAttributeDependency.check_tuple` about a tuple of this shape per
    declared determinant value, and about one carrying no declared value.
    """

    __slots__ = ("dependency", "names", "conforms", "otherwise")

    def __init__(self, dependency: ExplicitAttributeDependency, shape: FrozenSet[str]):
        blank = dict.fromkeys(shape, _UNDECLARED)
        names = _names_within(dependency.lhs, shape)
        self.dependency = dependency
        #: the determinant's names; () when the shape lacks one (no variant applies)
        self.names = names or ()
        #: determinant values -> does the shape carry exactly the required Y_i
        self.conforms: Dict[Tuple, bool] = {}
        self.otherwise = dependency.check_tuple(FlexTuple.from_parts(blank))
        if names is not None:
            for variant in dependency.variants:
                for value in variant.values:
                    probe = FlexTuple.from_parts({**blank, **value.as_dict()})
                    self.conforms[tuple([value[name] for name in names])] = (
                        dependency.check_tuple(probe))

    def check(self, tup: FlexTuple, ignore: Optional[FlexTuple]) -> None:
        values = tup._values
        determinant = tuple([values[name] for name in self.names])
        if not self.conforms.get(determinant, self.otherwise):
            dependency = self.dependency
            raise DependencyViolation(
                dependency,
                "tuple {!r} violates {!r}: with {} = {!r} exactly the attributes {} "
                "must be present, found {}".format(
                    tup, dependency, dependency.lhs,
                    tup.project_existing(dependency.lhs),
                    dependency.required_attributes(tup),
                    tup.attributes & dependency.rhs,
                ),
                offending=tup,
            )


class _PairwiseStep:
    """One abbreviated AD or FD against one shape that carries its determinant.

    Per row: probe the determinant's index and compare with each stored partner.
    What the comparison needs of the incoming tuple's side — the FD's right-hand
    names (or that the shape lacks one), the AD's ``attr(t) ∩ Y`` — is fixed here.
    """

    __slots__ = ("dependency", "index", "names", "functional", "rhs", "present")

    def __init__(self, dependency: Dependency, index: HashIndex, names: Tuple[str, ...],
                 shape: FrozenSet[str]):
        self.dependency = dependency
        self.index = index
        self.names = names
        self.functional = isinstance(dependency, FunctionalDependency)
        if self.functional:
            self.rhs = _names_within(dependency.rhs, shape)
            self.present = None
        else:
            self.rhs = frozenset(dependency.rhs.names)
            self.present = self.rhs & shape

    def check(self, tup: FlexTuple, ignore: Optional[FlexTuple]) -> None:
        values = tup._values
        ignored = ignore._values if ignore is not None else None
        rhs = self.rhs
        for partner in self.index.bucket(tuple([values[name] for name in self.names])):
            stored = partner._values
            if stored == values or stored == ignored:
                continue
            if self.functional:
                ok = rhs is not None and all(
                    name in stored and stored[name] == values[name] for name in rhs)
            else:
                ok = (stored.keys() & rhs) == self.present
            if not ok:
                raise DependencyViolation(
                    self.dependency,
                    "tuple {!r} conflicts with stored tuple {!r} on {!r}".format(
                        tup, partner, self.dependency
                    ),
                    offending=(partner, tup),
                )


class ShapePlan:
    """What the checks of one table need that depends only on ``attr(t)``.

    Built from the immutable table definition when a checker meets an attribute-name
    set it keeps no plan for, and kept by the checker once a tuple of that shape is
    stored (:meth:`ConstraintChecker.register_tuple`).  Refused shapes are rebuilt on
    every sight, so a stream of garbage attribute sets cannot grow the cache.
    """

    __slots__ = ("shape", "attributes", "admitted", "domains", "key_names",
                 "dependencies", "index_keys")

    def __init__(self, checker: "ConstraintChecker", shape: FrozenSet[str]):
        definition = checker.definition
        #: the attribute names — the cache key
        self.shape = shape
        #: ``attr(t)``, one object shared by every tuple of the shape
        self.attributes = AttributeSet(shape)
        #: ``attr(t) ∈ dnf(scheme)`` — :meth:`FlexibleScheme.admits`, asked once
        self.admitted: bool = definition.scheme.admits(self.attributes)
        #: ``(name, domain)`` for every attribute with a declared domain, sorted
        self.domains: Tuple[Tuple[str, Domain], ...] = tuple(
            (name, definition.domains[name])
            for name in self.attributes.names if name in definition.domains)
        #: the key's names, or ``None`` when there is no key or the shape lacks part
        self.key_names = (
            _names_within(definition.key, shape) if definition.key is not None else None)
        steps = []
        if checker.check_dependencies:
            for dependency in definition.dependencies:
                if isinstance(dependency, ExplicitAttributeDependency):
                    steps.append(_ExplicitStep(dependency, shape))
                    continue
                index = checker.index_on(dependency.lhs)
                names = _names_within(dependency.lhs, shape)
                if index is not None and names is not None:
                    steps.append(_PairwiseStep(dependency, index, names, shape))
        #: one step per enforced dependency that can bind this shape, in declared order
        self.dependencies = tuple(steps)
        #: ``(index, key names)`` for every maintained index the shape is defined on
        self.index_keys: Tuple[Tuple[HashIndex, Tuple[str, ...]], ...] = tuple(
            (index, index.names) for index in checker.indexes()
            if shape.issuperset(index.names))

    def __repr__(self) -> str:
        return "ShapePlan({}, admitted={})".format(self.attributes, self.admitted)


class ConstraintChecker:
    """Bundles the constraint logic for one table definition.

    The checker owns the hash indexes (one per distinct attribute set among the key,
    the declared secondary indexes and the dependency determinants) but not the data;
    the table calls :meth:`register_tuple` / :meth:`unregister_tuple` to keep them in
    sync and :meth:`check_insert` / :meth:`check_update` before mutating its tuple
    set.  The ``check_scheme`` / ``check_domains`` / ``check_dependencies`` switches
    allow the benchmarks to measure each level separately.
    """

    def __init__(
        self,
        definition: TableDefinition,
        check_scheme: bool = True,
        check_domains: bool = True,
        check_dependencies: bool = True,
    ):
        self.definition = definition
        self.check_scheme = check_scheme
        self.check_domains = check_domains
        self.check_dependencies = check_dependencies
        self._indexes: Dict[AttributeSet, HashIndex] = {}
        self.key_constraint = self.key_index = None
        if definition.key is not None:
            self.key_constraint = KeyConstraint(definition.key)
            self.key_index = self._maintain(definition.key)
        for attributes in definition.indexes:
            self._maintain(attributes)
        if check_dependencies:
            for dependency in definition.dependencies:
                if isinstance(dependency, (AttributeDependency, FunctionalDependency)):
                    self._maintain(dependency.lhs)
        self._plans: Dict[FrozenSet[str], ShapePlan] = {}
        #: the tuple :meth:`_plan_of` resolved last, and its plan: registration
        #: follows the check of the same tuple, and finds its plan here
        self._resolved: Optional[FlexTuple] = None
        self._resolved_plan: Optional[ShapePlan] = None

    # -- index maintenance -------------------------------------------------------------------

    def _maintain(self, attributes: AttributeSet) -> HashIndex:
        return self._indexes.setdefault(attributes, HashIndex(attributes))

    def indexes(self) -> List[HashIndex]:
        """Every index the checker maintains (key index first), for scan reuse."""
        return list(self._indexes.values())

    def index_on(self, attributes: AttributeSet) -> Optional[HashIndex]:
        """The maintained index over exactly ``attributes``, if there is one."""
        return self._indexes.get(attributes)

    def register_tuple(self, tup: FlexTuple) -> None:
        """Add a stored tuple to every index its shape is defined on — and keep
        its shape's plan: the shapes of stored tuples are the ones that recur."""
        plan = self._plan_of(tup)
        self._plans.setdefault(plan.shape, plan)
        values = tup._values
        for index, names in plan.index_keys:
            index.put(tuple([values[name] for name in names]), tup)

    def unregister_tuple(self, tup: FlexTuple) -> None:
        """Remove a stored tuple from every index its shape is defined on."""
        values = tup._values
        for index, names in self._plan_of(tup).index_keys:
            index.drop(tuple([values[name] for name in names]), tup)

    # -- shape plans ---------------------------------------------------------------------------

    def _plan_of(self, tup: FlexTuple) -> ShapePlan:
        """The plan of the tuple's shape — the kept one, else a fresh one — with
        the tuple's ``attr(t)`` pointed at the plan's shared set.

        Asked about the same tuple twice in a row (checked, then registered), the
        second answer is the first: one shape lookup per row, whichever of
        :meth:`check_insert` and :meth:`register_tuple` a subclass overrides."""
        if tup is self._resolved:
            return self._resolved_plan
        shape = frozenset(tup._values)
        plan = self._plans.get(shape)
        if plan is None:
            plan = ShapePlan(self, shape)
        tup._attrs = plan.attributes
        self._resolved, self._resolved_plan = tup, plan
        return plan

    def shapes(self) -> List[AttributeSet]:
        """The attribute sets whose plans are kept: those of tuples stored so far."""
        return [plan.attributes for plan in self._plans.values()]

    # -- checks --------------------------------------------------------------------------------

    def check_shape(self, tup: FlexTuple) -> ShapePlan:
        """Levels 1–2: scheme admission and domain conformance.

        Returns the tuple's shape plan for the remaining levels.
        """
        plan = self._plan_of(tup)
        if self.check_scheme and not plan.admitted:
            raise TypeCheckError(
                "attribute combination {} is not admitted by the scheme of table {!r}".format(
                    tup.attributes, self.definition.name
                )
            )
        if self.check_domains:
            values = tup._values
            for name, domain in plan.domains:
                if not domain.contains(values[name]):
                    raise TypeCheckError(
                        "value {!r} of attribute {!r} violates its domain in table {!r}".format(
                            values[name], name, self.definition.name
                        )
                    )
        return plan

    def check_insert(self, tup: FlexTuple, ignore: Optional[FlexTuple] = None) -> None:
        """All levels for an incoming tuple.

        ``ignore`` names a stored tuple that is about to be replaced (updates): it is
        excluded from the uniqueness and pair-wise dependency comparisons.
        """
        plan = self.check_shape(tup)
        if self.key_constraint is not None:
            self.key_constraint.check(tup, plan.key_names, self.key_index, ignore=ignore)
        for step in plan.dependencies:
            step.check(tup, ignore)

    def check_update(self, old: FlexTuple, new: FlexTuple) -> None:
        """Check a replacement tuple, ignoring the tuple it replaces."""
        self.check_insert(new, ignore=old)
