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
constraint, so callers can distinguish type errors from integrity errors.  This is
the one admission check of the package — Section 3.1's type check.  A table created
with ``enforce=False`` keeps only the key (level 3); checking the scheme without the
dependencies is a definition that declares none.

Attribute dependencies confine the tuples of a table to a few attribute sets, so
whatever these checks need that depends on ``attr(t)`` alone is decided once per
attribute set and kept in a :class:`ShapePlan`; per row only the values are looked
at — or, for a bulk load, only each column, distinct determinant value and key set.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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


def _keys(values: List[Dict[str, object]], names: Tuple[str, ...]) -> List[Tuple]:
    """Each value dict's values of ``names`` as one tuple, a column at a time."""
    return list(zip(*[map(itemgetter(name), values) for name in names])) or [()] * len(values)


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

    def check(self, tup: FlexTuple, ignore: Optional[FlexTuple],
              earlier: Optional[Dict[Tuple, List[FlexTuple]]] = None) -> None:
        """``earlier``: a chunk's rows before ``tup`` by key, compared with too."""
        values = tup._values
        ignored = ignore._values if ignore is not None else None
        rhs = self.rhs
        key = tuple([values[name] for name in self.names])
        partners = self.index.bucket(key)
        if earlier is not None:
            partners = chain(partners, earlier.setdefault(key, []))
            earlier[key].append(tup)
        for partner in partners:
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
    every sight, so a stream of garbage attribute sets cannot grow the cache.  A kept
    plan counts the stored tuples of its shape: the planner's row, presence and
    type-guard counts are sums over the kept plans.
    """

    __slots__ = ("shape", "attributes", "admitted", "domains", "key_names",
                 "dependencies", "index_keys", "count")

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
        if checker.enforce:
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
        #: how many stored tuples have this shape (kept plans only)
        self.count = 0

    def __repr__(self) -> str:
        return "ShapePlan({}, admitted={})".format(self.attributes, self.admitted)


class ConstraintChecker:
    """Bundles the constraint logic for one table definition.

    The checker owns the hash indexes (one per distinct attribute set among the key,
    the declared secondary indexes and the dependency determinants) but not the data;
    the table calls :meth:`register_tuple` / :meth:`unregister_tuple` to keep them in
    sync and :meth:`check_insert` before mutating its tuple set, an update with the
    tuple it replaces as ``ignore`` (a bulk load: :meth:`admit_chunk`,
    :meth:`register_chunk`).  ``enforce=False`` skips levels 1, 2, 4 and 5 —
    scheme, domains and dependencies — keeps the key.
    """

    def __init__(self, definition: TableDefinition, enforce: bool = True):
        self.definition = definition
        self.enforce = enforce
        self._indexes: Dict[AttributeSet, HashIndex] = {}
        self.key_constraint = self.key_index = None
        if definition.key is not None:
            self.key_constraint = KeyConstraint(definition.key)
            self.key_index = self._maintain(definition.key)
        for attributes in definition.indexes:
            self._maintain(attributes)
        if enforce:
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
        its shape's plan, and count the tuple there: the shapes of stored tuples
        are the ones that recur."""
        plan = self._plan_of(tup)
        self._plans.setdefault(plan.shape, plan).count += 1
        values = tup._values
        for index, names in plan.index_keys:
            index.put(tuple([values[name] for name in names]), tup)

    def register_chunk(self, rows: List[FlexTuple], shapes: List[FrozenSet[str]],
                       plans: Dict[FrozenSet[str], ShapePlan]) -> None:
        """:meth:`register_tuple` for each of ``rows`` (admitted, ``shapes`` their
        name sets, ``plans`` what :meth:`admit_chunk` resolved for those): the
        counts a shape at a time, the indexes an index at a time, each filed
        in row order as the row loop would."""
        groups: Dict[FrozenSet[str], List[FlexTuple]] = {}
        for tup, shape in zip(rows, shapes):
            groups.setdefault(shape, []).append(tup)
        filed: Dict[HashIndex, Set[FrozenSet[str]]] = {}
        for shape, members in groups.items():
            plan = self._plans.setdefault(shape, plans[shape])
            plan.count += len(members)
            for tup in members:
                tup._attrs = plan.attributes
            for index, _names in plan.index_keys:
                filed.setdefault(index, set()).add(shape)
        values = [tup._values for tup in rows]
        for index, over in filed.items():
            members, keyed = rows, values
            if len(over) < len(groups):
                picked = [at for at, shape in enumerate(shapes) if shape in over]
                members, keyed = [rows[at] for at in picked], [values[at] for at in picked]
            for key, tup in zip(_keys(keyed, index.names), members):
                index.put(key, tup)

    def unregister_tuple(self, tup: FlexTuple) -> None:
        """Remove a stored tuple from every index its shape is defined on, and
        from its shape's count."""
        plan = self._plans[self._plan_of(tup).shape]
        plan.count -= 1
        values = tup._values
        for index, names in plan.index_keys:
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

    def shape_counts(self) -> Dict[FrozenSet[str], int]:
        """Attribute-name set -> how many stored tuples have it (none counted zero)."""
        return {plan.shape: plan.count for plan in self._plans.values() if plan.count}

    # -- checks --------------------------------------------------------------------------------

    def check_shape(self, tup: FlexTuple) -> ShapePlan:
        """Levels 1–2: scheme admission and domain conformance.

        Returns the tuple's shape plan for the remaining levels.
        """
        plan = self._plan_of(tup)
        if not self.enforce:
            return plan
        if not plan.admitted:
            raise TypeCheckError(
                "attribute combination {} is not admitted by the scheme of table {!r}".format(
                    tup.attributes, self.definition.name
                )
            )
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

    def admit_chunk(self, rows: List[FlexTuple], shapes: List[FrozenSet[str]]
                    ) -> Tuple[int, Dict[FrozenSet[str], ShapePlan]]:
        """How many of ``rows`` (distinct, none stored, ``shapes`` their name sets)
        pass every check inserted in order, and the plan of each shape — for
        :meth:`register_chunk`, which keeps those it files rows by.  Per shape:
        admission, key presence, a pass per domain, each explicit AD per distinct
        determinant value; key uniqueness as one set test; pair-wise steps the
        key does not imply per row."""
        groups: Dict[FrozenSet[str], List[int]] = {}
        for position, shape in enumerate(shapes):
            groups.setdefault(shape, []).append(position)
        plans, limit, key_at, steps_at = {}, len(rows), {}, {}
        for shape, positions in groups.items():
            plan = plans[shape] = self._plans.get(shape) or ShapePlan(self, shape)
            values = [rows[position]._values for position in positions]
            first = 0 if (self.enforce and not plan.admitted) or (
                self.key_constraint is not None and plan.key_names is None) else len(values)
            if first and self.enforce:
                columns = [(list(map(itemgetter(name), values)), domain.contains)
                           for name, domain in plan.domains]
                for step in plan.dependencies:
                    if type(step) is _ExplicitStep:  # a verdict per distinct value
                        column = _keys(values, step.names)
                        columns.append((column, {value: step.conforms.get(
                            value, step.otherwise) for value in set(column)}.get))
                for column, ok in columns:
                    if not all(map(ok, column)):
                        first = min(first, next(at for at, value in enumerate(column)
                                                if not ok(value)))
            if first < len(positions):
                limit = min(limit, positions[first])
            if plan.key_names is not None:
                key_at.update(zip(positions, _keys(values, plan.key_names)))
            steps = [step for step in plan.dependencies
                     if type(step) is _PairwiseStep and step.index is not self.key_index]
            steps_at.update(dict.fromkeys(positions, steps) if steps else ())
        keys = list(key_at.values())
        if keys and (len(set(keys)) < len(keys) or not self.key_index.isdisjoint(keys)):
            first_at = {key: at for at, key in sorted(key_at.items(), reverse=True)}
            limit = min([limit] + [at for at, key in key_at.items()
                                   if first_at[key] != at or self.key_index.bucket(key)])
        earlier: Dict[HashIndex, Dict[Tuple, List[FlexTuple]]] = {}
        for position in sorted(at for at in steps_at if at < limit):
            try:
                for step in steps_at[position]:
                    step.check(rows[position], None, earlier.setdefault(step.index, {}))
            except DependencyViolation:
                return position, plans
        return limit, plans
