"""Algebra expression trees.

Each operator of the flexible-relation algebra is a node class.  Nodes are
immutable; rewrites build new trees via :meth:`Expression.with_children`.  The
structure lives in two bases: :class:`_Unary` (one ``child``) and :class:`_Binary`
(``left`` and ``right``) own the child fields, ``children`` and ``with_children``
(a copy of the node with only its children replaced), and a node reports its
inputs' facts — the child's, or both sides' — unless it changes them.  Besides
structure, every node knows

* which attribute dependencies hold in its result
  (:meth:`Expression.known_dependencies`, following Theorem 4.3 and keeping explicit
  ADs in explicit form whenever the propagation rule allows it),
* which attributes are guaranteed to be present in every result tuple
  (:meth:`Expression.guaranteed_attributes`, fed by selection predicates and type
  guards) — the two ingredients of the optimizer's redundancy reasoning — and
* which attribute sets are keys of its result, given its inputs' keys
  (:meth:`Expression.keys_from`; :meth:`Expression.unique_keys` walks the
  tree), the physical planner's proof that an operator cannot produce a
  duplicate row,
* every attribute a result tuple can carry (:meth:`Expression.attribute_universe`),
  and what tells it apart from its class's other nodes
  (:meth:`Expression.structural_key`).

A base relation's facts are resolved against a *catalog*: a
:class:`~repro.algebra.source.Source` (such as :class:`repro.engine.Database`)
or anything :func:`~repro.algebra.source.as_source` takes.
"""

from __future__ import annotations

from copy import copy
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.algebra.analytic import (
    AggregateSpec,
    SortKey,
    aggregate_spec,
    sort_key,
)
from repro.algebra.predicates import Predicate, TruePredicate
from repro.algebra.source import as_source
from repro.core.dependencies import (
    AttributeDependency,
    Dependency,
    ExplicitAttributeDependency,
    FunctionalDependency,
)
from repro.core.propagation import as_ads, propagate_tagged_union, propagate_union
from repro.errors import AlgebraError
from repro.model.attributes import AttributeSet, attrset

#: a node's keys: attribute sets every result tuple carries and that determine it
Keys = FrozenSet[AttributeSet]
_NO_KEYS: Keys = frozenset()


def _pair_keys(left: Keys, right: Keys, on: Optional[AttributeSet]) -> Keys:
    """× and ⋈: a merged tuple carries both sides' keys, so k₁ ∪ k₂ names its
    (left, right) pair — without that presence, two pairs of differently shaped
    tuples could merge into one tuple.  A side keyed inside a static ``on`` gives
    each tuple of the other side at most one partner, so the other's keys suffice."""
    alone = [keys for keys, other in ((left, right), (right, left))
             if on is not None and any(key.issubset(on) for key in other)]
    if alone:
        return frozenset().union(*alone)
    return frozenset(l_key | r_key for l_key in left for r_key in right)


def dispatch(table: dict, node: "Expression"):
    """``table``'s entry for the class of ``node``, or for its nearest base
    class that has one — the order ``isinstance`` tests resolve a subclass in
    (:class:`OuterUnion` before :class:`Union`); ``None`` when none has."""
    for cls in type(node).__mro__:
        entry = table.get(cls)
        if entry is not None:
            return entry
    return None


def _universe_of(children: Sequence["Expression"], source) -> Optional[AttributeSet]:
    result = AttributeSet()
    for child in children:
        universe = child.attribute_universe(source)
        if universe is None:
            return None
        result = result | universe
    return result


class Expression:
    """Base class of every algebra expression node."""

    #: operator name used in plans and reprs
    operator: str = "expression"

    #: the child expressions (empty for leaves)
    children: Tuple["Expression", ...] = ()

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """Rebuild this node with new children (same arity required)."""
        if children:
            raise AlgebraError("{} has no children to replace".format(self.operator))
        return self

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        """Dependencies guaranteed to hold in this expression's result (Theorem 4.3)."""
        raise NotImplementedError

    def known_ads(self, catalog=None) -> Set[AttributeDependency]:
        """The abbreviated-AD view of :meth:`known_dependencies`."""
        return as_ads(self.known_dependencies(catalog))

    def unique_keys(self, catalog=None) -> Keys:
        """Keys of the result: attribute sets every result tuple carries and
        whose values tell any two apart — derived from the declared keys by
        :meth:`keys_from` over the tree.  None unless a rule proves one."""
        return self.keys_from(tuple([child.unique_keys(catalog)
                                     for child in self.children]), catalog)

    def keys_from(self, children: Tuple[Keys, ...], catalog) -> Keys:
        """This node's keys, given its ``children``'s: one rule per node
        class, next to its :meth:`known_dependencies`."""
        return _NO_KEYS

    def guaranteed_attributes(self) -> AttributeSet:
        """Attributes every tuple of the result is guaranteed to possess.

        Contributed by selection predicates (guarded value access forces presence)
        and by explicit type-guard nodes; destroyed by projection when the attribute
        is projected away.
        """
        return AttributeSet()

    def established_equalities(self) -> Dict[str, object]:
        """Attribute→value bindings every result tuple is known to satisfy."""
        return {}

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        """Every attribute a result tuple can carry, from ``source``'s declared
        schemes (a loose superset will do); ``None`` when that cannot be told
        statically, which keeps a join over this node in its written order."""
        return None

    def structural_key(self, children: Tuple, params=None,
                       constants: Optional[list] = None) -> Tuple:
        """This node's :func:`repro.obs.feedback.expression_key`, given its
        ``children``'s (computed first, so constants are collected
        children-first): the operator name, whatever tells this node apart
        from its class's others, then ``children``."""
        raise NotImplementedError(
            "{} states no structural key".format(type(self).__name__))

    def map_comparisons(self, function) -> "Expression":
        """This tree with ``function`` applied to every comparison of every
        selection predicate (``self`` when nothing changed)."""
        children = self.children
        mapped = [child.map_comparisons(function) for child in children]
        if all(new is old for new, old in zip(mapped, children)):
            return self
        return self.with_children(mapped)

    def substitute(self, params) -> "Expression":
        """This tree with every predicate :class:`~repro.algebra.predicates.Parameter`
        replaced by its value in ``params`` — a template bound to one call."""
        if not params:
            return self
        return self.map_comparisons(lambda comparison: comparison.bound(params))

    # -- fluent construction helpers ----------------------------------------------------

    def select(self, predicate: Predicate) -> "Selection":
        return Selection(self, predicate)

    def project(self, attributes) -> "Projection":
        return Projection(self, attributes)

    def guard(self, attributes) -> "TypeGuardNode":
        return TypeGuardNode(self, attributes)

    def product(self, other: "Expression") -> "Product":
        return Product(self, other)

    def union(self, other: "Expression") -> "Union":
        return Union(self, other)

    def difference(self, other: "Expression") -> "Difference":
        return Difference(self, other)

    def extend(self, attribute, value) -> "Extension":
        return Extension(self, attribute, value)

    def extend_scalar(self, attribute, subquery: "Expression") -> "SubqueryExtension":
        return SubqueryExtension(self, attribute, subquery)

    def aggregate(self, group_by=(), specs=()) -> "Aggregate":
        return Aggregate(self, group_by, specs)

    def sort(self, *keys) -> "Sort":
        return Sort(self, keys)

    def limit(self, count: int) -> "Limit":
        return Limit(self, count)

    def pretty(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the expression tree."""
        pad = "  " * indent
        header = pad + self._label()
        lines = [header]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return self.operator

    def __repr__(self) -> str:
        return self._label()


class _Unary(Expression):
    """A node over one input, ``child``, whose result facts are the child's
    unless the node overrides them."""

    def __init__(self, child: Expression):
        self.child = child

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expression]) -> "_Unary":
        node = copy(self)
        (node.child,) = children
        return node

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        return set(self.child.known_dependencies(catalog))

    def keys_from(self, children, catalog) -> Keys:
        return children[0]

    def guaranteed_attributes(self) -> AttributeSet:
        return self.child.guaranteed_attributes()

    def established_equalities(self) -> Dict[str, object]:
        return self.child.established_equalities()

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return self.child.attribute_universe(source)


class _Binary(Expression):
    """A node over two inputs, ``left`` and ``right``, whose result facts are
    both inputs' (rule (1), the product's) unless the node overrides them."""

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> "_Binary":
        node = copy(self)
        node.left, node.right = children
        return node

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        return set(self.left.known_dependencies(catalog)) | set(self.right.known_dependencies(catalog))

    def guaranteed_attributes(self) -> AttributeSet:
        return self.left.guaranteed_attributes() | self.right.guaranteed_attributes()

    def established_equalities(self) -> Dict[str, object]:
        result = dict(self.left.established_equalities())
        result.update(self.right.established_equalities())
        return result

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return _universe_of(self.children, source)


class RelationRef(Expression):
    """A leaf referring to a base relation by name."""

    operator = "relation"

    def __init__(self, name: str):
        if not name:
            raise AlgebraError("relation reference needs a non-empty name")
        self.name = name

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        return set(as_source(catalog).dependencies(self.name))

    def keys_from(self, children, catalog) -> Keys:
        # the declared key: the engine refuses a tuple lacking it or repeating it
        key = as_source(catalog).key(self.name)
        return _NO_KEYS if key is None else frozenset({key})

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return as_source(source).universe(self.name)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, self.name)

    def _label(self) -> str:
        return self.name


class EmptyRelation(Expression):
    """A leaf producing no tuples at all.

    The optimizer substitutes it for sub-expressions that are statically known to be
    empty (a guard on an attribute the dependencies exclude, a selection whose
    qualification contradicts every fragment).  Unlike a selection with a false
    predicate, an empty leaf lets the evaluator skip the input entirely.
    """

    operator = "empty"

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        # Every dependency holds vacuously in the empty instance; reporting the empty
        # set keeps downstream reasoning conservative.
        return set()

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return AttributeSet()

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator,)

    def _label(self) -> str:
        return "∅"


class Selection(_Unary):
    """``σ_F(E)`` — keep the tuples satisfying the predicate (rule (3): every
    dependency survives, in explicit form too)."""

    operator = "select"

    def __init__(self, child: Expression, predicate: Predicate):
        super().__init__(child)
        self.predicate = predicate if predicate is not None else TruePredicate()

    def map_comparisons(self, function) -> "Selection":
        child = self.child.map_comparisons(function)
        predicate = self.predicate.map_comparisons(function)
        if child is self.child and predicate is self.predicate:
            return self
        return Selection(child, predicate)

    def guaranteed_attributes(self) -> AttributeSet:
        return self.child.guaranteed_attributes() | self.predicate.required_attributes()

    def established_equalities(self) -> Dict[str, object]:
        result = dict(self.child.established_equalities())
        result.update(self.predicate.implied_equalities())
        return result

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, self.predicate.render(params, constants)) + children

    def _label(self) -> str:
        return "select[{!r}]".format(self.predicate)


class TypeGuardNode(_Unary):
    """An explicit type guard: keep tuples defined on the guarded attributes."""

    operator = "guard"

    def __init__(self, child: Expression, attributes):
        super().__init__(child)
        self.attributes = attrset(attributes)

    def guaranteed_attributes(self) -> AttributeSet:
        return self.child.guaranteed_attributes() | self.attributes

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, str(self.attributes)) + children

    def _label(self) -> str:
        return "guard[{}]".format(self.attributes)


class Projection(_Unary):
    """``π_X(E)`` — restrict every tuple to the attributes of ``X`` it possesses."""

    operator = "project"

    def __init__(self, child: Expression, attributes):
        super().__init__(child)
        self.attributes = attrset(attributes)
        if not self.attributes:
            raise AlgebraError("projection needs at least one attribute")

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        # Rule (2): dependencies survive only when their determinant is retained.
        result: Set[Dependency] = set()
        for dependency in self.child.known_dependencies(catalog):
            if not dependency.lhs.issubset(self.attributes):
                continue
            if isinstance(dependency, ExplicitAttributeDependency):
                result.add(dependency.project_rhs(self.attributes))
            elif isinstance(dependency, FunctionalDependency):
                if dependency.rhs.issubset(self.attributes):
                    result.add(dependency)
                else:
                    result.add(FunctionalDependency(dependency.lhs,
                                                    dependency.rhs & self.attributes))
            else:
                result.add(AttributeDependency(dependency.lhs,
                                               dependency.rhs & self.attributes))
        return result

    def keys_from(self, children, catalog) -> Keys:
        # a kept key keeps telling the projected tuples' sources apart
        return frozenset(key for key in children[0] if key.issubset(self.attributes))

    def guaranteed_attributes(self) -> AttributeSet:
        return self.child.guaranteed_attributes() & self.attributes

    def established_equalities(self) -> Dict[str, object]:
        child = self.child.established_equalities()
        return {name: value for name, value in child.items() if name in self.attributes}

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        child = self.child.attribute_universe(source)
        return None if child is None else child & self.attributes

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, str(self.attributes)) + children

    def _label(self) -> str:
        return "project[{}]".format(self.attributes)


class Product(_Binary):
    """``E1 × E2`` — cartesian product of relations with disjoint attribute sets."""

    operator = "product"

    def keys_from(self, children, catalog) -> Keys:
        # the join on no attributes
        return _pair_keys(*children, AttributeSet())

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator,) + children


class Union(_Binary):
    """``E1 ∪ E2`` — set union of the two instances (no padding needed in this model)."""

    operator = "union"

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        # Rule (4): nothing survives an untagged union ... unless both inputs are
        # extensions by the same tag attribute with distinct constants, in which case
        # rule (6) applies and the tagged dependencies survive.
        tag = self._tagging_attribute()
        if tag is not None:
            return set(
                propagate_tagged_union(
                    self.left.known_ads(catalog), self.right.known_ads(catalog), tag
                )
            )
        # rule (4) discards its inputs, so the children are not walked
        return set(propagate_union((), ()))

    def keys_from(self, children, catalog) -> Keys:
        # a key value may recur across the branches
        return _NO_KEYS

    def _tagging_attribute(self) -> Optional[str]:
        left, right = self.left, self.right
        if isinstance(left, Extension) and isinstance(right, Extension):
            if left.attribute == right.attribute and left.value != right.value:
                return left.attribute
        return None

    def guaranteed_attributes(self) -> AttributeSet:
        return self.left.guaranteed_attributes() & self.right.guaranteed_attributes()

    def established_equalities(self) -> Dict[str, object]:
        left = self.left.established_equalities()
        right = self.right.established_equalities()
        return {name: value for name, value in left.items()
                if name in right and right[name] == value}

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator,) + children


class OuterUnion(Union):
    """The outer union used to restore horizontal decompositions (Section 3.1.1).

    Operationally identical to :class:`Union` on flexible relations — tuples of
    different shapes coexist without null padding — but kept as its own node so that
    plans document the restoration step.
    """

    operator = "outer-union"


class Difference(_Binary):
    """``E1 − E2`` — tuples of the left input not present in the right input."""

    operator = "difference"

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        # Rule (5): the difference keeps the dependencies of its left input.
        return set(self.left.known_dependencies(catalog))

    def keys_from(self, children, catalog) -> Keys:
        # a subset of the left input
        return children[0]

    def guaranteed_attributes(self) -> AttributeSet:
        return self.left.guaranteed_attributes()

    def established_equalities(self) -> Dict[str, object]:
        return self.left.established_equalities()

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return self.left.attribute_universe(source)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator,) + children


class Extension(_Unary):
    """``ε_{A:a}(E)`` — extend every tuple by attribute ``A`` with constant ``a``
    (every tuple grows, so the child's dependencies keep holding)."""

    operator = "extend"

    def __init__(self, child: Expression, attribute, value):
        super().__init__(child)
        attribute_set = attrset(attribute)
        if len(attribute_set) != 1:
            raise AlgebraError("the extension operator adds exactly one attribute")
        self.attribute = next(iter(attribute_set)).name
        self.value = value

    def guaranteed_attributes(self) -> AttributeSet:
        return self.child.guaranteed_attributes() | attrset(self.attribute)

    def established_equalities(self) -> Dict[str, object]:
        result = dict(self.child.established_equalities())
        result[self.attribute] = self.value
        return result

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        child = self.child.attribute_universe(source)
        return None if child is None else child | attrset(self.attribute)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, self.attribute, repr(self.value)) + children

    def _label(self) -> str:
        return "extend[{}:{!r}]".format(self.attribute, self.value)


class Rename(_Unary):
    """``ρ(E)`` — rename attributes according to a mapping."""

    operator = "rename"

    def __init__(self, child: Expression, mapping: Dict[str, str]):
        if not mapping:
            raise AlgebraError("rename needs a non-empty mapping")
        super().__init__(child)
        self.mapping = dict(mapping)

    def _rename_set(self, attributes: AttributeSet) -> AttributeSet:
        return attrset(self.mapping.get(a.name, a.name) for a in attributes)

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        result: Set[Dependency] = set()
        for dependency in self.child.known_ads(catalog):
            result.add(AttributeDependency(self._rename_set(dependency.lhs),
                                           self._rename_set(dependency.rhs)))
        return result

    def keys_from(self, children, catalog) -> Keys:
        # A key survives, renamed, when no other attribute can land on one of
        # its targets: colliding names keep one value, maybe not the key's.
        mapping = self.mapping

        def writers(target: str) -> Set[str]:
            names = {name for name, to in mapping.items() if to == target}
            return names if target in mapping else names | {target}

        return frozenset(
            self._rename_set(key) for key in children[0]
            if all(writers(mapping.get(a.name, a.name)) == {a.name} for a in key))

    def guaranteed_attributes(self) -> AttributeSet:
        return self._rename_set(self.child.guaranteed_attributes())

    def established_equalities(self) -> Dict[str, object]:
        child = self.child.established_equalities()
        return {self.mapping.get(name, name): value for name, value in child.items()}

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        child = self.child.attribute_universe(source)
        return None if child is None else self._rename_set(child)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, tuple(sorted(self.mapping.items()))) + children

    def _label(self) -> str:
        return "rename[{}]".format(self.mapping)


class NaturalJoin(_Binary):
    """``E1 ⋈ E2`` — join on the attributes shared by the joined tuples (joins
    enlarge their inputs; like the product they keep both inputs' facts)."""

    operator = "join"

    def __init__(self, left: Expression, right: Expression, on=None):
        super().__init__(left, right)
        self.on = attrset(on) if on is not None else None

    def keys_from(self, children, catalog) -> Keys:
        return _pair_keys(*children, self.on)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, str(self.on) if self.on is not None else None) + children

    def _label(self) -> str:
        return "join[on={}]".format(self.on if self.on is not None else "shared")


class MultiwayJoin(Expression):
    """The multiway join restoring a vertical decomposition (Section 3.1.1).

    The first input is the master fragment; every further input is merged into the
    master's tuples on the ``on`` attributes.  Master tuples without a partner in a
    dependent fragment stay as they are (variants simply contribute nothing), which
    is exactly why the restoration needs a multiway join rather than a chain of
    natural joins.
    """

    operator = "multiway-join"

    def __init__(self, inputs: Sequence[Expression], on):
        inputs = tuple(inputs)
        if len(inputs) < 2:
            raise AlgebraError("a multiway join needs at least two inputs")
        self.inputs = inputs
        self.on = attrset(on)
        if not self.on:
            raise AlgebraError("a multiway join needs join attributes")

    @property
    def children(self) -> Tuple[Expression, ...]:
        return self.inputs

    def with_children(self, children: Sequence[Expression]) -> "MultiwayJoin":
        return MultiwayJoin(tuple(children), self.on)

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        result: Set[Dependency] = set()
        for child in self.inputs:
            result |= set(child.known_dependencies(catalog))
        return result

    def keys_from(self, children, catalog) -> Keys:
        # a fragment keyed inside ``on`` merges into a master tuple at most once
        if all(any(key.issubset(self.on) for key in keys) for keys in children[1:]):
            return children[0]
        return _NO_KEYS

    def guaranteed_attributes(self) -> AttributeSet:
        # Only the master's: a master tuple lacking ``on`` passes through unmerged.
        return self.inputs[0].guaranteed_attributes()

    def established_equalities(self) -> Dict[str, object]:
        return self.inputs[0].established_equalities()

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return _universe_of(self.inputs, source)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, str(self.on), children)

    def _label(self) -> str:
        return "multiway-join[on={}]".format(self.on)


class Aggregate(_Unary):
    """``γ_{G; specs}(E)`` — group by ``G`` and aggregate, variant-aware.

    Grouping routes tuples *absent* on a group-by attribute into a distinct
    ⊥ group for that attribute (the output tuple simply omits it), so the
    operator never invents NULLs the way a padded model would.  The aggregate
    matrix (NULL vs absent per function) is pinned in
    :mod:`repro.algebra.analytic`.
    """

    operator = "aggregate"

    def __init__(self, child: Expression, group_by=(), specs=()):
        super().__init__(child)
        if isinstance(group_by, str):
            group_by = (group_by,)
        names: List[str] = []
        for item in group_by:
            name = item.name if hasattr(item, "name") else str(item)
            if name in names:
                raise AlgebraError(
                    "duplicate group-by attribute {!r}".format(name))
            names.append(name)
        self.group_by: Tuple[str, ...] = tuple(names)
        self.specs: Tuple[AggregateSpec, ...] = tuple(
            aggregate_spec(spec) for spec in specs)
        if not self.group_by and not self.specs:
            raise AlgebraError("aggregation needs group-by attributes or aggregates")
        outputs = set(self.group_by)
        for spec in self.specs:
            if spec.output in outputs:
                raise AlgebraError(
                    "duplicate aggregate output attribute {!r}".format(spec.output))
            outputs.add(spec.output)

    def known_dependencies(self, catalog=None) -> Set[Dependency]:
        # Grouping rebuilds tuples from scratch; no input dependency is known to
        # survive into (group key, aggregate) shapes — stay conservative.
        return set()

    def keys_from(self, children, catalog) -> Keys:
        # one tuple per group, and no ⊥ group when every group attribute is present
        group = attrset(self.group_by)
        if group.issubset(self.child.guaranteed_attributes()):
            return frozenset({group})
        return _NO_KEYS

    def guaranteed_attributes(self) -> AttributeSet:
        # Only count outputs are guaranteed: any other aggregate (and any group
        # key) can come out absent for the ⊥/never-present cases.
        return attrset(spec.output for spec in self.specs if spec.func == "count")

    def established_equalities(self) -> Dict[str, object]:
        return {}

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        return attrset(self.group_by) | attrset(spec.output for spec in self.specs)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        # Group-by order is semantically irrelevant, so sorting it lets
        # permuted spellings share one plan (the spec order is kept — it only
        # costs a cache miss, never a wrong reuse).
        return (self.operator, tuple(sorted(self.group_by)),
                tuple(spec.key() for spec in self.specs)) + children

    def _label(self) -> str:
        parts = []
        if self.group_by:
            parts.append("group=[{}]".format(", ".join(self.group_by)))
        parts.extend(repr(spec) for spec in self.specs)
        return "aggregate[{}]".format(", ".join(parts))


class Sort(_Unary):
    """``τ_keys(E)`` — order annotation over a set-valued expression.

    Flexible relations are sets, so a sort on its own is the identity; its
    keys become meaningful under a :class:`Limit` (top-k) and pin the
    NULL/absent-last ordering documented in :mod:`repro.algebra.analytic`.
    """

    operator = "sort"

    def __init__(self, child: Expression, keys):
        super().__init__(child)
        if isinstance(keys, (str, SortKey)):
            keys = (keys,)
        self.keys: Tuple[SortKey, ...] = tuple(sort_key(key) for key in keys)
        if not self.keys:
            raise AlgebraError("sort needs at least one key")

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, tuple(key.key() for key in self.keys)) + children

    def _label(self) -> str:
        return "sort[{}]".format(", ".join(repr(key) for key in self.keys))


class Limit(_Unary):
    """``λ_k(E)`` — the ``k`` smallest tuples of ``E``.

    Under a :class:`Sort` child the sort's keys define "smallest"; otherwise
    the canonical whole-tuple order does, which keeps the result deterministic
    across engines.  The result is a subset of the input, so dependencies,
    guarantees and equalities all pass through.
    """

    operator = "limit"

    def __init__(self, child: Expression, count: int):
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise AlgebraError("limit needs a non-negative integer count")
        super().__init__(child)
        self.count = count

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, self.count) + children

    def _label(self) -> str:
        return "limit[{}]".format(self.count)


class SubqueryExtension(_Unary):
    """``ε_{A:(Q)}(E)`` — extend every tuple by the scalar result of a subquery.

    ``Q`` must produce at most one tuple with exactly one attribute; its value
    (whatever the attribute is called) becomes ``A``.  An *empty* subquery
    result leaves the input untouched — ``A`` stays absent, the
    flexible-relation reading of a scalar NULL — which is why ``A`` is never a
    guaranteed attribute, while the child's dependencies keep holding (tuples
    only grow, uniformly).  More than one tuple (or a wider tuple) is an
    :class:`~repro.errors.AlgebraError`.
    """

    operator = "subquery-extend"

    def __init__(self, child: Expression, attribute, subquery: Expression):
        super().__init__(child)
        attribute_set = attrset(attribute)
        if len(attribute_set) != 1:
            raise AlgebraError("the subquery extension adds exactly one attribute")
        self.attribute = next(iter(attribute_set)).name
        self.subquery = subquery

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child, self.subquery)

    def with_children(self, children: Sequence[Expression]) -> "SubqueryExtension":
        node = copy(self)
        node.child, node.subquery = children
        return node

    def attribute_universe(self, source) -> Optional[AttributeSet]:
        child = self.child.attribute_universe(source)
        return None if child is None else child | attrset(self.attribute)

    def structural_key(self, children, params=None, constants=None) -> Tuple:
        return (self.operator, self.attribute) + children

    def _label(self) -> str:
        return "subquery-extend[{}]".format(self.attribute)
