"""Selection predicates.

Predicates evaluate against single tuples.  Because tuples are heterogeneous, value
access is guarded: a comparison over an attribute the tuple does not possess is
*false* (it does not raise) — exactly the behaviour the paper requires when it says
"the access of values must be preceded by a type guard when structural variants are
allowed" (Section 4.2).  A comparison therefore acts as an implicit type guard on
the attributes it mentions.

For the optimizer the interesting question is what a predicate *implies*:

* :meth:`Predicate.implied_equalities` extracts the attribute→value bindings that
  every satisfying tuple must exhibit (conjunctions of equality comparisons — the
  shape used in Example 4's ``salary > 5000 AND jobtype = 'secretary'``);
* :meth:`Predicate.required_attributes` lists the attributes whose presence is
  forced by the predicate.

A comparison constant may be a :class:`Parameter` — a numbered slot bound per
call (:meth:`Predicate.substitute`).  Parameters are *opaque* to
``implied_equalities``: a query template is rewritten once, for every binding,
so the rewrite rules must not read a value that changes from call to call.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Tuple

from repro.errors import PredicateError
from repro.model.attributes import AttributeSet, attrset
from repro.model.tuples import FlexTuple

_OPERATORS: Dict[str, Callable] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda value, collection: value in collection,
}


class Parameter:
    """A numbered slot standing for a comparison constant that is bound per call."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot

    def __repr__(self) -> str:
        return "?{}".format(self.slot)


class Predicate:
    """Base class of all selection predicates."""

    def evaluate(self, tup: FlexTuple) -> bool:
        """``True`` when the tuple satisfies the predicate."""
        raise NotImplementedError

    def __call__(self, tup: FlexTuple) -> bool:
        return self.evaluate(tup)

    @property
    def attributes(self) -> AttributeSet:
        """Every attribute mentioned by the predicate."""
        raise NotImplementedError

    def required_attributes(self) -> AttributeSet:
        """Attributes whose presence is necessary for the predicate to hold.

        Conservative: predicates under negation or disjunction contribute nothing.
        """
        return AttributeSet()

    def implied_equalities(self, parameters: bool = False) -> Dict[str, object]:
        """Attribute→value bindings every satisfying tuple must exhibit.

        Equalities against a :class:`Parameter` are left out unless
        ``parameters`` is set (index scans want them: they probe with the
        bound value).
        """
        return {}

    def map_comparisons(self, function: Callable) -> "Predicate":
        """This predicate with ``function`` applied to every :class:`Comparison`
        (``self`` when nothing changed)."""
        return self

    def substitute(self, params) -> "Predicate":
        """This predicate with every :class:`Parameter` replaced by its value."""
        if not params:
            return self
        return self.map_comparisons(lambda comparison: comparison.bound(params))

    def render(self, constants: Optional[list] = None) -> str:
        """The predicate's text (its ``repr``); with ``constants`` every comparison
        constant shows as ``?`` and its comparison is appended to the list."""
        return repr(self)

    # -- combinators ----------------------------------------------------------------

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class TruePredicate(Predicate):
    """The predicate satisfied by every tuple."""

    def evaluate(self, tup: FlexTuple) -> bool:
        return True

    @property
    def attributes(self) -> AttributeSet:
        return AttributeSet()

    def __repr__(self) -> str:
        return "TRUE"


class FalsePredicate(Predicate):
    """The predicate satisfied by no tuple (used to mark contradictory selections)."""

    def evaluate(self, tup: FlexTuple) -> bool:
        return False

    @property
    def attributes(self) -> AttributeSet:
        return AttributeSet()

    def __repr__(self) -> str:
        return "FALSE"


class Comparison(Predicate):
    """``attribute <op> constant`` with guarded attribute access."""

    def __init__(self, attribute, op: str, value):
        if op not in _OPERATORS:
            raise PredicateError("unknown comparison operator {!r}".format(op))
        self.attribute = attrset(attribute)
        if len(self.attribute) != 1:
            raise PredicateError("a comparison refers to exactly one attribute")
        self.op = op
        self.value = value

    @property
    def _name(self) -> str:
        return next(iter(self.attribute)).name

    def evaluate(self, tup: FlexTuple) -> bool:
        if self._name not in tup:
            return False
        try:
            return bool(_OPERATORS[self.op](tup[self._name], self.value))
        except TypeError:
            return False

    @property
    def attributes(self) -> AttributeSet:
        return self.attribute

    def required_attributes(self) -> AttributeSet:
        return self.attribute

    def implied_equalities(self, parameters: bool = False) -> Dict[str, object]:
        if self.op in ("=", "==") and (
                parameters or self.value.__class__ is not Parameter):
            return {self._name: self.value}
        return {}

    def map_comparisons(self, function: Callable) -> Predicate:
        return function(self)

    def constant(self, params):
        """The constant compared with, under the parameter binding ``params``."""
        value = self.value
        return params[value.slot] if value.__class__ is Parameter else value

    def bound(self, params) -> "Comparison":
        """This comparison with its parameter (if it has one) replaced by its value."""
        if self.value.__class__ is not Parameter:
            return self
        return Comparison(self.attribute, self.op, self.constant(params))

    def render(self, constants: Optional[list] = None) -> str:
        if constants is None:
            return "{} {} {!r}".format(self._name, self.op, self.value)
        constants.append(self)
        return "{} {} ?".format(self._name, self.op)

    __repr__ = render


class AttributeComparison(Predicate):
    """``attribute <op> attribute`` (e.g. join conditions inside a selection)."""

    def __init__(self, left, op: str, right):
        if op not in _OPERATORS:
            raise PredicateError("unknown comparison operator {!r}".format(op))
        self.left = attrset(left)
        self.right = attrset(right)
        if len(self.left) != 1 or len(self.right) != 1:
            raise PredicateError("an attribute comparison refers to exactly two attributes")
        self.op = op

    def evaluate(self, tup: FlexTuple) -> bool:
        left = next(iter(self.left)).name
        right = next(iter(self.right)).name
        if left not in tup or right not in tup:
            return False
        try:
            return bool(_OPERATORS[self.op](tup[left], tup[right]))
        except TypeError:
            return False

    @property
    def attributes(self) -> AttributeSet:
        return self.left | self.right

    def required_attributes(self) -> AttributeSet:
        return self.left | self.right

    def __repr__(self) -> str:
        return "{} {} {}".format(
            next(iter(self.left)).name, self.op, next(iter(self.right)).name
        )


class PresencePredicate(Predicate):
    """An explicit type guard inside a predicate: ``attributes ⊆ attr(t)``."""

    def __init__(self, attributes):
        self._attributes = attrset(attributes)

    def evaluate(self, tup: FlexTuple) -> bool:
        return tup.is_defined_on(self._attributes)

    @property
    def attributes(self) -> AttributeSet:
        return self._attributes

    def required_attributes(self) -> AttributeSet:
        return self._attributes

    def __repr__(self) -> str:
        return "HAS {}".format(self._attributes)


class _Connective(Predicate):
    """What conjunction and disjunction share: flattened operands, one text."""

    word = ""

    def __init__(self, *operands: Predicate):
        if not operands:
            raise PredicateError("{} needs at least one operand".format(self.word))
        flattened = []
        for operand in operands:
            if isinstance(operand, type(self)):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        self.operands: Tuple[Predicate, ...] = tuple(flattened)

    @property
    def attributes(self) -> AttributeSet:
        result = AttributeSet()
        for operand in self.operands:
            result = result | operand.attributes
        return result

    def map_comparisons(self, function: Callable) -> Predicate:
        operands = [operand.map_comparisons(function) for operand in self.operands]
        if all(new is old for new, old in zip(operands, self.operands)):
            return self
        return type(self)(*operands)

    def render(self, constants: Optional[list] = None) -> str:
        return "(" + " {} ".format(self.word).join(
            operand.render(constants) for operand in self.operands) + ")"

    __repr__ = render


class And(_Connective):
    """Conjunction of predicates."""

    word = "AND"

    def evaluate(self, tup: FlexTuple) -> bool:
        return all(operand.evaluate(tup) for operand in self.operands)

    def required_attributes(self) -> AttributeSet:
        result = AttributeSet()
        for operand in self.operands:
            result = result | operand.required_attributes()
        return result

    def implied_equalities(self, parameters: bool = False) -> Dict[str, object]:
        result: Dict[str, object] = {}
        for operand in self.operands:
            result.update(operand.implied_equalities(parameters))
        return result


class Or(_Connective):
    """Disjunction of predicates."""

    word = "OR"

    def evaluate(self, tup: FlexTuple) -> bool:
        return any(operand.evaluate(tup) for operand in self.operands)

    def implied_equalities(self, parameters: bool = False) -> Dict[str, object]:
        # An equality is implied by a disjunction only when every branch implies it.
        branches = [operand.implied_equalities(parameters) for operand in self.operands]
        common = dict(branches[0])
        for branch in branches[1:]:
            for key in list(common):
                if key not in branch or branch[key] != common[key]:
                    del common[key]
        return common


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, operand: Predicate):
        self.operand = operand

    def evaluate(self, tup: FlexTuple) -> bool:
        return not self.operand.evaluate(tup)

    @property
    def attributes(self) -> AttributeSet:
        return self.operand.attributes

    def map_comparisons(self, function: Callable) -> Predicate:
        operand = self.operand.map_comparisons(function)
        return self if operand is self.operand else Not(operand)

    def render(self, constants: Optional[list] = None) -> str:
        return "NOT ({})".format(self.operand.render(constants))

    __repr__ = render


def attribute_equals(attribute, value) -> Comparison:
    """Shorthand for the ubiquitous equality comparison."""
    return Comparison(attribute, "=", value)
