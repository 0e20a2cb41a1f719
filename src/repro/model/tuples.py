"""Heterogeneous tuples.

A tuple of a flexible relation is a mapping from *some* attribute set to values; two
tuples of the same relation may be defined on different attribute sets.  The paper
assumes a function ``attr(t)`` yielding the attribute set a tuple is defined on, and
uses ``t[X]`` both for single-attribute access and for the restriction of ``t`` to an
attribute set.  :class:`FlexTuple` provides exactly that interface.

Tuples are immutable and hashable so that instances of flexible relations can be
ordinary Python sets, mirroring the paper's set-of-tuples semantics (duplicate
elimination under projection and union comes for free).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import TupleError
from repro.model.attributes import Attribute, AttributeSet, attrset


class FlexTuple:
    """An immutable heterogeneous tuple.

    Construct it from a mapping or from keyword arguments::

        t = FlexTuple(jobtype="secretary", salary=4200.0)
        t = FlexTuple({"jobtype": "secretary", "salary": 4200.0})

    ``attr(t)`` from the paper is :attr:`attributes`; ``t[X]`` is implemented by
    ``__getitem__`` (single attribute → value) and :meth:`project` (attribute set →
    sub-tuple).
    """

    __slots__ = ("_values", "_attrs", "_hash")

    def __init__(self, values: Mapping = None, **kwargs):
        merged: Dict[str, object] = dict(values) if values is not None else {}
        for key in merged:
            if type(key) is not str:
                # Attribute objects (or bad keys) among the names: normalize them all.
                merged = {_attr_name(key): value for key, value in merged.items()}
                break
        for key, value in kwargs.items():
            if key in merged:
                raise TupleError("attribute {!r} given twice".format(key))
            merged[key] = value
        self._values: Dict[str, object] = merged
        self._attrs = None
        self._hash = hash(frozenset(self._values.items()))

    @classmethod
    def from_parts(cls, values: Dict[str, object], hash_: int = None) -> "FlexTuple":
        """Fast construction from an already-normalized value dict.

        The batch execution layer (:mod:`repro.model.batches`) builds merged /
        transformed value dicts column-at-a-time and materializes tuples only
        when something needs row objects; this constructor skips the
        per-attribute normalization of ``__init__`` and reuses a precomputed
        hash when the caller already derived one (``hash(frozenset(items))`` —
        the exact hash ``__init__`` computes).  ``values`` is adopted by
        reference and must never be mutated afterwards, and every key must be a
        plain attribute-name string.
        """
        self = cls.__new__(cls)
        self._values = values
        self._attrs = None
        self._hash = hash(frozenset(values.items())) if hash_ is None else hash_
        return self

    # -- the paper's interface ------------------------------------------------------

    @property
    def attributes(self) -> AttributeSet:
        """``attr(t)`` — the attribute set this tuple is defined on.

        Built lazily: result tuples that are only hashed, compared or read by
        value (the vast majority in the execution engine) never pay for the
        attribute-set object.
        """
        attrs = self._attrs
        if attrs is None:
            attrs = AttributeSet(self._values.keys())
            self._attrs = attrs
        return attrs

    def is_defined_on(self, attributes) -> bool:
        """``True`` when every attribute of ``attributes`` is present (a type guard)."""
        values = self._values
        return all(a.name in values for a in attrset(attributes))

    def project(self, attributes) -> "FlexTuple":
        """``t[X]`` — restrict the tuple to the attribute set ``X``.

        Every requested attribute must be present; use :meth:`project_existing` for
        the partial restriction used by outer operators.
        """
        attributes = attrset(attributes)
        missing = attributes - self.attributes
        if missing:
            raise TupleError(
                "tuple is not defined on {}; defined on {}".format(missing, self.attributes)
            )
        return FlexTuple({a.name: self._values[a.name] for a in attributes})

    def project_existing(self, attributes) -> "FlexTuple":
        """Restrict to the attributes of ``X`` that the tuple actually possesses."""
        attributes = attrset(attributes) & self.attributes
        return FlexTuple({a.name: self._values[a.name] for a in attributes})

    def agrees_with(self, other: "FlexTuple", attributes) -> bool:
        """``t1[X] = t2[X]`` — both defined on ``X`` and equal there."""
        attributes = attrset(attributes)
        if not (self.is_defined_on(attributes) and other.is_defined_on(attributes)):
            return False
        return all(self[a] == other[a] for a in attributes)

    # -- mapping protocol -------------------------------------------------------------

    def __getitem__(self, attribute):
        name = _attr_name(attribute)
        try:
            return self._values[name]
        except KeyError:
            raise TupleError(
                "tuple is not defined on attribute {!r} (defined on {})".format(
                    name, self.attributes
                )
            ) from None

    def get(self, attribute, default=None):
        """Value of ``attribute`` or ``default`` when the tuple lacks it."""
        return self._values.get(_attr_name(attribute), default)

    def __contains__(self, attribute) -> bool:
        return _attr_name(attribute) in self._values

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[Tuple[str, object]]:
        """Iterate ``(attribute name, value)`` pairs in sorted attribute order."""
        for attribute in self.attributes:
            yield attribute.name, self._values[attribute.name]

    def as_dict(self) -> Dict[str, object]:
        """A plain ``dict`` copy of the tuple."""
        return dict(self._values)

    # -- derivation of new tuples -------------------------------------------------------

    def extend(self, **new_values) -> "FlexTuple":
        """Return a copy extended by the given attributes (the ε operator on tuples).

        Extending with an attribute the tuple already possesses is an error: the
        extension operator of Section 4.3 adds a *new* tag attribute.
        """
        for key in new_values:
            if key in self._values:
                raise TupleError("attribute {!r} already present".format(key))
        merged = dict(self._values)
        merged.update(new_values)
        return FlexTuple(merged)

    def replace(self, **new_values) -> "FlexTuple":
        """Return a copy with existing attribute values replaced."""
        for key in new_values:
            if key not in self._values:
                raise TupleError("attribute {!r} not present; use extend()".format(key))
        merged = dict(self._values)
        merged.update(new_values)
        return FlexTuple(merged)

    def remove(self, attributes) -> "FlexTuple":
        """Return a copy without the given attributes (must all be present)."""
        attributes = attrset(attributes)
        return self.project(self.attributes - attributes)

    def merge(self, other: "FlexTuple") -> "FlexTuple":
        """Combine two tuples defined on disjoint or agreeing attribute sets.

        Used by the cartesian product and the multiway join; overlapping attributes
        must agree, otherwise the merge is rejected.
        """
        merged = dict(self._values)
        for name, value in other.items():
            if name in merged and merged[name] != value:
                raise TupleError(
                    "cannot merge tuples: they disagree on attribute {!r}".format(name)
                )
            merged[name] = value
        return FlexTuple(merged)

    # -- equality -------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FlexTuple):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == {_attr_name(k): v for k, v in other.items()}
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("{}: {!r}".format(name, value) for name, value in self.items())
        return "<{}>".format(inner)


def _attr_name(attribute) -> str:
    """Normalize an attribute or attribute name into a plain string key."""
    if isinstance(attribute, Attribute):
        return attribute.name
    if isinstance(attribute, str):
        return attribute
    raise TupleError("cannot interpret {!r} as an attribute".format(attribute))
