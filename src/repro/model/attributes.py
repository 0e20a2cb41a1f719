"""Attributes and attribute sets.

The paper works over a universe of attributes (denoted by the symbol "U" / "Ω" in the
text).  Attributes are plain named objects; attribute *sets* occur everywhere (scheme
components, the left and right sides of dependencies, the defined-on set ``attr(t)``
of a tuple) and the paper freely treats a single attribute as a singleton set.  This
module provides:

* :class:`Attribute` — an interned, hashable attribute name,
* :class:`AttributeSet` — an immutable, ordered-for-display set of attributes with
  the usual set algebra, and
* :func:`attrset` — a permissive constructor that accepts strings, attributes,
  iterables or ``None`` and normalizes them into an :class:`AttributeSet`,
  mirroring the paper's convention of "treat attributes as singleton attribute sets
  when sets of attributes are expected".
"""

from __future__ import annotations

from operator import attrgetter
from typing import FrozenSet, Iterable, Iterator, Union

from repro.errors import ReproError


class Attribute:
    """A named attribute of the universe.

    Attributes compare and hash by name, so two ``Attribute("salary")`` objects are
    interchangeable.  They sort alphabetically, which gives deterministic display
    order for schemes, dependencies and tuples.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise ReproError("attribute name must be a string, got {!r}".format(name))
        if not name:
            raise ReproError("attribute name must be non-empty")
        self._name = name

    @property
    def name(self) -> str:
        """The attribute's name."""
        return self._name

    def __eq__(self, other) -> bool:
        if isinstance(other, Attribute):
            return self._name == other._name
        if isinstance(other, str):
            return self._name == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Attribute):
            return self._name < other._name
        if isinstance(other, str):
            return self._name < other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._name)

    def __repr__(self) -> str:
        return "Attribute({!r})".format(self._name)

    def __str__(self) -> str:
        return self._name


#: an attribute's name, read at C speed: the sort key of attribute sets
_NAME = attrgetter("_name")

AttributeLike = Union[str, Attribute]
AttributesLike = Union[None, AttributeLike, Iterable[AttributeLike], "AttributeSet"]


def _as_attribute(value: AttributeLike) -> Attribute:
    """Coerce a string or attribute into an :class:`Attribute`."""
    if isinstance(value, Attribute):
        return value
    if isinstance(value, str):
        return Attribute(value)
    raise ReproError("cannot interpret {!r} as an attribute".format(value))


class AttributeSet:
    """An immutable set of attributes with set algebra and stable display order.

    The class intentionally mirrors ``frozenset`` (it supports ``in``, iteration,
    ``len``, union/intersection/difference, subset tests) but renders as the familiar
    juxtaposition notation of dependency theory, e.g. ``ABC`` for small single-letter
    attributes and ``{salary, jobtype}`` otherwise.
    """

    __slots__ = ("_attrs",)

    def __init__(self, attributes: AttributesLike = None):
        if attributes is None:
            items: Iterable[AttributeLike] = ()
        elif isinstance(attributes, (str, Attribute)):
            items = (attributes,)
        elif isinstance(attributes, AttributeSet):
            items = attributes._attrs
        else:
            items = attributes
        self._attrs: FrozenSet[Attribute] = frozenset(_as_attribute(a) for a in items)

    # -- basic container protocol -------------------------------------------------

    def __contains__(self, item) -> bool:
        try:
            return _as_attribute(item) in self._attrs
        except ReproError:
            return False

    def __iter__(self) -> Iterator[Attribute]:
        return iter(sorted(self._attrs, key=_NAME))

    def __len__(self) -> int:
        return len(self._attrs)

    def __bool__(self) -> bool:
        return bool(self._attrs)

    def __eq__(self, other) -> bool:
        if isinstance(other, AttributeSet):
            return self._attrs == other._attrs
        if isinstance(other, (set, frozenset)):
            # an Attribute equals its name, so names compare as they are
            return self._attrs == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._attrs)

    def __le__(self, other) -> bool:
        return self.issubset(other)

    def __lt__(self, other) -> bool:
        other = attrset(other)
        return self.issubset(other) and self != other

    def __ge__(self, other) -> bool:
        return attrset(other).issubset(self)

    def __gt__(self, other) -> bool:
        other = attrset(other)
        return other.issubset(self) and self != other

    # -- set algebra ---------------------------------------------------------------

    def union(self, *others: AttributesLike) -> "AttributeSet":
        """Return the union of this set with every argument."""
        result = set(self._attrs)
        for other in others:
            result |= attrset(other)._attrs
        return AttributeSet(result)

    def intersection(self, other: AttributesLike) -> "AttributeSet":
        """Return the intersection with ``other``."""
        return AttributeSet(self._attrs & attrset(other)._attrs)

    def difference(self, other: AttributesLike) -> "AttributeSet":
        """Return the attributes of this set not contained in ``other``."""
        return AttributeSet(self._attrs - attrset(other)._attrs)

    def symmetric_difference(self, other: AttributesLike) -> "AttributeSet":
        """Return attributes contained in exactly one of the two sets."""
        return AttributeSet(self._attrs ^ attrset(other)._attrs)

    def __or__(self, other: AttributesLike) -> "AttributeSet":
        return self.union(other)

    def __and__(self, other: AttributesLike) -> "AttributeSet":
        return self.intersection(other)

    def __sub__(self, other: AttributesLike) -> "AttributeSet":
        return self.difference(other)

    def __xor__(self, other: AttributesLike) -> "AttributeSet":
        return self.symmetric_difference(other)

    def issubset(self, other: AttributesLike) -> bool:
        """``True`` if every attribute of this set is in ``other``."""
        return self._attrs <= attrset(other)._attrs

    def issuperset(self, other: AttributesLike) -> bool:
        """``True`` if this set contains every attribute of ``other``."""
        return self._attrs >= attrset(other)._attrs

    def isdisjoint(self, other: AttributesLike) -> bool:
        """``True`` if this set shares no attribute with ``other``."""
        return self._attrs.isdisjoint(attrset(other)._attrs)

    # -- convenience ----------------------------------------------------------------

    @property
    def names(self) -> tuple:
        """Sorted tuple of attribute names."""
        return tuple(sorted(map(_NAME, self._attrs)))

    def as_frozenset(self) -> FrozenSet[Attribute]:
        """The underlying frozenset of :class:`Attribute` objects."""
        return self._attrs

    def __repr__(self) -> str:
        return "AttributeSet({})".format(", ".join(map(repr, self.names)))

    def __str__(self) -> str:
        if not self._attrs:
            return "∅"
        names = self.names
        joined = "".join(names)
        if len(joined) == len(names):  # every name one character long
            return joined
        return "{" + ", ".join(names) + "}"


def attrset(attributes: AttributesLike = None) -> AttributeSet:
    """Normalize ``attributes`` into an :class:`AttributeSet`.

    Accepts ``None`` (empty set), a single attribute or attribute name, an iterable
    of either, or an existing :class:`AttributeSet` (returned unchanged).
    """
    if isinstance(attributes, AttributeSet):
        return attributes
    return AttributeSet(attributes)
