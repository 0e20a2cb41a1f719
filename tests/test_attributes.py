"""Tests for the attribute universe and attribute sets."""

import pytest

from repro.errors import ReproError
from repro.model.attributes import Attribute, AttributeSet, attrset


class TestAttribute:
    def test_equality_by_name(self):
        assert Attribute("salary") == Attribute("salary")

    def test_equality_with_string(self):
        assert Attribute("salary") == "salary"

    def test_inequality(self):
        assert Attribute("salary") != Attribute("jobtype")

    def test_hash_by_name(self):
        assert hash(Attribute("salary")) == hash(Attribute("salary"))
        assert len({Attribute("a"), Attribute("a"), Attribute("b")}) == 2

    def test_sorts_alphabetically(self):
        assert sorted([Attribute("b"), Attribute("a")]) == [Attribute("a"), Attribute("b")]

    def test_rejects_empty_name(self):
        with pytest.raises(ReproError):
            Attribute("")

    def test_rejects_non_string(self):
        with pytest.raises(ReproError):
            Attribute(42)

    def test_str_and_repr(self):
        assert str(Attribute("salary")) == "salary"
        assert "salary" in repr(Attribute("salary"))


class TestAttributeSetConstruction:
    def test_from_none_is_empty(self):
        assert len(AttributeSet()) == 0
        assert not AttributeSet()

    def test_from_single_string(self):
        assert list(AttributeSet("salary")) == [Attribute("salary")]

    def test_from_single_attribute(self):
        assert Attribute("a") in AttributeSet(Attribute("a"))

    def test_from_iterable_of_strings(self):
        assert len(AttributeSet(["a", "b", "c"])) == 3

    def test_duplicates_collapse(self):
        assert len(AttributeSet(["a", "a", "b"])) == 2

    def test_attrset_is_idempotent(self):
        original = attrset(["a", "b"])
        assert attrset(original) is original

    def test_rejects_garbage_members(self):
        with pytest.raises(ReproError):
            AttributeSet([1, 2])


class TestAttributeSetAlgebra:
    def test_union(self):
        assert attrset("ab") != attrset(["a", "b"])  # "ab" is one attribute name
        assert attrset(["a"]) | attrset(["b"]) == attrset(["a", "b"])

    def test_union_accepts_strings(self):
        assert attrset(["a"]).union("b", ["c"]) == attrset(["a", "b", "c"])

    def test_intersection(self):
        assert attrset(["a", "b"]) & attrset(["b", "c"]) == attrset(["b"])

    def test_difference(self):
        assert attrset(["a", "b"]) - attrset(["b"]) == attrset(["a"])

    def test_symmetric_difference(self):
        assert attrset(["a", "b"]) ^ attrset(["b", "c"]) == attrset(["a", "c"])

    def test_subset_and_superset(self):
        assert attrset(["a"]).issubset(["a", "b"])
        assert attrset(["a", "b"]).issuperset(["a"])
        assert attrset(["a"]) <= attrset(["a"])
        assert not attrset(["a"]) < attrset(["a"])
        assert attrset(["a", "b"]) > attrset(["a"])

    def test_disjointness(self):
        assert attrset(["a"]).isdisjoint(["b"])
        assert not attrset(["a", "b"]).isdisjoint(["b"])

    def test_containment_of_string(self):
        assert "a" in attrset(["a", "b"])
        assert "z" not in attrset(["a", "b"])
        assert 42 not in attrset(["a"])

    def test_equality_with_plain_set(self):
        assert attrset(["a", "b"]) == {"a", "b"}
        assert attrset(["a", "b"]) == frozenset({Attribute("a"), "b"})
        assert attrset(["a", "b"]) != frozenset({"a"})
        assert (attrset(["a"]) == frozenset({1})) is False

    def test_a_name_set_key_finds_an_attribute_set_key_without_building_one(
            self, employee_table, monkeypatch):
        """The index memo of a table, keyed by whichever form asked first,
        answers the other form by comparing members as they are."""
        key, names = attrset(["emp_id"]), frozenset({"emp_id"})
        index = employee_table.index_for(key)
        assert index is not None
        built = []
        construct = AttributeSet.__init__

        def counting(self, attributes=None):
            built.append(attributes)
            construct(self, attributes)

        monkeypatch.setattr(AttributeSet, "__init__", counting)
        for _ in range(50):
            assert employee_table.index_for(names) is index
            assert employee_table.index_for(key) is index
        assert built == []

    def test_hashable(self):
        assert len({attrset(["a", "b"]), attrset(["b", "a"])}) == 1

    def test_iteration_is_sorted(self):
        assert [a.name for a in attrset(["c", "a", "b"])] == ["a", "b", "c"]

    def test_names(self):
        assert attrset(["b", "a"]).names == ("a", "b")


class TestAttributeSetDisplay:
    def test_empty_set_renders_as_empty_symbol(self):
        assert str(AttributeSet()) == "∅"

    def test_single_letter_attributes_juxtaposed(self):
        assert str(attrset(["B", "A"])) == "AB"

    def test_long_names_use_braces(self):
        rendered = str(attrset(["salary", "jobtype"]))
        assert rendered.startswith("{") and "salary" in rendered
