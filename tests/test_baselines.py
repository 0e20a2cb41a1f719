"""Tests for the baselines: NULL-padded tables, the multirelation model, plain subtyping."""

import pytest

from repro.baselines import (
    BooleanFlagTable,
    ImageAttribute,
    Multirelation,
    NullPaddedTable,
)
from repro.engine import Table
from repro.errors import ReproError
from repro.model.attributes import attrset
from repro.model.tuples import FlexTuple
from repro.workloads.employees import (
    employee_definition,
    employee_dependency,
    employee_scheme,
    generate_employees,
)


@pytest.fixture
def loaded_table():
    table = Table(employee_definition())
    table.insert_many(generate_employees(40, seed=23))
    return table


class TestNullPaddedTable:
    def test_rows_are_padded(self, jobtype_ead):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        row = flat.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                           "typing_speed": 1, "foreign_languages": "fr"})
        assert row["products"] is None and row["sales_commission"] is None
        assert row["variant_tag"] == "secretary"

    def test_null_cells_counted(self, jobtype_ead, loaded_table):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        # every employee has exactly 2 of the 5 variant attributes → 3 NULLs per row
        assert flat.null_cells() == 3 * len(loaded_table)
        assert flat.stored_cells() == len(loaded_table) * 10

    def test_accepts_invalid_tuples_silently(self, jobtype_ead):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "salesman",
                     "typing_speed": 1, "foreign_languages": "fr"})
        assert len(flat) == 1
        assert len(flat.inconsistent_rows()) == 1

    def test_wrong_manual_tag_detected_only_on_inspection(self, jobtype_ead):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                     "typing_speed": 1, "foreign_languages": "fr"}, tag="salesman")
        assert len(flat.inconsistent_rows()) == 1

    def test_consistent_rows_report_clean(self, jobtype_ead, loaded_table):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        assert flat.inconsistent_rows() == []

    def test_round_trip_to_tuples(self, jobtype_ead, loaded_table):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        assert flat.to_tuples() == set(loaded_table)

    def test_unknown_attribute_rejected(self, jobtype_ead):
        flat = NullPaddedTable(employee_scheme().attributes, jobtype_ead)
        with pytest.raises(ReproError):
            flat.insert({"unknown": 1})

    def test_tag_attribute_clash_rejected(self, jobtype_ead):
        with pytest.raises(ReproError):
            NullPaddedTable(employee_scheme().attributes, jobtype_ead, tag_attribute="salary")


class TestBooleanFlagTable:
    def test_flags_set_per_variant(self, jobtype_ead):
        flat = BooleanFlagTable(employee_scheme().attributes, jobtype_ead)
        row = flat.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                           "typing_speed": 1, "foreign_languages": "fr"})
        assert row["is_secretary"] is True
        assert row["is_salesman"] is False

    def test_metrics_and_consistency(self, jobtype_ead, loaded_table):
        flat = BooleanFlagTable(employee_scheme().attributes, jobtype_ead)
        flat.insert_many(set(loaded_table))
        assert flat.null_cells() == 3 * len(loaded_table)
        assert flat.stored_cells() == len(loaded_table) * (9 + 3)
        assert flat.inconsistent_rows() == []
        assert flat.to_tuples() == set(loaded_table)

    def test_wrong_flags_detected(self, jobtype_ead):
        flat = BooleanFlagTable(employee_scheme().attributes, jobtype_ead)
        flat.insert({"emp_id": 1, "name": "x", "salary": 1.0, "jobtype": "secretary",
                     "typing_speed": 1, "foreign_languages": "fr"}, tag=False)
        assert len(flat.inconsistent_rows()) == 1


@pytest.fixture
def employee_multirelation():
    return Multirelation(
        ["emp_id", "name", "salary", "jobtype"],
        ["emp_id"],
        ImageAttribute("image", ["secretaries", "engineers", "salesmen"]),
        {
            "secretaries": ["emp_id", "typing_speed", "foreign_languages"],
            "engineers": ["emp_id", "products", "programming_languages"],
            "salesmen": ["emp_id", "products", "sales_commission"],
        },
    )


class TestMultirelation:
    def test_routing_to_depending_relations(self, employee_multirelation):
        employee_multirelation.insert({"emp_id": 1, "name": "x", "salary": 1.0,
                                       "jobtype": "secretary", "typing_speed": 1,
                                       "foreign_languages": "fr"})
        assert len(employee_multirelation.depending_rows["secretaries"]) == 1
        assert employee_multirelation.master_rows[0]["image"] == "secretaries"

    def test_entity_without_variant_gets_null_image(self, employee_multirelation):
        employee_multirelation.insert({"emp_id": 2, "name": "y", "salary": 1.0,
                                       "jobtype": "secretary"})
        assert employee_multirelation.master_rows[0]["image"] is None

    def test_restore_round_trip(self, employee_multirelation, loaded_table):
        employee_multirelation.insert_many(set(loaded_table))
        assert employee_multirelation.restore() == set(loaded_table)

    def test_unknown_variant_combination_rejected(self, employee_multirelation):
        with pytest.raises(ReproError):
            employee_multirelation.insert({"emp_id": 3, "name": "z", "salary": 1.0,
                                           "jobtype": "salesman", "typing_speed": 1})

    def test_missing_key_rejected(self, employee_multirelation):
        with pytest.raises(ReproError):
            employee_multirelation.insert({"name": "z"})

    def test_image_attribute_validation(self):
        with pytest.raises(ReproError):
            ImageAttribute("", ["r"])
        with pytest.raises(ReproError):
            ImageAttribute("image", [])
        with pytest.raises(ReproError):
            Multirelation(["a"], ["a"], ImageAttribute("image", ["missing"]), {"other": ["a"]})

    def test_key_must_be_in_master(self):
        with pytest.raises(ReproError):
            Multirelation(["a"], ["z"], ImageAttribute("image", ["r"]), {"r": ["z", "b"]})

    def test_image_attribute_is_a_special_case_of_an_ad(self, employee_multirelation, loaded_table):
        # Section 5: translate the multirelation into the equivalent explicit AD and
        # check that it accepts exactly the restored instance extended by the image value.
        employee_multirelation.insert_many(set(loaded_table))
        dependency = employee_multirelation.to_explicit_ad()
        assert dependency.lhs == attrset(["image"])
        for master_row in employee_multirelation.master_rows:
            if master_row["image"] is None:
                continue
            key_value = master_row["emp_id"]
            original = next(t for t in set(loaded_table) if t["emp_id"] == key_value)
            tagged = original.extend(image=master_row["image"])
            assert dependency.check_tuple(tagged)

    def test_stored_cells_metric(self, employee_multirelation, loaded_table):
        employee_multirelation.insert_many(set(loaded_table))
        assert employee_multirelation.stored_cells() > 0
        assert len(employee_multirelation) == len(loaded_table)
