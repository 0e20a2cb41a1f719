"""From an enhanced-ER design to a running database and back to types.

Models a vehicle fleet with a predicate-defined specialization (car / truck /
motorcycle), maps it one-to-one onto a flexible relation with an explicit attribute
dependency (Section 3.1), loads data, decomposes the relation horizontally and
vertically (Section 3.1.1), compares the storage footprint against the NULL-padded
single-table translation, and finally derives the record-subtype family and the
PASCAL-style variant record (Sections 3.2 and 3.3).

Run with::

    python examples/er_design_to_database.py
"""

from repro.baselines import NullPaddedTable
from repro.embedding import translate_scheme
from repro.engine import Database
from repro.er import (
    EntityType,
    Specialization,
    SpecializationSubclass,
    horizontal_decomposition,
    null_count,
    specialization_to_flexible_relation,
    vertical_decomposition,
)
from repro.model.domains import EnumDomain, FloatDomain, IntDomain, StringDomain


def design_specialization():
    vehicle = EntityType(
        "vehicle",
        {
            "vin": IntDomain(),
            "brand": StringDomain(),
            "kind": EnumDomain(["car", "truck", "motorcycle"]),
            "list_price": FloatDomain(),
        },
        key=["vin"],
    )
    return Specialization(vehicle, ["kind"], [
        SpecializationSubclass("car", {"kind": "car"},
                               {"doors": IntDomain(), "trunk_volume": FloatDomain()}),
        SpecializationSubclass("truck", {"kind": "truck"},
                               {"payload": FloatDomain(), "axles": IntDomain()}),
        SpecializationSubclass("motorcycle", {"kind": "motorcycle"},
                               {"engine_cc": IntDomain()}),
    ])


FLEET = [
    {"vin": 1, "brand": "astra", "kind": "car", "list_price": 21_000.0, "doors": 4, "trunk_volume": 0.45},
    {"vin": 2, "brand": "blitz", "kind": "truck", "list_price": 78_000.0, "payload": 12.5, "axles": 3},
    {"vin": 3, "brand": "comet", "kind": "motorcycle", "list_price": 9_500.0, "engine_cc": 650},
    {"vin": 4, "brand": "astra", "kind": "car", "list_price": 18_500.0, "doors": 2, "trunk_volume": 0.30},
    {"vin": 5, "brand": "dune", "kind": "truck", "list_price": 95_000.0, "payload": 18.0, "axles": 4},
    {"vin": 6, "brand": "echo", "kind": "motorcycle", "list_price": 7_200.0, "engine_cc": 400},
]


def main():
    specialization = design_specialization()
    print("specialization:", specialization)
    print("  disjoint:", specialization.is_disjoint(), " total:", specialization.is_total())

    mapping = specialization_to_flexible_relation(specialization)
    print("\nflexible scheme:", mapping.scheme)
    print("explicit AD:", mapping.dependency)

    database = Database()
    vehicles = mapping.create_table(database, name="vehicles")
    vehicles.insert_many(FLEET)
    print("\nloaded", len(vehicles), "vehicles")

    # ------------------------------------------------------------- decomposition --
    horizontal = horizontal_decomposition(vehicles, mapping.dependency)
    vertical = vertical_decomposition(vehicles, mapping.dependency, key=["vin"])
    print("\nhorizontal fragments:", {n: len(horizontal.fragment(n))
                                      for n in horizontal.fragment_names()})
    print("restored by outer union:", horizontal.is_lossless(vehicles))
    print("vertical fragments:", {n: len(vertical.fragment(n))
                                  for n in vertical.fragment_names()})
    print("restored by multiway join:", vertical.is_lossless(vehicles))

    flat = NullPaddedTable(mapping.scheme.attributes, mapping.dependency)
    flat.insert_many(set(vehicles))
    print("\nstorage comparison (cells): flexible =",
          sum(len(t) for t in vehicles),
          " flat single table =", flat.stored_cells(),
          " of which NULL =", flat.null_cells())
    assert flat.null_cells() == null_count(vehicles, mapping.scheme.attributes)

    # ----------------------------------------------------------------- subtyping --
    family = mapping.subtype_family()
    print("\nsubtype family:", family)
    anonymous = family.supertype.project("priced_thing", ["brand", "list_price"])
    print("dropping the determining attribute 'kind' from the supertype:",
          family.classify_candidate(anonymous))

    # ----------------------------------------------------------------- embedding --
    translation = translate_scheme(mapping.scheme, mapping.dependency, type_name="vehicle")
    print("\nPASCAL-style variant record:\n")
    print(translation.record_type.to_pascal())


if __name__ == "__main__":
    main()
