"""Random workload generators: schemes, explicit ADs and heterogeneous instances.

These generators drive the scaling sweeps of the benchmarks (how does DNF size grow
with the number of optional components? how does type-checking throughput scale with
the number of variants?) and give the property-based tests a second source of inputs
besides hypothesis strategies.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random
import string
from typing import Dict, List, Sequence

from repro.core.dependencies import ExplicitAttributeDependency, Variant
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple


def _attribute_names(count: int, prefix: str = "a") -> List[str]:
    """``count`` distinct attribute names: a1, a2, ... (single letters for small counts)."""
    if count <= 26 and prefix == "a":
        return list(string.ascii_uppercase[:count])
    return ["{}{}".format(prefix, index) for index in range(1, count + 1)]


def random_flexible_scheme(
    base_attributes: int = 3,
    variant_groups: int = 2,
    attributes_per_group: int = 3,
    seed: int = 0,
) -> FlexibleScheme:
    """A scheme with unconditioned attributes plus several union components.

    Each variant group becomes either a disjoint union ``<1,1,...>``, a non-disjoint
    union ``<1,n,...>`` or an optional block ``<0,n,...>``, chosen at random.
    """
    rng = random.Random(seed)
    names = _attribute_names(base_attributes + variant_groups * attributes_per_group)
    base = names[:base_attributes]
    components: List[object] = list(base)
    cursor = base_attributes
    for _ in range(variant_groups):
        group = names[cursor:cursor + attributes_per_group]
        cursor += attributes_per_group
        kind = rng.choice(("disjoint", "non-disjoint", "optional"))
        if kind == "disjoint":
            components.append(FlexibleScheme(1, 1, group))
        elif kind == "non-disjoint":
            components.append(FlexibleScheme(1, len(group), group))
        else:
            components.append(FlexibleScheme(0, len(group), group))
    total = len(components)
    return FlexibleScheme(total, total, components)


def random_explicit_ad(
    determinant: str = "kind",
    variant_count: int = 3,
    attributes_per_variant: int = 2,
    shared_attributes: int = 0,
    seed: int = 0,
    prefix: str = "v",
) -> ExplicitAttributeDependency:
    """An explicit AD with ``variant_count`` variants over generated attributes.

    ``shared_attributes`` attributes are shared between consecutive variants, which
    produces *overlapping* (non-disjoint) specializations like the paper's
    ``products`` attribute.  ``prefix`` names the generated variant attributes, so
    two dependencies over disjoint attribute sets can be generated side by side.
    """
    rng = random.Random(seed)
    del rng  # reserved for future randomized shapes; the structure itself is deterministic
    variants = []
    all_attributes: List[str] = []
    previous: List[str] = []
    for index in range(variant_count):
        fresh = [
            "{}{}_{}".format(prefix, index + 1, position + 1)
            for position in range(attributes_per_variant - min(shared_attributes, len(previous)))
        ]
        shared = previous[:shared_attributes]
        attributes = shared + fresh
        all_attributes.extend(a for a in attributes if a not in all_attributes)
        variants.append(
            Variant([{determinant: "kind-{}".format(index + 1)}], attributes,
                    name="kind-{}".format(index + 1))
        )
        previous = attributes
    return ExplicitAttributeDependency([determinant], all_attributes, variants)


def random_instance(
    scheme: FlexibleScheme,
    count: int = 100,
    seed: int = 0,
    value_pool: Sequence = tuple(range(10)),
) -> List[FlexTuple]:
    """Random tuples whose attribute combinations are drawn from the scheme's DNF."""
    rng = random.Random(seed)
    combos = sorted(scheme.dnf(), key=lambda c: c.names)
    if not combos:
        return []
    tuples = []
    for _ in range(count):
        combo = combos[rng.randrange(len(combos))]
        tuples.append(FlexTuple({a.name: rng.choice(list(value_pool)) for a in combo}))
    return tuples


def instance_for_dependency(
    dependency: ExplicitAttributeDependency,
    base_attributes: Sequence[str] = ("id",),
    count: int = 100,
    invalid_fraction: float = 0.0,
    seed: int = 0,
) -> List[FlexTuple]:
    """Tuples that conform to (or, for a fraction, deliberately violate) an explicit AD.

    Every tuple carries the base attributes (with a unique ``id``), a determinant
    value drawn from one of the variants, and — when valid — exactly that variant's
    attribute set.  Invalid tuples swap in another variant's attribute set.
    """
    rng = random.Random(seed)
    variants = list(dependency.variants)
    tuples: List[FlexTuple] = []
    for index in range(count):
        variant = variants[rng.randrange(len(variants))]
        determining = variant.values[rng.randrange(len(variant.values))].as_dict()
        values: Dict[str, object] = {name: index for name in base_attributes}
        values.update(determining)
        attribute_source = variant
        if invalid_fraction and rng.random() < invalid_fraction:
            others = [v for v in variants if v.attributes != variant.attributes]
            if others:
                attribute_source = others[rng.randrange(len(others))]
        for attribute in attribute_source.attributes:
            values[attribute.name] = rng.randrange(1_000)
        tuples.append(FlexTuple(values))
    return tuples
