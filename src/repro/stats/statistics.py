"""Per-table statistics: cardinality, attribute distributions, variant-tag frequencies.

:func:`analyze_table` is the ANALYZE entry point: one pass per attribute over a
stored table's value dicts produces a :class:`TableStatistics` holding

* the row count,
* per-attribute statistics (:class:`AttributeStatistics`): how many tuples carry
  the attribute at all (in a flexible relation an attribute can simply be
  absent, the paper's structural-variant twist on NULLs), the number of
  distinct values, min/max, an equi-depth histogram and the most common values
  with their exact frequencies,
* the **variant-tag frequency table**: how many tuples exhibit each observed
  attribute combination.  The fraction of tuples satisfying a type guard on
  ``X`` is the summed frequency of the combinations that include ``X`` —
  exactly the number the optimizer needs to cost ``TG[X]`` nodes and
  guard-aware joins.

The two halves age differently.  The counts — row count and the variant-tag
table, which gives each attribute's presence — are *shape* counts, which the statistics
catalog keeps equal to the stored table (:meth:`TableStatistics.set_counts`);
the value distributions describe the rows at ANALYZE and are read as fractions
*among the rows carrying the attribute*, multiplied by the current presence.

:meth:`TableStatistics.selectivity` estimates the fraction of rows satisfying a
selection predicate from these distributions; :func:`join_selectivity` combines
two tables' statistics into a natural-join selectivity (distinct-value overlap
plus both sides' tag frequencies on the join attributes).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    PresencePredicate,
    TruePredicate,
)
from repro.model.attributes import attrset
from repro.stats.histograms import DEFAULT_BUCKETS, EquiDepthHistogram, build_histogram

#: how many of the most common values ANALYZE keeps exact frequencies for
DEFAULT_MOST_COMMON = 16

#: selectivity assumed for predicate shapes the statistics cannot estimate
FALLBACK_SELECTIVITY = 0.5

#: seed of the reservoir sampler (deterministic ANALYZE unless overridden)
DEFAULT_SAMPLE_SEED = 0x5EED


def _clamp(fraction: float) -> float:
    return max(0.0, min(1.0, fraction))


class AttributeStatistics:
    """The collected distribution of one attribute within one table.

    ``row_count`` and ``present_count`` are the table's and the attribute's
    counts at ANALYZE.  Every fraction the estimation methods return is relative
    to the tuples *carrying* the attribute (``present_count`` of them); which
    share of the table carries it now is the table's guard selectivity on it
    (:meth:`TableStatistics.guard_selectivity`).
    """

    def __init__(
        self,
        name: str,
        row_count: int,
        present_count: int,
        ndv: int,
        min_value=None,
        max_value=None,
        histogram: Optional[EquiDepthHistogram] = None,
        most_common: Optional[Dict] = None,
        mcv_complete: bool = False,
    ):
        self.name = name
        self.row_count = int(row_count)
        self.present_count = int(present_count)
        self.ndv = int(ndv)
        self.min_value = min_value
        self.max_value = max_value
        self.histogram = histogram
        #: value -> exact count for the most common values
        self.most_common: Dict = dict(most_common or {})
        #: True when ``most_common`` covers every distinct value of the attribute
        self.mcv_complete = mcv_complete

    # -- estimation -----------------------------------------------------------------------

    def equality_fraction(self, value) -> float:
        """Estimated fraction of carrying rows with ``attribute = value``."""
        if self.present_count <= 0:
            return 0.0
        try:
            in_mcv = value in self.most_common
        except TypeError:
            # Unhashable comparison constant (e.g. a list): stored values are
            # always hashable, so no row can equal it.
            return 0.0
        if in_mcv:
            return _clamp(self.most_common[value] / float(self.present_count))
        if self.mcv_complete:
            return 0.0
        remaining_mass = self.present_count - sum(self.most_common.values())
        remaining_ndv = max(1, self.ndv - len(self.most_common))
        return _clamp(remaining_mass / float(remaining_ndv) / float(self.present_count))

    def range_fraction(self, op: str, value) -> Optional[float]:
        """Estimated fraction of carrying rows with ``attribute <op> value``.

        The histogram supplies the cumulative ``<=`` fraction; the mass sitting
        exactly on the constant — which matters a lot for heavy values of
        low-NDV attributes — comes from the exact most-common-value counts
        rather than a histogram guess.  ``None`` when the histogram cannot
        answer (no histogram, incomparable constant); the caller then falls
        back to the default constants.
        """
        if self.histogram is None:
            return None
        try:
            cumulative = self.histogram.fraction_leq(value)
        except TypeError:
            return None
        point_mass = self.equality_fraction(value)
        if op == "<=":
            fraction = cumulative
        elif op == "<":
            fraction = cumulative - point_mass
        elif op == ">":
            fraction = 1.0 - cumulative
        elif op == ">=":
            fraction = 1.0 - cumulative + point_mass
        else:
            return None
        return _clamp(fraction)

    def comparison_fraction(self, op: str, value) -> Optional[float]:
        """Estimated selectivity of any supported comparison operator among
        the carrying rows."""
        if op in ("=", "=="):
            return self.equality_fraction(value)
        if op in ("!=", "<>"):
            return 1.0 - self.equality_fraction(value)
        if op in ("<", "<=", ">", ">="):
            return self.range_fraction(op, value)
        if op == "in":
            try:
                items = list(value)
            except TypeError:
                return None
            return _clamp(sum(self.equality_fraction(item) for item in items))
        return None

    # -- serialization --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "present_count": self.present_count,
            "ndv": self.ndv,
            "min": self.min_value,
            "max": self.max_value,
            "histogram": self.histogram.to_dict() if self.histogram is not None else None,
            "most_common": [[value, count] for value, count in self.most_common.items()],
            "mcv_complete": self.mcv_complete,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttributeStatistics":
        histogram = data.get("histogram")
        return cls(
            data["name"],
            data["row_count"],
            data["present_count"],
            data["ndv"],
            min_value=data.get("min"),
            max_value=data.get("max"),
            histogram=EquiDepthHistogram.from_dict(histogram) if histogram else None,
            most_common={value: count for value, count in data.get("most_common", [])},
            mcv_complete=data.get("mcv_complete", False),
        )

    def __repr__(self) -> str:
        return "AttributeStatistics({!r}, present={}, ndv={})".format(
            self.name, self.present_count, self.ndv
        )


class TableStatistics:
    """Everything ANALYZE collected about one table."""

    def __init__(
        self,
        name: str,
        row_count: int,
        attributes: Optional[Dict[str, AttributeStatistics]] = None,
        variant_counts: Optional[Dict[FrozenSet[str], int]] = None,
    ):
        self.name = name
        self.attributes: Dict[str, AttributeStatistics] = dict(attributes or {})
        self.set_counts(variant_counts or {}, row_count)
        #: True when ANALYZE read a reservoir sample instead of every tuple;
        #: counts/NDV are then scaled estimates, ``sample_rows`` tells how many
        #: tuples were actually read
        self.sampled = False
        self.sample_rows: Optional[int] = None

    def set_counts(self, variant_counts: Dict[FrozenSet[str], int],
                   row_count: Optional[int] = None) -> None:
        """Install the variant-tag counts, and the row count: their sum unless
        given."""
        #: attribute combination (variant tag) -> number of tuples exhibiting it
        self.variant_counts: Dict[FrozenSet[str], int] = {
            frozenset(combo): int(count) for combo, count in variant_counts.items()}
        self.row_count = int(sum(self.variant_counts.values())
                             if row_count is None else row_count)

    # -- introspection --------------------------------------------------------------------

    def attribute_names(self) -> List[str]:
        """Every attribute observed in at least one tuple, sorted."""
        return sorted(self.attributes)

    def attribute(self, name: str) -> Optional[AttributeStatistics]:
        return self.attributes.get(name)

    def ndv(self, name: str) -> int:
        stats = self.attributes.get(name)
        return stats.ndv if stats is not None else 0

    def average_width(self) -> float:
        """Average number of attributes a tuple carries.

        Derived from the variant-tag frequency table.  Feeds the planner's
        adaptive batch sizing — wide variant tuples get smaller batches.
        """
        observed = sum(self.variant_counts.values())
        if observed <= 0:
            return 0.0
        return sum(len(combo) * count
                   for combo, count in self.variant_counts.items()) / float(observed)

    # -- estimation -----------------------------------------------------------------------

    def guard_selectivity(self, attributes) -> float:
        """Fraction of tuples satisfying the type guard ``TG[attributes]``.

        Summed frequency of the variant tags that include every guarded
        attribute — exact when the counts are the table's shape counts.
        """
        wanted = frozenset(a.name for a in attrset(attributes))
        if not wanted:
            return 1.0
        if self.row_count <= 0:
            return 0.0
        matching = sum(count for combo, count in self.variant_counts.items()
                       if wanted.issubset(combo))
        return _clamp(matching / float(self.row_count))

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of table rows satisfying ``predicate``."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, Comparison):
            return self._and_selectivity((predicate,))
        if isinstance(predicate, PresencePredicate):
            return self.guard_selectivity(predicate.attributes)
        if isinstance(predicate, AttributeComparison):
            left = next(iter(predicate.left)).name
            right = next(iter(predicate.right)).name
            both_present = self.guard_selectivity([left, right])
            if predicate.op in ("=", "=="):
                distinct = max(self.ndv(left), self.ndv(right), 1)
                return _clamp(both_present / float(distinct))
            return _clamp(both_present * FALLBACK_SELECTIVITY)
        if isinstance(predicate, And):
            return self._and_selectivity(predicate.operands)
        if isinstance(predicate, Or):
            # Equality disjuncts over one attribute are mutually exclusive: their
            # selectivities add up exactly.  Anything else assumes independence.
            if self._single_attribute_equalities(predicate.operands):
                return _clamp(sum(self.selectivity(operand)
                                  for operand in predicate.operands))
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self.selectivity(operand)
            return _clamp(1.0 - miss)
        if isinstance(predicate, Not):
            return _clamp(1.0 - self.selectivity(predicate.operand))
        return FALLBACK_SELECTIVITY

    def _and_selectivity(self, operands) -> float:
        """Selectivity of a conjunction, pricing attribute presence exactly once.

        Each comparison (and explicit presence test) requires its attribute to
        be present; naively multiplying whole-table fractions would charge that
        presence once per conjunct.  Instead the *joint* presence of every
        required attribute is priced once — through the variant-tag frequency
        table, which captures correlated presence exactly — and each conjunct
        only contributes its selectivity *among rows carrying its attributes*:
        comparisons via their conditional fraction, nested predicates (OR, NOT)
        by dividing out the presence of the attributes already covered by the
        joint term.  An attribute ANALYZE never saw has no distribution: its
        comparisons fall back to :data:`FALLBACK_SELECTIVITY` of its carriers.
        """
        required = set()
        comparisons = []
        others = []
        for operand in operands:
            if isinstance(operand, PresencePredicate):
                required.update(a.name for a in operand.attributes)
            elif isinstance(operand, Comparison):
                required.add(next(iter(operand.attribute)).name)
                comparisons.append(operand)
            else:
                others.append(operand)
        conditional = 1.0
        for operand in comparisons:
            stats = self.attributes.get(next(iter(operand.attribute)).name)
            fraction = (None if stats is None
                        else stats.comparison_fraction(operand.op, operand.value))
            conditional *= FALLBACK_SELECTIVITY if fraction is None else fraction
        for operand in others:
            fraction = self.selectivity(operand)
            overlap = {a.name for a in operand.attributes} & required
            if overlap:
                already_priced = self.guard_selectivity(sorted(overlap))
                if already_priced > 0.0:
                    fraction = min(1.0, fraction / already_priced)
            conditional *= fraction
        return _clamp(self.guard_selectivity(sorted(required)) * conditional)

    @staticmethod
    def _single_attribute_equalities(operands) -> bool:
        """Whether all operands are equality comparisons against one attribute."""
        names = set()
        for operand in operands:
            if not isinstance(operand, Comparison) or operand.op not in ("=", "=="):
                return False
            names.add(next(iter(operand.attribute)).name)
        return len(names) == 1

    # -- serialization --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "sampled": self.sampled,
            "sample_rows": self.sample_rows,
            "attributes": {name: stats.to_dict() for name, stats in self.attributes.items()},
            "variants": [
                {"attributes": sorted(combo), "count": count}
                for combo, count in sorted(self.variant_counts.items(),
                                           key=lambda item: sorted(item[0]))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableStatistics":
        statistics = cls(
            data["name"],
            data["row_count"],
            attributes={name: AttributeStatistics.from_dict(entry)
                        for name, entry in data.get("attributes", {}).items()},
            variant_counts={frozenset(entry["attributes"]): entry["count"]
                            for entry in data.get("variants", [])},
        )
        statistics.sampled = bool(data.get("sampled", False))
        statistics.sample_rows = data.get("sample_rows")
        return statistics

    def __repr__(self) -> str:
        return "TableStatistics({!r}, rows={}, attributes={}, variants={}{})".format(
            self.name, self.row_count, len(self.attributes), len(self.variant_counts),
            ", sampled" if self.sampled else "",
        )


def join_selectivity(left: TableStatistics, right: TableStatistics, attributes) -> float:
    """Estimated fraction of left×right pairs surviving a natural join on ``attributes``.

    Per join attribute the classic distinct-value overlap ``1 / max(ndv_L, ndv_R)``,
    multiplied by both sides' variant-tag frequency of actually *carrying* the join
    attributes (tuples lacking one can never join — the flexible-relation twist).
    """
    names = [a.name for a in attrset(attributes)]
    if not names:
        return FALLBACK_SELECTIVITY
    selectivity = left.guard_selectivity(names) * right.guard_selectivity(names)
    for name in names:
        selectivity /= float(max(left.ndv(name), right.ndv(name), 1))
    return _clamp(selectivity)


def reservoir_sample(tuples: Iterable, sample_size: int,
                     seed: int = DEFAULT_SAMPLE_SEED) -> Tuple[List, int]:
    """Algorithm-R reservoir sampling in one streaming pass.

    Returns ``(sample, total)`` where ``sample`` holds ``min(sample_size, total)``
    uniformly chosen items and ``total`` is the number of items seen — the pass
    that samples also counts, so the true cardinality stays exact.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    sample: List = []
    append = sample.append
    total = 0
    for item in tuples:
        if total < sample_size:
            append(item)
        else:
            slot = randrange(total + 1)
            if slot < sample_size:
                sample[slot] = item
        total += 1
    return sample, total


def estimate_ndv(sample_ndv: int, singletons: int, sample_rows: int,
                 total_rows: int) -> int:
    """GEE (Guaranteed-Error Estimator) scale-up of a sampled distinct count.

    ``sqrt(n/r) · f₁ + (d − f₁)``: values seen once in the sample (``f₁``) are
    the ones whose population frequency is uncertain, so their count is scaled
    by ``sqrt(n/r)``; values seen repeatedly were going to be seen anyway.
    Clamped to ``[d, n]``.
    """
    if sample_rows <= 0 or total_rows <= sample_rows:
        return sample_ndv
    scale = math.sqrt(total_rows / float(sample_rows))
    estimate = scale * singletons + (sample_ndv - singletons)
    return int(min(max(estimate, sample_ndv), total_rows))


def analyze_table(
    table,
    max_buckets: int = DEFAULT_BUCKETS,
    most_common: int = DEFAULT_MOST_COMMON,
    sample_size: Optional[int] = None,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> TableStatistics:
    """Collect :class:`TableStatistics` from a stored table (or any tuple iterable).

    ``table`` needs a ``name`` attribute and iteration over
    :class:`~repro.model.tuples.FlexTuple` objects; this covers
    :class:`repro.engine.Table`, :class:`repro.model.relation.FlexibleRelation`
    and plain collections of tuples.  It reads columns, not tuples: one pass
    over the rows' value dicts counts the variant tags, then each attribute's
    values are gathered in row order (shapes as first seen, names sorted).

    ``sample_size`` turns on sampling-based ANALYZE: tables with more rows than
    the threshold are reservoir-sampled (one streaming pass, Algorithm R) and
    per-attribute statistics are computed on the sample, then scaled to the
    exact total row count — presence counts and variant-tag/most-common-value
    frequencies linearly, distinct counts with the GEE estimator
    (:func:`estimate_ndv`).  Tables at or below the threshold are analyzed
    exactly, so small tables lose nothing.
    """
    name = getattr(table, "name", None) or "<anonymous>"
    sampled = False
    total_rows: Optional[int] = None
    rows = table
    if sample_size is not None and sample_size > 0:
        sample, total = reservoir_sample(table, sample_size, seed=seed)
        # The sampling pass consumed the source, so analysis always proceeds
        # from the reservoir: below the threshold it holds every tuple (exact
        # statistics, and one-shot iterables / re-iterable tables both read
        # exactly once); above it the statistics are scaled up.
        rows = sample
        if total > sample_size:
            sampled = True
            total_rows = total

    dicts = [tup._values for tup in rows]
    row_count = len(dicts)
    variant_counts = Counter(map(frozenset, dicts))
    names = dict.fromkeys(a for combo in variant_counts for a in sorted(combo))

    if total_rows is None:
        total_rows = row_count
    scale = total_rows / float(row_count) if row_count else 1.0

    attributes: Dict[str, AttributeStatistics] = {}
    for attribute in names:
        values = [d[attribute] for d in dicts if attribute in d]
        counter = Counter(values)
        ndv = len(counter)
        top = dict(counter.most_common(most_common))
        try:
            min_value, max_value = min(values), max(values)
        except TypeError:
            min_value = max_value = None
        if sampled:
            singletons = sum(1 for count in counter.values() if count == 1)
            present = int(round(len(values) * scale))
            ndv = estimate_ndv(ndv, singletons, len(values), present)
            top = {value: max(1, int(round(count * scale)))
                   for value, count in top.items()}
            complete = False
        else:
            present = len(values)
            complete = len(counter) <= len(top)
        attributes[attribute] = AttributeStatistics(
            attribute,
            total_rows,
            present_count=present,
            ndv=ndv,
            min_value=min_value,
            max_value=max_value,
            histogram=build_histogram(values, max_buckets=max_buckets),
            most_common=top,
            mcv_complete=complete,
        )

    if sampled:
        variant_counts = Counter({combo: max(1, int(round(count * scale)))
                                  for combo, count in variant_counts.items()})
    statistics = TableStatistics(name, total_rows, attributes, variant_counts)
    statistics.sampled = sampled
    statistics.sample_rows = row_count if sampled else None
    return statistics
