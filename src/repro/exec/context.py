"""Execution context and per-operator statistics for the physical engine.

The physical operators of :mod:`repro.exec.operators` do not talk to the database
directly; everything they need at run time — the relation source, the global
:class:`~repro.algebra.evaluator.ExecutionStats` counters, and a per-operator
breakdown — travels in an :class:`ExecutionContext`.

The global counters are *the same object* the naive evaluator uses, so costs
reported by the physical engine are directly comparable with the evaluator's
(``total_work`` means the same thing in both).  On top of that the context keeps
one :class:`OperatorStats` per plan node, which is what ``EXPLAIN ANALYZE``-style
reporting and the benchmarks consume.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.algebra.evaluator import ExecutionStats

#: default number of tuples per batch handed between operators, for plans
#: without a sizing decision of their own (hand-built ones) — large enough to
#: amortize the per-batch column extraction and counter updates
DEFAULT_BATCH_SIZE = 1024

#: target number of *values* (tuple width × batch size) per batch;
#: wide variant tuples get proportionally smaller batches so column extraction
#: and presence bitmaps stay cache-friendly
TARGET_BATCH_CELLS = 8192

#: bounds of the adaptive batch-size decision
MIN_BATCH_SIZE = 64
MAX_BATCH_SIZE = 4096


#: how many elements of a materialized container the size estimate inspects
MEMORY_SAMPLE = 8


def _element_size(value) -> int:
    """One element's approximate byte size, descending a single level into
    containers (a hash bucket's tuple list, a tuple's value dict)."""
    size = sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        if value:
            size += sys.getsizeof(next(iter(value))) * len(value)
    elif isinstance(value, dict):
        if value:
            key, val = next(iter(value.items()))
            size += (sys.getsizeof(key) + sys.getsizeof(val)) * len(value)
    return size


def sampled_size(container, sample: int = MEMORY_SAMPLE) -> int:
    """Approximate byte size of an operator's materialized state.

    ``sys.getsizeof`` on the container plus the sizes of the first ``sample``
    elements scaled to the element count — a handful of calls at a build
    boundary, never per tuple, so memory accounting stays inside the E15
    overhead gate.  The answer is an estimate (shared substructure is counted
    per reference, element variance beyond the sample is extrapolated); its
    job is ranking operators by footprint, not exact accounting.
    """
    size = sys.getsizeof(container)
    try:
        length = len(container)
    except TypeError:
        return size
    if not length:
        return size
    if isinstance(container, dict):
        iterator = iter(container.items())
        total = 0
        count = min(sample, length)
        for _ in range(count):
            key, value = next(iterator)
            total += sys.getsizeof(key) + _element_size(value)
        return size + (total * length) // count
    iterator = iter(container)
    total = 0
    count = min(sample, length)
    for _ in range(count):
        total += _element_size(next(iterator))
    return size + (total * length) // count


def adaptive_batch_size(width: float, base_rows: Optional[float] = None) -> int:
    """The planner's batch-size heuristic.

    ``width`` is the estimated average tuple width (attributes per tuple, from
    the statistics when fresh); ``base_rows`` the largest base-relation
    cardinality feeding the plan.  The size targets
    :data:`TARGET_BATCH_CELLS` values per batch, clamped to
    [:data:`MIN_BATCH_SIZE`, :data:`MAX_BATCH_SIZE`] — and a tiny input is
    widened to a single batch, since splitting a few hundred tuples only pays
    per-batch overhead without amortizing anything.
    """
    size = int(TARGET_BATCH_CELLS // max(1.0, float(width)))
    size = max(MIN_BATCH_SIZE, min(MAX_BATCH_SIZE, size))
    if base_rows is not None and 0 < base_rows <= MAX_BATCH_SIZE:
        size = max(size, int(base_rows))
    return size


class OperatorStats:
    """Counters for one physical operator instance.

    ``PhysicalOperator.run`` keeps these books, not the operators: it sets
    ``invocations`` and its stream wrapper counts every batch the operator
    yields into ``rows_out`` / ``batches_out`` and into its parent's
    ``rows_in`` — so ``rows_in`` is the sum of the children's ``rows_out``,
    except for a scan, which counts the rows it reads from its table or index.

    ``wall_seconds`` is the operator's *inclusive* wall-clock time (its own
    work plus its children's, as in PostgreSQL's EXPLAIN ANALYZE): the
    wrapper times every batch pulled from the operator — the setup (hash
    builds, drains, sorts) runs on the first pull — and pulling one batch
    from a parent drives the whole subtree below it.  The clock ticks per
    batch, never per tuple, so the overhead stays inside the E15 benchmark's
    ≤5% gate.
    """

    def __init__(self, label: str):
        self.label = label
        self.rows_in = 0
        self.rows_out = 0
        self.batches_out = 0
        self.invocations = 0
        self.wall_seconds = 0.0
        #: sampled peak bytes held by the operator's materialized state (hash
        #: builds, multiway drains, batch materializations); 0 for streaming
        #: operators that never hold more than one batch
        self.peak_bytes = 0

    def note_memory(self, size_bytes: int) -> None:
        """Fold one sampled state-size measurement into the peak."""
        if size_bytes > self.peak_bytes:
            self.peak_bytes = size_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "operator": self.label,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches_out": self.batches_out,
            "invocations": self.invocations,
            "wall_seconds": self.wall_seconds,
            "peak_bytes": self.peak_bytes,
        }

    def __repr__(self) -> str:
        return "OperatorStats({}: in={}, out={})".format(self.label, self.rows_in, self.rows_out)


class ExecutionContext:
    """Run-time state shared by every operator of one plan execution.

    Parameters
    ----------
    source:
        The relation source — a :class:`repro.engine.Database`, a mapping
        ``{name: relation}``, or anything the naive evaluator accepts.
    stats:
        The global work counters; a fresh :class:`ExecutionStats` when omitted.
    batch_size:
        How many tuples an operator accumulates before handing a batch downstream.
    use_indexes:
        Whether operators may read the engine's hash indexes (see
        :meth:`index_for`).
    timing:
        Whether :attr:`OperatorStats.wall_seconds` is kept (two
        ``perf_counter`` reads per batch per operator, setup included, as it
        runs on the first pull); the row and batch counts are kept either
        way.  On by default; the E15 overhead benchmark runs with
        ``timing=False`` as its baseline.
    governor:
        The :class:`~repro.governor.governor.QueryGovernor` bounding this
        execution (deadline, cancellation, memory budget), or ``None`` for
        ungoverned runs — the common case, kept zero-overhead: operators
        test ``ctx.governor is not None`` once per stream/build, never per
        tuple.
    params:
        The values of the plan template's predicate parameters for this
        execution (index probes and compiled comparisons read their slot).
    """

    def __init__(self, source, stats: Optional[ExecutionStats] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE, use_indexes: bool = True,
                 timing: bool = True, governor=None, params=()):
        self.source = source
        self.stats = stats if stats is not None else ExecutionStats()
        self.batch_size = max(1, int(batch_size))
        self.use_indexes = use_indexes
        self.timing = timing
        self.governor = governor
        self.params = params
        self._operator_stats: List[OperatorStats] = []

    def index_for(self, relation: str, attributes):
        """The engine-maintained hash index of base relation ``relation``
        covered by ``attributes``, or ``None``: indexes are off, the source
        keeps no tables (a plain mapping), or no index of the table is
        covered."""
        if not self.use_indexes or not hasattr(self.source, "relation"):
            return None
        index_for = getattr(self.source.relation(relation), "index_for", None)
        return None if index_for is None else index_for(attributes)

    def enforce_memory(self, op_stats: OperatorStats, size_bytes: int) -> None:
        """Record a sampled state size and enforce the memory budget, if any.

        Non-spillable operators call this instead of ``note_memory`` at their
        materialization points: the measurement always lands in
        ``peak_bytes``, and a governed run over budget unwinds with
        ``MemoryBudgetExceeded``.
        """
        op_stats.note_memory(size_bytes)
        governor = self.governor
        if governor is not None:
            governor.enforce(op_stats.label, size_bytes)

    def spill_budget(self) -> Optional[int]:
        """The byte budget spill-capable operators run under, or ``None``
        when this execution is unbudgeted (or spilling is disabled — then
        ``enforce_memory`` fails fast instead)."""
        governor = self.governor
        if governor is None:
            return None
        return governor.spill_budget

    def register_operator(self, label: str) -> OperatorStats:
        """Create (and remember) the per-operator counters for one plan node."""
        op_stats = OperatorStats(label)
        self._operator_stats.append(op_stats)
        return op_stats

    @property
    def operator_stats(self) -> List[OperatorStats]:
        """Per-operator counters in registration (plan) order."""
        return list(self._operator_stats)

    def operator_report(self) -> List[Dict[str, object]]:
        """The per-operator breakdown as a list of plain dicts (JSON-friendly)."""
        return [s.as_dict() for s in self._operator_stats]

    def __repr__(self) -> str:
        return "ExecutionContext(batch_size={}, operators={})".format(
            self.batch_size, len(self._operator_stats)
        )
