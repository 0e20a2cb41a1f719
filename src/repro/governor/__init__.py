"""Resource governor: deadlines, cooperative cancellation, memory budgets
with spill-to-disk.

The execution engine is single-threaded and cooperative, so control has to
be woven into the operators rather than imposed from outside:

* :class:`~repro.governor.cancel.CancelToken` (optionally carrying a
  :class:`~repro.governor.cancel.Deadline`) is checked at every operator
  boundary — each ``run()`` stream checks before the first batch and before
  yielding every subsequent one — and unwinds via the
  ``QueryCancelled``/``QueryTimeout`` taxonomy in :mod:`repro.errors`.
* :class:`~repro.governor.governor.QueryGovernor` bundles the token with a
  per-query memory budget.  Budgets are enforced through the same sampled
  ``peak_bytes`` accounting observability already records: the hash-join
  build, hash aggregation and sort spill to CRC-framed temp segments
  (:mod:`repro.governor.spill`) and keep going; every other stateful
  operator fails fast with ``MemoryBudgetExceeded``.
* :func:`~repro.governor.chaos.cancel_at_every_boundary` is the proof
  harness, in the style of ``storage.faults.crash_at_every_offset``:
  cancellation injected at every boundary must leak nothing and leave
  re-execution bit-identical.
"""

from repro.governor.cancel import CancelToken, Deadline
from repro.governor.chaos import ChaosError, cancel_at_every_boundary
from repro.governor.governor import QueryGovernor
from repro.governor.spill import (
    ExternalSorter,
    GracePartitioner,
    SpillManager,
    SpillSegment,
    SpillingAggregator,
)

__all__ = [
    "CancelToken",
    "ChaosError",
    "Deadline",
    "ExternalSorter",
    "GracePartitioner",
    "QueryGovernor",
    "SpillManager",
    "SpillSegment",
    "SpillingAggregator",
    "cancel_at_every_boundary",
]
