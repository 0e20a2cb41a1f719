"""The per-query governor: one object bundling deadline, cancellation and
memory budget, threaded through ``ExecutionContext`` into every operator.

Lifecycle: ``Database`` builds one ``QueryGovernor`` per governed execution,
passes it to ``PhysicalPlan.execute``, and calls :meth:`QueryGovernor.finish`
in a ``finally`` — which is what guarantees spill temp files never outlive
the query, whether it completed, timed out, was cancelled, or failed.
"""

import time
from typing import Callable, Optional

from repro.errors import MemoryBudgetExceeded
from repro.governor.cancel import CancelToken, Deadline
from repro.governor.spill import SpillManager

__all__ = ["QueryGovernor"]


class QueryGovernor:
    """Deadline + cancellation + memory budget for one query execution.

    * ``check()`` is called by every operator stream at every boundary; it
      delegates to the :class:`CancelToken` (which also enforces the
      deadline).
    * ``enforce(label, size)`` is called wherever operators already record
      ``peak_bytes``; over budget it raises ``MemoryBudgetExceeded``.  The
      spill-capable operators ask ``over_budget(label, size)`` of their
      spillable state instead: True means spill, and with spilling off it
      raises just the same.
    * ``spill_manager()`` lazily owns the query's temp segments;
      ``finish()`` removes them.
    """

    def __init__(self, cancel_token: Optional[CancelToken] = None,
                 timeout: Optional[float] = None,
                 memory_budget: Optional[int] = None,
                 spill: bool = True,
                 spill_directory: Optional[str] = None,
                 registry=None,
                 clock: Callable[[], float] = time.monotonic):
        self.token = cancel_token if cancel_token is not None else CancelToken()
        if timeout is not None and self.token.deadline is None:
            self.token.deadline = Deadline(timeout, clock=clock)
        self.timeout = timeout
        self.memory_budget = None if memory_budget is None else int(memory_budget)
        self.spill_enabled = bool(spill)
        self.spill_directory = spill_directory
        self.registry = registry
        self._spill_manager: Optional[SpillManager] = None

    def check(self) -> None:
        """One operator-boundary checkpoint; raises to unwind the query."""
        self.token.check()

    def over_budget(self, label: str, size: int) -> bool:
        """Whether ``size`` bytes of spillable state must go to disk: True
        over the budget with spilling on; with it off, fail fast."""
        budget = self.memory_budget
        if budget is None or size <= budget:
            return False
        if not self.spill_enabled:
            raise MemoryBudgetExceeded(label, size, budget)
        return True

    def enforce(self, label: str, size: int) -> None:
        """Fail fast if ``size`` bytes of held state exceed the budget."""
        budget = self.memory_budget
        if budget is not None and size > budget:
            raise MemoryBudgetExceeded(label, size, budget)

    def spill_manager(self) -> SpillManager:
        if self._spill_manager is None:
            self._spill_manager = SpillManager(
                self.spill_directory, registry=self.registry)
        return self._spill_manager

    @property
    def spilled(self) -> bool:
        return self._spill_manager is not None and self._spill_manager.spilled

    def finish(self) -> None:
        """Release every resource the query held (idempotent); always runs,
        so aborted queries leak no spill files."""
        if self._spill_manager is not None:
            self._spill_manager.cleanup()
            self._spill_manager = None

    def __repr__(self) -> str:
        parts = []
        if self.timeout is not None:
            parts.append("timeout={}s".format(self.timeout))
        if self.memory_budget is not None:
            parts.append("budget={}B spill={}".format(
                self.memory_budget, "on" if self.spill_enabled else "off"))
        return "QueryGovernor({})".format(", ".join(parts) or "cancel-only")
