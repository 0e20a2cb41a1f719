"""Cooperative cancellation: tokens, deadlines, and the chaos hook.

A :class:`CancelToken` is the one object shared between the caller (who may
cancel from another thread) and the executing plan (which calls
:meth:`CancelToken.check` at every operator boundary).  ``check()`` is the
single choke point, which makes two things cheap: deadlines (the token
carries a :class:`Deadline` and raises ``QueryTimeout`` once it expires) and
chaos injection (``fire_after_checks=n`` turns the *n*-th boundary into a
cancellation, which is how ``chaos.cancel_at_every_boundary`` sweeps every
boundary of a plan deterministically).
"""

import time
from typing import Callable, Optional

from repro.errors import QueryCancelled, QueryTimeout

__all__ = ["CancelToken", "Deadline"]


class Deadline:
    """A monotonic-clock deadline: ``seconds`` from construction time.

    The clock is injectable so tests can use a fake clock instead of sleeping.
    """

    __slots__ = ("seconds", "_clock", "_expires_at")

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic):
        self.seconds = float(seconds)
        self._clock = clock
        self._expires_at = clock() + self.seconds

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def __repr__(self) -> str:
        return "Deadline({}s, {:.3f}s remaining)".format(
            self.seconds, self._expires_at - self._clock())


class CancelToken:
    """Cooperative cancellation flag checked at every operator boundary.

    ``cancel()`` may be called from any thread; the executing thread observes
    it at its next :meth:`check`.  ``checks`` counts how many boundaries a
    query passed — the chaos harness runs a query once to learn the count,
    then replays it with ``fire_after_checks`` sweeping ``0..checks-1``.
    """

    __slots__ = ("checks", "deadline", "fire_after_checks", "_reason")

    def __init__(self, deadline: Optional[Deadline] = None,
                 fire_after_checks: Optional[int] = None):
        self.checks = 0
        self.deadline = deadline
        #: chaos hook: boundary index (0-based) at which to self-cancel
        self.fire_after_checks = fire_after_checks
        self._reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        return self._reason is not None

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cancellation; the query unwinds at its next boundary."""
        if self._reason is None:
            self._reason = reason

    def check(self) -> None:
        """Count the boundary; raise if cancelled or past the deadline."""
        self.checks += 1
        fire_after = self.fire_after_checks
        if fire_after is not None and self.checks > fire_after:
            self.cancel("chaos: cancelled at boundary {}".format(fire_after))
        if self._reason is not None:
            raise QueryCancelled(self._reason)
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            raise QueryTimeout(
                "query exceeded its {:.3f}s deadline".format(deadline.seconds),
                timeout=deadline.seconds)

    def __repr__(self) -> str:
        state = self._reason or (
            "deadline {!r}".format(self.deadline) if self.deadline else "live")
        return "CancelToken({} checks, {})".format(self.checks, state)
