"""The skewed events / sessions workload used by the statistics experiments.

An ``events`` relation where one variant tag is rare: every ``rare_every``-th
event has ``kind = 'audit'`` and carries the ``clearance`` variant attribute
(a 1% tag by default), all others carry ``payload``.  A ``sessions`` relation —
by default 10× smaller and sharing ``event_id`` — joins against it.  The shape
is deliberately hostile to constant selectivities: a planner guessing 50% for
the tag selection misjudges its cardinality by ~50×, which is exactly what the
E11 benchmark and the statistics tests measure.

``events`` declares a secondary hash index on ``kind`` (so the tag selection is
index-answerable) and both tables are keyed on ``event_id`` (so an
index-lookup join can probe ``sessions``, and a selection of ``events``
through its key index).  ``keyed_events=False`` leaves ``events`` without its
key: no index of the selective side then covers the join attribute, and only
the statistics can tell the planner to probe ``sessions`` instead.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.model.domains import IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme

#: default cardinalities: join sides 10× apart, the audit tag at 1%
DEFAULT_BIG_SIDE = 4000
DEFAULT_SMALL_SIDE = 400
DEFAULT_RARE_EVERY = 100


def events_scheme() -> FlexibleScheme:
    """``event_id`` and ``kind`` unconditioned; ``payload`` | ``clearance`` variant."""
    return FlexibleScheme(3, 3, ["event_id", "kind",
                                 FlexibleScheme(0, 2, ["payload", "clearance"])])


def sessions_scheme() -> FlexibleScheme:
    return FlexibleScheme(2, 2, ["event_id", "user"])


def generate_events(count: int, rare_every: int = DEFAULT_RARE_EVERY):
    """Event rows with ``kind='audit'`` (and ``clearance``) on every ``rare_every``-th."""
    rows = []
    for event_id in range(1, count + 1):
        if event_id % rare_every == 0:
            rows.append({"event_id": event_id, "kind": "audit", "clearance": "secret"})
        else:
            rows.append({"event_id": event_id,
                         "kind": "click" if event_id % 2 else "view",
                         "payload": (event_id * 3) % 7})
    return rows


def skewed_join_database(
    big: int = DEFAULT_BIG_SIDE,
    small: int = DEFAULT_SMALL_SIDE,
    rare_every: int = DEFAULT_RARE_EVERY,
    keyed_events: bool = True,
) -> Database:
    """A loaded database with the ``events`` ⋈ ``sessions`` skewed workload."""
    database = Database()
    events = database.create_table(
        "events",
        events_scheme(),
        domains={"event_id": IntDomain(), "kind": StringDomain(max_length=32),
                 "payload": IntDomain(), "clearance": StringDomain(max_length=16)},
        key=["event_id"] if keyed_events else None,
        indexes=[["kind"]],
    )
    events.insert_many(generate_events(big, rare_every=rare_every))
    sessions = database.create_table(
        "sessions",
        sessions_scheme(),
        domains={"event_id": IntDomain(), "user": StringDomain(max_length=16)},
        key=["event_id"],
    )
    sessions.insert_many({"event_id": event_id, "user": "u{}".format(event_id % 9)}
                         for event_id in range(1, small + 1))
    return database
