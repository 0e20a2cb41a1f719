"""Shape plans on the write path: differential, property and recovery tests.

The engine decides admission, domains to test, key presence, explicit-AD variant
tables and index keys once per attribute set (:class:`ShapePlan`).  The reference
below is the per-row write path it replaced — scheme admission, domains, key,
explicit ADs, pair-wise ADs/FDs, in that order — written against the public model
API only, so the two share no code beyond ``FlexibleScheme.admits``,
``Domain.contains`` and ``ExplicitAttributeDependency.check_tuple``.
"""

import os
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.database as database_module
from repro.core.dependencies import (
    ExplicitAttributeDependency,
    FunctionalDependency,
    ad,
    ead,
    fd,
)
from repro.engine import ConstraintChecker, Database, Table, TableDefinition
from repro.engine.database import REMOVE
from repro.engine.constraints import ShapePlan
from repro.errors import (
    ConstraintViolation,
    DependencyViolation,
    KeyViolation,
    ReproError,
    TupleError,
    TypeCheckError,
)
from repro.model.attributes import Attribute, AttributeSet
from repro.model.domains import EnumDomain, IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme, UnfoldedScheme
from repro.model.tuples import FlexTuple
from repro.storage import RecoveryError, read_wal, verify_database
from repro.storage.checkpoint import SNAPSHOT_FILENAME
from repro.storage.wal import MAGIC, frame_record
from repro.workloads.analytics import generate_orders, orders_domains, orders_scheme
from repro.workloads.employees import employee_definition, generate_employees


# -- the reference: the per-row write path ------------------------------------------------


class ReferenceTable:
    """Per-row checks over a plain set of tuples, no index, no plan.

    ``refusal`` yields ``None`` or ``(exception class, acceptable messages)``: a
    pair-wise violation names *one* conflicting stored tuple — whichever the
    engine's index bucket yields first — so every conflicting partner gives an
    acceptable message; every other refusal has exactly one.
    """

    def __init__(self, definition, enforce=True):
        self.definition = definition
        self.enforce = enforce
        self.tuples = set()

    def refusal(self, tup, ignore=None):
        definition = self.definition
        if self.enforce and not definition.scheme.admits(tup.attributes):
            return TypeCheckError, {
                "attribute combination {} is not admitted by the scheme of table {!r}".format(
                    tup.attributes, definition.name)}
        if self.enforce:
            for name, value in tup.items():
                domain = definition.domains.get(name)
                if domain is not None and not domain.contains(value):
                    return TypeCheckError, {
                        "value {!r} of attribute {!r} violates its domain in table {!r}".format(
                            value, name, definition.name)}
        key = definition.key
        if key is not None:
            if not tup.is_defined_on(key):
                return KeyViolation, {
                    "tuple lacks key attribute(s) {}".format(key - tup.attributes)}
            if any(other.agrees_with(tup, key) and other != tup and other != ignore
                   for other in self.tuples):
                return KeyViolation, {"key value {} already present".format(
                    tuple(tup[a] for a in key))}
        if not self.enforce:
            return None
        for dependency in definition.dependencies:
            if isinstance(dependency, ExplicitAttributeDependency):
                if not dependency.check_tuple(tup):
                    return DependencyViolation, {
                        "tuple {!r} violates {!r}: with {} = {!r} exactly the attributes {} "
                        "must be present, found {}".format(
                            tup, dependency, dependency.lhs,
                            tup.project_existing(dependency.lhs),
                            dependency.required_attributes(tup),
                            tup.attributes & dependency.rhs)}
                continue
            messages = set()
            for partner in self.tuples:
                if partner == tup or partner == ignore \
                        or not partner.agrees_with(tup, dependency.lhs):
                    continue
                if isinstance(dependency, FunctionalDependency):
                    ok = partner.agrees_with(tup, dependency.rhs)
                else:
                    ok = (partner.attributes & dependency.rhs) \
                        == (tup.attributes & dependency.rhs)
                if not ok:
                    messages.add("tuple {!r} conflicts with stored tuple {!r} on {!r}".format(
                        tup, partner, dependency))
            if messages:
                return DependencyViolation, messages
        return None

    def insert(self, values):
        tup = values if isinstance(values, FlexTuple) else FlexTuple(values)
        if tup in self.tuples:
            return None
        refusal = self.refusal(tup)
        if refusal is None:
            self.tuples.add(tup)
        return refusal

    def update(self, old, changes):
        if old not in self.tuples:
            return ConstraintViolation, {
                "tuple {!r} is not stored in table {!r}".format(old, self.definition.name)}
        merged = old.as_dict()
        for name, value in changes.items():
            if value is REMOVE:
                merged.pop(name, None)
            else:
                merged[name] = value
        new = FlexTuple(merged)
        refusal = self.refusal(new, ignore=old)
        if refusal is None:
            self.tuples.remove(old)
            self.tuples.add(new)
        return refusal

    def delete(self, tup):
        self.tuples.discard(tup)

    def index(self, attributes):
        """What a hash index on ``attributes`` must hold, built from scratch."""
        buckets = {}
        for tup in self.tuples:
            if tup.is_defined_on(attributes):
                buckets.setdefault(tuple(tup[a] for a in attributes), set()).add(tup)
        return buckets


def _recount(table):
    """Attribute-name set -> how many stored tuples of ``table`` have it."""
    return dict(Counter(frozenset(tup._values) for tup in table))


def served_counts(database, name):
    """The analyzed table's served ``(row_count, variant counts)`` — asserted
    equal to a recount of the stored tuples — or ``None``."""
    statistics = database.statistics.get(name)
    if statistics is None:
        return None
    table = database.table(name)
    served = (statistics.row_count, statistics.variant_counts)
    assert served == (len(table), _recount(table))
    return served


def engine_refusal(operation, *args, **kwargs):
    try:
        operation(*args, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def assert_same_outcome(expected, observed, what):
    if expected is None or observed is None:
        assert expected is None and observed is None, (what, expected, observed)
        return
    assert observed[0] is expected[0], (what, expected, observed)
    assert observed[1] in expected[1], (what, expected, observed)


def assert_same_state(table, reference):
    assert set(table) == reference.tuples
    for index in table.checker.indexes():
        assert dict(index.groups()) == reference.index(index.attributes), index
        assert len(index) == sum(
            1 for tup in reference.tuples if tup.is_defined_on(index.attributes))


# -- the cases ------------------------------------------------------------------------------

#: small pools, so keys collide, determinants repeat and ``1 == 1.0 == True`` bites
VALUES = (0, 1, 2, 1.0, True, "a", "b", "", None, -3, 2.5, "secretary", "salesman")


def _employees():
    base = employee_definition()
    definition = TableDefinition(
        "employees", base.scheme, domains=base.domains, key=base.key,
        dependencies=base.dependencies, indexes=[["jobtype"]])
    return definition, lambda rng: rng.choice(generate_employees(
        30, seed=rng.randrange(4), start_id=rng.randrange(1, 25)))


def _orders():
    definition = TableDefinition(
        "orders", orders_scheme(), domains=orders_domains(), key=["order_id"])
    rows = list(generate_orders(60, seed=3))
    return definition, lambda rng: dict(rng.choice(rows))


def _orders_with_dependencies():
    # Pair-wise constraints on non-key determinants: the channel decides between
    # coupon and store_id (abbreviated AD), a coupon belongs to one region (FD).
    definition = TableDefinition(
        "orders", orders_scheme(), domains=orders_domains(), key=["order_id"],
        dependencies=[ad(["channel"], ["coupon", "store_id"]), fd(["coupon"], ["region"])],
        indexes=[["region", "channel"]])
    rows = list(generate_orders(60, regions=2, seed=5))
    return definition, lambda rng: dict(rng.choice(rows))


def _random_rows(scheme):
    """Rows over small value pools: mostly an admitted shape, sometimes any subset."""
    universe = list(scheme.attributes.names)
    admitted = sorted(combo.names for combo in scheme.dnf())

    def make_row(rng):
        names = (rng.choice(admitted) if rng.random() < 0.8
                 else rng.sample(universe, rng.randrange(1, len(universe) + 1)))
        return {name: rng.choice(VALUES[:6]) for name in names}

    return make_row


def _nested_optional():
    # tests/test_scheme.py::test_deeply_nested, with a key, a domain and all three
    # dependency kinds.
    inner = FlexibleScheme(1, 1, ["X", "Y"])
    middle = FlexibleScheme(1, 2, ["C", inner])
    scheme = FlexibleScheme(2, 2, ["A", middle])
    definition = TableDefinition(
        "nested", scheme, domains={"A": IntDomain(), "C": EnumDomain([0, 1, "a"])},
        key=["A"],
        dependencies=[ad(["C"], ["Y"]),
                      ead(["C"], ["X", "Y"], [([{"C": 0}], ["X"]), ([{"C": 1}], ["Y"])]),
                      fd(["X"], ["C"])])
    return definition, _random_rows(scheme)


def _unfolded():
    names = [["K", "A"], ["K", "B"], ["K", "A", "C"], ["A", "B"]]
    scheme = UnfoldedScheme(AttributeSet(combo).as_frozenset() for combo in names)
    definition = TableDefinition(
        "unfolded", scheme, domains={"K": IntDomain(), "B": StringDomain(max_length=1)},
        key=["K"],
        dependencies=[ead(["A"], ["C"], [([{"A": 1}, {"A": "a"}], ["C"])]),
                      fd(["A"], ["B"])],
        indexes=[["A"], ["B", "K"]])
    return definition, _random_rows(scheme)


CASES = {"employees": _employees, "orders": _orders,
         "orders+dependencies": _orders_with_dependencies,
         "nested-optional": _nested_optional, "unfolded": _unfolded}

#: (levels, seed): ``sd+`` checks scheme, domains and dependencies, ``---`` is
#: ``enforce=False`` (the key alone); a single level is left out as E2 leaves
#: out the dependencies — by a definition without it, not by a switch
RUNS = [("sd+", 0), ("sd+", 1), ("---", 0), ("-d+", 0), ("s-+", 0), ("sd-", 0)]


def _leave_out(definition, levels):
    """``definition`` without the levels ``levels`` marks ``-``: a scheme that
    admits every attribute set the runs build, no domains, no dependencies."""
    scheme, domains, dependencies = definition.scheme, definition.domains, \
        definition.dependencies
    if levels[0] == "-":
        names = list(scheme.attributes.names) + ["zzz"]
        scheme = FlexibleScheme(0, len(names), names)
    if levels[1] == "-":
        domains = {}
    if levels[2] == "-":
        dependencies = []
    return TableDefinition(definition.name, scheme, domains=domains, key=definition.key,
                           dependencies=dependencies, indexes=definition.indexes)


def _scramble(row, universe, stored, rng):
    """One way of spoiling (or not) a row: wrong shape, wrong value, stolen key."""
    row = dict(row)
    choice = rng.randrange(6)
    if choice == 0 and row:
        del row[rng.choice(sorted(row))]
    elif choice == 1:
        row[rng.choice(universe + ["zzz"])] = rng.choice(VALUES)
    elif choice == 2 and row:
        row[rng.choice(sorted(row))] = rng.choice(VALUES)
    elif choice == 3 and stored:
        # the whole determinant side of a stored tuple, e.g. its key
        donor = rng.choice(stored).as_dict()
        for name in rng.sample(sorted(donor), rng.randrange(1, len(donor) + 1)):
            row[name] = donor[name]
    elif choice == 4 and stored:
        # the shape of one stored tuple with the values of this row
        donor = rng.choice(stored).as_dict()
        row = {name: row.get(name, donor[name]) for name in donor}
    return row


def _changes(old, universe, make_row, rng):
    """An update: new values, removals, or a type change with its attributes."""
    choice = rng.randrange(4)
    current = old.as_dict()
    if choice == 0:
        # become another valid row under the old key-ish attributes
        target = make_row(rng)
        changes = {name: REMOVE for name in current if name not in target}
        changes.update({name: value for name, value in target.items()
                        if name not in current or rng.random() < 0.7})
        return changes
    if choice == 1:
        return {rng.choice(sorted(current)): REMOVE}
    if choice == 2:
        return {rng.choice(universe): rng.choice(VALUES)}
    return {name: rng.choice(VALUES + (REMOVE,))
            for name in rng.sample(universe, rng.randrange(1, len(universe) + 1))}


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run[0] + str(run[1]))
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_the_per_row_reference(case, run):
    levels, seed = run
    definition, make_row = CASES[case]()
    enforce = levels != "---"
    if enforce:
        definition = _leave_out(definition, levels)
    table = Table(definition, enforce=enforce)
    reference = ReferenceTable(definition, enforce=enforce)
    universe = list(definition.scheme.attributes.names)
    rng = random.Random(seed)
    refused = accepted = 0
    for step in range(500):
        stored = sorted(reference.tuples, key=repr)
        action = rng.random()
        if action < 0.55 or not stored:
            row = make_row(rng)
            if rng.random() < 0.45:
                row = _scramble(row, universe, stored, rng)
            expected = reference.insert(row)
            observed = engine_refusal(table.insert, row)
            what = ("insert", row)
        elif action < 0.85:
            old = rng.choice(stored)
            if rng.random() < 0.05:
                old = FlexTuple(dict(old.as_dict(), zzz=step))  # not stored
            changes = _changes(old, universe, make_row, rng)
            expected = reference.update(old, changes)
            observed = engine_refusal(table.update, old, **changes)
            what = ("update", old, changes)
        else:
            victim = rng.choice(stored)
            reference.delete(victim)
            assert table.delete(victim)
            expected = observed = None
            what = ("delete", victim)
        assert_same_outcome(expected, observed, what)
        refused += expected is not None
        accepted += expected is None
        if step % 100 == 99:
            assert_same_state(table, reference)
    assert_same_state(table, reference)
    assert accepted > 20
    if enforce or definition.key is not None:
        assert refused > 20


# -- insert_many is a loop of insert -----------------------------------------------------------


def _as_flex(row):
    return row if isinstance(row, FlexTuple) else FlexTuple(row)


class _InputFailure(Exception):
    pass


#: in a batch: where its input raises :class:`_InputFailure`
_FAIL = object()


def _feed(rows):
    """``rows`` as a generator that raises where a batch holds ``_FAIL``."""
    for row in rows:
        if row is _FAIL:
            raise _InputFailure("the input failed")
        yield row


def _expected_stop(reference, rows):
    """Where a loop of inserts over ``rows`` stops, and how: inserts the
    accepted prefix into ``reference`` and returns ``None`` or ``(exception
    class, acceptable messages)``."""
    for row in rows:
        if row is _FAIL:
            return _InputFailure, {"the input failed"}
        try:
            row = _as_flex(row)
        except TupleError as exc:
            return TupleError, {str(exc)}
        expected = reference.insert(row)
        if expected is not None:
            return expected
    return None


def _batches(definition, make_row, rng):
    """Batches against the state their accepted prefixes build: a clean one, one
    with duplicates inside it and of stored rows, one with a refused row in the
    middle of accepted ones, one stopped by a row that makes no tuple and one by
    an input that raises, a refused row in the second chunk of a long batch, two
    fresh rows sharing a key, a pair-wise conflict within the batch, rows given
    as tuples and as dicts keyed by attributes, a dict keyed by names then one
    keyed by attributes of the same shape, then mixed ones as they come."""
    universe = list(definition.scheme.attributes.names)
    trial = ReferenceTable(definition)

    def refused(row):
        tup = _as_flex(row)
        return tup not in trial.tuples and trial.refusal(tup) is not None

    def accepted(count):
        # fewer where the value pools leave no room (three keys, say)
        rows = []
        for _ in range(200):
            row = make_row(rng)
            if len(rows) < count and FlexTuple(row) not in trial.tuples \
                    and trial.insert(row) is None:
                rows.append(row)
        return rows

    def refused_row():
        bad = make_row(rng)
        while not refused(bad):
            bad = _scramble(make_row(rng), universe, sorted(trial.tuples, key=repr), rng)
        return bad

    def fresh_pair(kind, determinants):
        # two fresh rows the trial accepts alone, the second — a row given the
        # first's values on one of ``determinants`` — refused with ``kind``
        # once the first is in
        probe = ReferenceTable(definition)
        for _ in range(100):
            first = make_row(rng)
            probe.tuples = set(trial.tuples)
            if FlexTuple(first) in trial.tuples or probe.insert(first) is not None:
                continue
            for _ in range(10):
                names = rng.choice(determinants).names
                second = dict(make_row(rng), **{name: first[name]
                                                 for name in names if name in first})
                tup = FlexTuple(second)
                refusal = probe.refusal(tup)
                if refusal is not None and refusal[0] is kind \
                        and tup not in probe.tuples and trial.refusal(tup) is None:
                    trial.insert(first)
                    return [first, second, make_row(rng)]
        return None

    clean = accepted(8)
    yield "clean", clean
    fresh = accepted(4)
    yield "duplicates", fresh[:2] + clean[:3] + fresh[:2] + fresh[2:] + fresh[3:]
    before = accepted(3)
    bad = refused_row()
    yield "violation in the middle", before + [bad] + [make_row(rng) for _ in range(3)]
    yield "no tuple", accepted(3) + [{**make_row(rng), 3: 0}] + [
        make_row(rng) for _ in range(2)]
    yield "the input raises", accepted(3) + [_FAIL, make_row(rng)]
    stored = [tup.as_dict() for tup in sorted(trial.tuples, key=repr)]
    head = accepted(2)
    filler = [stored[number % len(stored)] for number in range(520)]
    tail = accepted(2)
    yield "refused in the second chunk", head + filler + tail + [refused_row(), make_row(rng)]
    batch = fresh_pair(KeyViolation, [definition.key])
    if batch is not None:
        yield "two fresh rows sharing a key", batch
    determinants = [dependency.lhs for dependency in definition.dependencies
                    if not isinstance(dependency, ExplicitAttributeDependency)
                    and dependency.lhs != definition.key]
    batch = determinants and fresh_pair(DependencyViolation, determinants)
    if batch:
        yield "conflict within the batch", batch
    explicit = [name for dependency in definition.dependencies
                if isinstance(dependency, ExplicitAttributeDependency)
                for name in dependency.lhs.names]
    probe = ReferenceTable(definition)
    for _ in range(200 if explicit else 0):
        # a row breaking its variant behind a fresh row of its shape
        first, second = make_row(rng), make_row(rng)
        second[rng.choice(explicit)] = rng.choice(VALUES)
        probe.tuples = set(trial.tuples)
        if set(first) != set(second) or FlexTuple(first) in trial.tuples \
                or probe.insert(first) is not None:
            continue
        refusal = probe.refusal(FlexTuple(second))
        if refusal is not None and refusal[0] is DependencyViolation \
                and "conflicts with" not in next(iter(refusal[1])):
            yield "a variant broken behind its shape", [first, second]
            trial.insert(first)
            break
    rows = accepted(4) + [make_row(rng) for _ in range(2)]
    mixed = [FlexTuple(row) if number % 2 else {Attribute(name): value
                                                for name, value in row.items()}
             for number, row in enumerate(rows + rows[:2])]
    for row in mixed:
        if refused(row):
            break
        trial.insert(_as_flex(row))
    yield "tuples and attribute keys", mixed
    by_shape = {}
    for row in accepted(8):
        by_shape.setdefault(frozenset(row), []).append(row)
    yield "names, then attributes, of one shape", [
        {Attribute(name): value for name, value in row.items()} if number % 2 else row
        for group in by_shape.values() for number, row in enumerate(group)]
    for number in range(6):
        stored = sorted(trial.tuples, key=repr)
        rows = [make_row(rng) if rng.random() < 0.8
                else _scramble(make_row(rng), universe, stored, rng)
                for _ in range(rng.randrange(1, 12))]
        for row in rows:
            if refused(row):
                break
            trial.insert(row)
        yield "mixed {}".format(number), rows


class _BatchSide:
    """One database of a pair that is fed the same statements: each batch as one
    ``insert_many`` (``bulk``) or as a loop of ``insert``."""

    def __init__(self, definition, bulk, path=None, **options):
        self.bulk = bulk
        self.path = path
        self.database = Database(durable_path=path, wal_fsync=False, **options)
        self.table = self.database.create_table(
            definition.name, definition.scheme, domains=definition.domains,
            key=definition.key, dependencies=definition.dependencies,
            indexes=definition.indexes)
        self.fired = 0
        hook = self.table._on_mutation

        def counting(rows):
            self.fired += 1
            hook(rows)

        self.table._on_mutation = counting

    def issue(self, rows):
        """``(returned list, None)`` or ``(None, refusal)`` of one statement."""
        returned = []
        try:
            if self.bulk:
                returned = self.table.insert_many(_feed(rows))
            else:
                for row in _feed(rows):
                    returned.append(self.table.insert(row))
        except (ReproError, _InputFailure) as exc:
            return None, (type(exc), str(exc))
        return returned, None

    def state(self):
        table, undo = self.table, self.database._undo
        return {
            "tuples": set(table),
            "mutation_count": table.mutation_count,
            "shapes": set(table.checker.shapes()),
            "indexes": {index.attributes: {key: set(bucket) for key, bucket in index.groups()}
                        for index in table.checker.indexes()},
            "statistics": served_counts(self.database, table.name),
            "undo": None if undo is None else [(t.name, old, new) for t, old, new in undo],
        }

    def files(self):
        contents = {}
        for name in sorted(os.listdir(self.path)):
            with open(os.path.join(self.path, name), "rb") as handle:
                contents[name] = handle.read()
        return contents

    def reopened(self):
        """The table's contents after a close and a recovery."""
        self.database.close()
        recovered = Database(durable_path=self.path)
        try:
            return set(recovered.table(self.table.name)), recovered.durability.recovery_report
        finally:
            recovered.close()


def _names_are_str(table):
    """Is every stored tuple keyed by plain ``str`` names — what the log and the
    snapshot encode?  (An :class:`Attribute` key compares equal to its name.)"""
    return all(type(name) is str for tup in table for name in tup._values)


class _BatchPair:
    """A bulk side and a loop side, compared with each other and with the per-row
    reference after every statement."""

    def __init__(self, definition, directory=None, **options):
        self.bulk, self.loop = self.sides = [
            _BatchSide(definition, bulk,
                       None if directory is None else str(directory / name), **options)
            for bulk, name in ((True, "bulk"), (False, "loop"))]
        self.reference = ReferenceTable(definition)
        self.seen = set()
        #: statement label -> the class of its refusal, or None
        self.refusals = {}

    def compare(self, what):
        assert self.bulk.state() == self.loop.state(), what
        assert set(self.bulk.table) == self.reference.tuples, what
        assert _names_are_str(self.bulk.table), what

    def statement(self, label, rows):
        """Issue ``rows`` on both sides; returns the (common) refusal."""
        what = (label, rows)
        fired, count = self.bulk.fired, self.bulk.table.mutation_count
        (ours, refusal), (theirs, their_refusal) = (side.issue(rows) for side in self.sides)
        assert refusal == their_refusal, what
        assert ours == theirs, what
        assert_same_outcome(_expected_stop(self.reference, rows), refusal, what)
        self.refusals[label] = refusal and refusal[0]
        self.compare(what)
        applied = self.bulk.table.mutation_count - count
        # the one observable difference: one hook firing per statement that
        # applied a row — also when it raised after some
        assert self.bulk.fired - fired == (applied > 0), what
        if refusal is not None and applied:
            self.seen.add("raised after a prefix")
        if refusal is None and applied < len(rows):
            self.seen.add("duplicates absorbed")
        return refusal


class _Abort(Exception):
    pass


@pytest.mark.parametrize("mode", ["memory", "rollback", "durable", "durable-transactions"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_insert_many_is_a_loop_of_insert(case, mode, tmp_path):
    """Same returned lists, first violation, applied prefix, indexes, plans,
    counters, undo log and log bytes — in memory, inside a transaction that
    rolls back, and journaled (autocommitted and one transaction a batch)."""
    definition, make_row = CASES[case]()
    durable = mode.startswith("durable")
    pair = _BatchPair(definition, tmp_path if durable else None)
    batches = list(_batches(definition, make_row, random.Random(7)))
    assert pair.statement(*batches[0]) is None
    for side in pair.sides:
        side.database.analyze(definition.name)
    if mode == "rollback":
        kept = set(pair.reference.tuples)
        with pytest.raises(_Abort):
            with pair.bulk.database.transaction(), pair.loop.database.transaction():
                for label, rows in batches[1:]:
                    pair.statement(label, rows)
                raise _Abort
        pair.reference.tuples = kept
        pair.compare("after the rollback")
        pair.statement(*batches[1])  # on the plans and indexes the rollback left
    elif mode == "durable-transactions":
        for label, rows in batches[1:]:
            kept = set(pair.reference.tuples)
            try:
                with pair.bulk.database.transaction(), pair.loop.database.transaction():
                    if pair.statement(label, rows) is not None:
                        raise _Abort
            except _Abort:
                pair.reference.tuples = kept
                pair.compare((label, "rolled back"))
    else:
        for label, rows in batches[1:]:
            pair.statement(label, rows)
    assert "duplicates absorbed" in pair.seen
    if case not in ("nested-optional", "unfolded"):  # no room there for a prefix
        assert "raised after a prefix" in pair.seen
    refusals = pair.refusals
    assert refusals["no tuple"] is TupleError
    assert refusals["the input raises"] is _InputFailure
    assert refusals["refused in the second chunk"] is not None
    assert "tuples and attribute keys" in refusals
    assert refusals["names, then attributes, of one shape"] is None
    if case in ("employees", "orders", "orders+dependencies"):
        assert refusals["two fresh rows sharing a key"] is KeyViolation
    if case == "employees":
        assert refusals["a variant broken behind its shape"] is DependencyViolation
    if case == "orders+dependencies":
        assert refusals["conflict within the batch"] is DependencyViolation
    if durable:
        assert pair.bulk.files() == pair.loop.files()
        for side in pair.sides:
            assert side.reopened()[0] == pair.reference.tuples


#: REPRO_SWEEP_EXAMPLES=<n> raises the example count (CI's random-seed sweep)
BULK_EXAMPLES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "60"))


class _TimidChecker(ConstraintChecker):
    """A chunk test stricter than it must be: it admits half the prefix the
    engine's admits, so the row path decides each row it stops at."""

    def admit_chunk(self, rows, shapes):
        admitted, plans = super().admit_chunk(rows, shapes)
        return admitted // 2, plans


def _random_batch(rng, make_row, definition, stored, size, spoil, repeat):
    """``size`` rows: repeats of stored rows (share ``repeat``), fresh rows,
    spoiled ones — a wrong shape, value or key, or another variant's
    determinant value — rows that make no tuple and input failures (together
    share ``spoil``) — as dicts, tuples or dicts keyed by attributes."""
    universe = list(definition.scheme.attributes.names)
    determinants = [value.as_dict() for dependency in definition.dependencies
                    if isinstance(dependency, ExplicitAttributeDependency)
                    for variant in dependency.variants for value in variant.values]
    rows = []
    for _ in range(size):
        roll = rng.random()
        if roll < spoil / 10:
            rows.append(_FAIL if rng.random() < 0.5 else {**make_row(rng), 3: 0})
            continue
        if rng.random() < repeat and stored:
            row = rng.choice(stored).as_dict()
        else:
            row = make_row(rng)
            if roll < spoil / 2 and determinants:
                row.update(rng.choice(determinants))
            elif roll < spoil:
                row = _scramble(row, universe, stored, rng)
        form = rng.random()
        rows.append(FlexTuple(row) if form < 0.2 else row if form > 0.3
                    else {Attribute(name): value for name, value in row.items()})
    return rows


@settings(max_examples=BULK_EXAMPLES, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), enforce=st.sampled_from([True, True, False]),
       timid=st.booleans(), seed=st.integers(0, 2**32 - 1),
       batches=st.lists(st.tuples(st.sampled_from([40, 1, 12, 530]),
                                  st.sampled_from([0.3, 0.0, 0.05]),
                                  st.sampled_from([0.3, 0.97])), min_size=1, max_size=4))
def test_bulk_admission_is_a_loop_of_insert(case, enforce, timid, seed, batches):
    """Random batches over every case: the same returned list, error class and
    text, applied prefix, counters, kept shapes and index buckets as a loop of
    inserts — also when the chunk test admits less than it could."""
    definition, make_row = CASES[case]()
    rng = random.Random(seed)
    bulk, loop = Table(definition, enforce=enforce), Table(definition, enforce=enforce)
    if timid:
        bulk.checker = _TimidChecker(definition, enforce)
    for size, spoil, repeat in batches:
        rows = _random_batch(rng, make_row, definition, sorted(loop, key=repr), size,
                             spoil, repeat)
        outcomes = []
        for table in (bulk, loop):
            returned = []
            try:
                if table is bulk:
                    returned = table.insert_many(_feed(rows))
                else:
                    for row in _feed(rows):
                        returned.append(table.insert(row))
            except (ReproError, _InputFailure) as exc:
                returned = (type(exc), str(exc))
            outcomes.append(returned)
        assert outcomes[0] == outcomes[1], rows
        assert list(bulk) == list(loop), rows
        assert _names_are_str(bulk), rows
        assert bulk.mutation_count == loop.mutation_count
        assert bulk.checker.shapes() == loop.checker.shapes()
        for ours, theirs in zip(bulk.checker.indexes(), loop.checker.indexes()):
            assert ours.attributes == theirs.attributes
            assert ours.same_buckets(theirs) and len(ours) == len(theirs), ours


def test_the_journal_sees_each_row_before_it_is_applied():
    definition, _ = _employees()
    rows = generate_employees(10, seed=3)
    seen, fired = [], []

    def journal(old, new, merges):
        assert (old, merges) == (None, False) and new not in table
        assert len(table) == len(seen)  # every earlier row is applied by now
        seen.append(new)
        if len(seen) == 6:
            raise OSError("log full")

    table = Table(definition, journal=journal,
                  on_mutation=fired.append)
    with pytest.raises(OSError):
        table.insert_many(rows)
    assert seen == [FlexTuple(row) for row in rows[:6]]
    assert set(table) == set(seen[:5]) and table.mutation_count == 5
    assert fired == [5]


def test_auto_checkpoint_waits_for_the_end_of_the_batch(tmp_path):
    """The threshold is crossed early in the batch; the checkpoint comes once,
    after the last row (never between a journal call and its apply), and its
    snapshot holds every row."""
    definition, _ = _employees()
    rows = generate_employees(60, seed=12)
    pair = _BatchPair(definition, tmp_path, checkpoint_every_bytes=2048)
    assert pair.statement("one batch", rows) is None
    assert pair.loop.database.durability.checkpoints_written > 1
    assert pair.bulk.database.durability.checkpoints_written == 1
    assert pair.bulk.fired == 1
    for side in pair.sides:
        recovered, report = side.reopened()
        assert recovered == {FlexTuple(row) for row in rows}
        assert report.checkpoint_loaded
        if side.bulk:  # every row is in the snapshot, the new epoch's log is empty
            assert report.records_read == 0


def test_the_papers_type_change():
    """Changing ``jobtype`` alone is refused; changing it with the variant's
    attributes moves the tuple to another shape — and another plan."""
    definition, _ = _employees()
    table, reference = Table(definition), ReferenceTable(definition)
    row = {"emp_id": 1, "name": "casey", "salary": 3000.0, "jobtype": "secretary",
           "typing_speed": 80, "foreign_languages": "french"}
    assert reference.insert(row) is None and table.insert(row) == FlexTuple(row)
    old = FlexTuple(row)
    assert_same_outcome(reference.update(old, {"jobtype": "salesman"}),
                        engine_refusal(table.update, old, jobtype="salesman"), "bare")
    assert set(table) == {old}
    changes = {"jobtype": "salesman", "typing_speed": REMOVE, "foreign_languages": REMOVE,
               "products": "dbms", "sales_commission": 0.1}
    assert reference.update(old, changes) is None
    new = table.update(old, **changes)
    assert_same_state(table, reference)
    assert new.attributes != old.attributes
    assert sorted(table.checker.shapes(), key=str) == sorted(
        [old.attributes, new.attributes], key=str)


def test_stored_tuples_share_one_attribute_set_per_shape():
    definition, _ = _employees()
    table = Table(definition)
    table.insert_many(generate_employees(200, seed=7))
    shapes = {tup.attributes for tup in table}
    assert len({id(tup.attributes) for tup in table}) == len(shapes) == 3
    assert set(table.checker.shapes()) == shapes


def test_a_row_resolves_its_plan_once(monkeypatch):
    """The plan the check resolved is the one registration files the tuple
    by: the first row of a shape builds one plan, not one per question."""
    built = []
    build = ShapePlan.__init__

    def counting(plan, checker, shape):
        built.append(shape)
        build(plan, checker, shape)

    monkeypatch.setattr(ShapePlan, "__init__", counting)
    definition, _ = _employees()
    rows = generate_employees(200, seed=7)
    for table, load in ((Table(definition), lambda table: table.insert_many(rows)),
                        (Table(definition), lambda table: [table.insert(row) for row in rows])):
        del built[:]
        load(table)
        assert len(built) == len(set(built)) == len(table.checker.shapes()) == 3


# -- the plan's verdicts ---------------------------------------------------------------------

UNIVERSE = ["A", "B", "C", "D", "E", "F"]


def _random_scheme(rng, names):
    """A flexible scheme over exactly ``names``, nested at random."""
    names = list(names)
    rng.shuffle(names)
    components = []
    while names:
        take = rng.randrange(1, len(names) + 1)
        group, names = names[:take], names[take:]
        components.append(group[0] if len(group) == 1 and rng.random() < 0.8
                          else _random_scheme(rng, group) if len(group) > 1
                          else FlexibleScheme(rng.randrange(2), 1, group))
    at_most = rng.randrange(1, len(components) + 1)
    return FlexibleScheme(rng.randrange(at_most + 1), at_most, components)


@given(st.integers(0, 10**6))
def test_admitted_flag_is_admits_is_dnf_membership(seed):
    rng = random.Random(seed)
    scheme = _random_scheme(rng, UNIVERSE[:rng.randrange(2, len(UNIVERSE) + 1)])
    checker = ConstraintChecker(TableDefinition("t", scheme))
    dnf = scheme.dnf()
    for size in range(len(UNIVERSE) + 1):
        for names in combinations(UNIVERSE, size):
            plan = ShapePlan(checker, frozenset(names))
            assert plan.admitted == scheme.admits(names) == (AttributeSet(names) in dnf)
            assert plan.attributes == AttributeSet(names)
    assert checker.shapes() == []  # looking is not keeping


def test_refused_shapes_are_not_kept():
    definition, _ = _employees()
    table = Table(definition)
    table.insert_many(generate_employees(50, seed=2))
    before = len(table.checker.shapes())
    assert before == 3
    base = generate_employees(1, seed=9, start_id=1000)[0]
    refused = 0
    for number in range(10_000):
        garbage = {"junk{}".format(number): 1}
        for row in (dict(base, **garbage),              # not admitted
                    garbage):                            # nor keyed
            with pytest.raises(ReproError):
                table.insert(row)
            refused += 1
    # an admitted shape no tuple of which is ever accepted is not kept either
    with pytest.raises(DependencyViolation):
        table.insert(dict(base, sales_commission=0.5))
    lax = Table(definition, enforce=False)  # the key is enforced regardless
    for number in range(1_000):
        with pytest.raises(KeyViolation):
            lax.insert({"junk{}".format(number): 1})
    assert refused == 20_000 and len(table.checker.shapes()) == before
    assert lax.checker.shapes() == [] and len(table) == 50


# -- recovery and rollback -------------------------------------------------------------------


def _durable_employees(path, rows):
    database = Database(durable_path=path)
    definition, _ = _employees()
    table = database.create_table(
        "employees", definition.scheme, domains=definition.domains, key=definition.key,
        dependencies=definition.dependencies, indexes=definition.indexes)
    table.insert_many(rows)
    return database, table


class _ForgetfulChecker(ConstraintChecker):
    """A live checker gone wrong: it leaves salesmen out of its indexes, one
    row or a chunk at a time."""

    def register_tuple(self, tup):
        if tup["jobtype"] != "salesman":
            super().register_tuple(tup)

    def register_chunk(self, rows, shapes, plans):
        for tup in rows:
            self.register_tuple(tup)


def _verify_as_before(database):
    """``verify_database`` as it was before it stopped sorting healthy tables:
    every table in ``repr`` order, the index check by tuple sets.  The oracle for
    the problem list of a database that has problems."""
    problems = []
    for name in database.tables():
        table = database.table(name)
        live = table.checker
        fresh = ConstraintChecker(table.definition, live.enforce)
        for tup in sorted(table, key=repr):
            try:
                fresh.check_insert(tup)
                fresh.register_tuple(tup)
            except ReproError as exc:
                problems.append("table {!r}: {}".format(name, exc))
        for index in live.indexes():
            indexed = set()
            for _key, bucket in index.groups():
                indexed.update(bucket)
            expected = {tup for tup in table if tup.is_defined_on(index.attributes)}
            if indexed != expected:
                problems.append(
                    "table {!r}: index on {} holds {} tuples, expected {}".format(
                        name, index.attributes, len(indexed), len(expected)))
        counts, recounted = live.shape_counts(), _recount(table)
        if counts != recounted:
            problems.append("table {!r}: shape counts {} != recounted {}".format(
                name, *(sorted((sorted(shape), count) for shape, count in each.items())
                        for each in (counts, recounted))))
        if sum(counts.values()) != len(table):
            problems.append("table {!r}: shape counts sum to {} != stored {}".format(
                name, sum(counts.values()), len(table)))
    return problems


def _secretary(emp_id, **changes):
    return dict({"emp_id": emp_id, "name": "mallory", "salary": 1.0,
                 "jobtype": "secretary", "typing_speed": 1, "foreign_languages": "x"},
                **changes)


#: rows smuggled past the live checks, and how many of them verification refuses
SMUGGLED = {
    "wrong variant and wrong value": (
        [_secretary(901, jobtype="salesman"), _secretary(902, salary="a lot")], 2),
    "two sharing a key": ([_secretary(901), _secretary(901, name="trudy")], 1),
    # the one that comes first in ``repr`` order is refused for its salary and
    # never registered, so the key of the other is free
    "two sharing a key, the first refused": (
        [_secretary(901, salary="a lot"), _secretary(901, name="trudy")], 1),
    "the key of an honest row": ([_secretary(3, name="trudy")], 1),
    "not admitted, and no key": ([{"name": "nobody", "zzz": 1}], 1),
}


class TestRecoveryStillHasTeeth:
    def _in_memory(self, rows=()):
        database = Database()
        definition, _ = _employees()
        table = database.create_table(
            "employees", definition.scheme, domains=definition.domains, key=definition.key,
            dependencies=definition.dependencies, indexes=definition.indexes)
        table.insert_many(generate_employees(10, seed=8))
        database.analyze("employees")
        for row in rows:  # past every check, into the live indexes
            tup = FlexTuple(row)
            table._tuples[tup] = None
            table.checker.register_tuple(tup)
        return database, table

    @pytest.mark.parametrize("smuggled", sorted(SMUGGLED))
    def test_a_failing_database_gets_the_report_it_always_got(self, smuggled):
        rows, refused = SMUGGLED[smuggled]
        database, table = self._in_memory(rows)
        problems = verify_database(database)
        assert problems == _verify_as_before(database)
        # the refusals: the smuggled rows were counted as they were filed
        assert len(problems) == refused

    def test_verify_names_a_miscounted_shape(self):
        database, table = self._in_memory()
        shape = frozenset(sorted(table, key=repr)[0]._values)
        table.checker._plans[shape].count += 1
        problems = verify_database(database)
        assert problems == _verify_as_before(database)
        assert len(problems) == 2
        assert problems[0].startswith("table 'employees': shape counts [")
        assert problems[1] == "table 'employees': shape counts sum to 11 != stored 10"

    def test_reopen_names_a_miscounted_shape(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db")
        database, _ = _durable_employees(path, generate_employees(20, seed=4))
        database.checkpoint()
        database.close()
        register_chunk = ConstraintChecker.register_chunk

        def miscounting(self, rows, shapes, plans):
            register_chunk(self, rows, shapes, plans)
            self._plans[shapes[0]].count += 1

        monkeypatch.setattr(ConstraintChecker, "register_chunk", miscounting)
        with pytest.raises(RecoveryError,
                           match="shape counts sum to 21 != stored 20"):
            Database(durable_path=path)

    def test_a_consistent_database_is_checked_as_stored(self, monkeypatch):
        database, table = self._in_memory()
        table.delete(sorted(table, key=repr)[0])  # the row count follows
        monkeypatch.setattr(FlexTuple, "__repr__", lambda tup: pytest.fail(
            "repr of a stored tuple: a table without problems was sorted"))
        assert verify_database(database) == []

    def test_verify_names_a_live_index_that_files_a_tuple_under_another_key(self):
        """Set equality — all the check used to ask — passes this index."""
        database, table = self._in_memory()
        index = table.checker.key_index
        victim = sorted(table, key=repr)[0]
        index.drop((victim["emp_id"],), victim)
        index.put((10**6,), victim)
        assert len(index) == 10 and _verify_as_before(database) == []
        assert verify_database(database) == [
            "table 'employees': index on {emp_id} holds the expected 10 tuples, "
            "but not under the expected keys"]
        index.drop((10**6,), victim)
        index.put((victim["emp_id"],), victim)
        assert verify_database(database) == []

    def _smuggle(self, path, rows):
        """Append ``rows`` to the first table's last ``rows`` record, counted in
        the ``end`` record, and frame the records again."""
        snapshot = os.path.join(path, SNAPSHOT_FILENAME)
        records = read_wal(snapshot)[0]
        first = next(r["table"]["name"] for r in records if r["op"] == "create_table")
        [r for r in records if r["op"] == "rows" and r["table"] == first][-1]["values"].extend(rows)
        records[-1]["rows"] += len(rows)
        with open(snapshot, "wb") as handle:
            handle.write(MAGIC + b"".join(map(frame_record, records)))

    def test_smuggled_tuples_fail_reopen_naming_each(self, tmp_path):
        path = str(tmp_path / "db")
        database, _ = _durable_employees(path, generate_employees(20, seed=4))
        database.checkpoint()
        database.close()
        Database(durable_path=path).close()  # the honest snapshot reopens
        wrong_variant = {"emp_id": 901, "name": "mallory", "salary": 1.0,
                         "jobtype": "salesman", "typing_speed": 1, "foreign_languages": "x"}
        wrong_value = {"emp_id": 902, "name": "trudy", "salary": "a lot",
                       "jobtype": "secretary", "typing_speed": 1, "foreign_languages": "x"}
        self._smuggle(path, [wrong_variant, wrong_value])

        def refused():
            with pytest.raises(RecoveryError) as caught:
                Database(durable_path=path)
            message = str(caught.value)
            assert "tuple {!r} violates".format(FlexTuple(wrong_variant)) in message
            assert "value 'a lot' of attribute 'salary' violates its domain" in message
            assert message.count("table 'employees':") == 2

        # The load refuses both rows, naming each.
        refused()

    def test_desynchronised_index_fails_the_audit_only(self, monkeypatch):
        rows = generate_employees(30, seed=6)
        salesmen = sum(row["jobtype"] == "salesman" for row in rows)
        assert salesmen
        monkeypatch.setattr(database_module, "ConstraintChecker", _ForgetfulChecker)
        # A live database built with the forgetful checker: the audit names
        # both of its indexes.
        live = Database()
        definition, _ = _employees()
        live.create_table(
            "employees", definition.scheme, domains=definition.domains, key=definition.key,
            dependencies=definition.dependencies, indexes=definition.indexes
        ).insert_many(rows)
        problems = verify_database(live)
        for attributes in ("{emp_id}", "{jobtype}"):
            assert "table 'employees': index on {} holds {} tuples, expected 30".format(
                attributes, 30 - salesmen) in problems

    def test_verify_names_a_live_index_that_lost_a_tuple(self):
        database = Database()
        definition, _ = _employees()
        table = database.create_table(
            "employees", definition.scheme, domains=definition.domains, key=definition.key,
            dependencies=definition.dependencies, indexes=definition.indexes)
        table.insert_many(generate_employees(10, seed=8))
        assert verify_database(database) == []
        victim = sorted(table, key=repr)[0]
        table.checker.key_index.drop((victim["emp_id"],), victim)
        assert verify_database(database) == [
            "table 'employees': index on {emp_id} holds 9 tuples, expected 10"]


class TestRollbackKeepsCheckingAndIndexes:
    def test_restore_equals_a_rebuild_and_keeps_the_plans(self):
        definition, _ = _employees()
        table, reference = Table(definition), ReferenceTable(definition)
        for row in generate_employees(40, seed=3):
            assert reference.insert(row) is None
            table.insert(row)
        checker, snapshot = table.checker, table.snapshot()
        kept = {tuple(index.attributes.names): index for index in checker.indexes()}
        for row in generate_employees(25, seed=5, start_id=500):
            table.insert(row)
        table.delete(sorted(snapshot, key=repr)[0])
        table.restore(snapshot)
        assert table.checker is checker and len(checker.shapes()) == 3
        assert {tuple(index.attributes.names): index
                for index in checker.indexes()} == kept
        assert_same_state(table, reference)
        table.restore(set())
        assert len(table) == 0 and all(len(index) == 0 for index in checker.indexes())

    def test_inserts_after_a_rollback_are_still_checked(self):
        database = Database()
        definition, _ = _employees()
        table = database.create_table(
            "employees", definition.scheme, domains=definition.domains, key=definition.key,
            dependencies=definition.dependencies, indexes=definition.indexes)
        reference = ReferenceTable(definition)
        rows = generate_employees(20, seed=1)
        for row in rows:
            reference.insert(row)
        table.insert_many(rows)
        with pytest.raises(RuntimeError):
            with database.transaction():
                table.insert_many(generate_employees(10, seed=2, start_id=100))
                table.update(FlexTuple(rows[0]), salary=1.0)
                raise RuntimeError("roll back")
        assert_same_state(table, reference)
        rng = random.Random(11)
        for row in generate_employees(30, invalid_fraction=0.5, seed=3, start_id=15):
            row = _scramble(row, list(definition.scheme.attributes.names),
                            sorted(reference.tuples, key=repr), rng)
            assert_same_outcome(reference.insert(row),
                                engine_refusal(table.insert, row), row)
        assert_same_state(table, reference)
        assert verify_database(database) == []


# -- FlexTuple construction ------------------------------------------------------------------


class TestTupleConstructionFastPath:
    def test_attribute_keys_are_still_normalized(self):
        from repro.model.attributes import Attribute

        plain = FlexTuple({"a": 1, "b": 2})
        mixed = FlexTuple({Attribute("a"): 1, "b": 2})
        assert mixed == plain and hash(mixed) == hash(plain)
        assert hash(plain) == hash(frozenset({"a": 1, "b": 2}.items()))
        assert list(mixed.as_dict()) == ["a", "b"]

    def test_errors_are_kept(self):
        from repro.errors import TupleError

        with pytest.raises(TupleError, match="given twice"):
            FlexTuple({"a": 1}, a=2)
        with pytest.raises(TupleError, match="cannot interpret 3 as an attribute"):
            FlexTuple({"a": 1, 3: 2})
