"""Span tracing from outside the engine.

The benchmark owns no code in ``src/``; the traced run gets its per-layer
numbers by wrapping a fixed table of the layers' *public* callables
(:data:`TARGETS`).  Each wrapped call inside a timed operation records one span
``(i, name, start, end, parent, root)``; spans stay in memory (parallel
``array`` columns) and are written out when the workload ends.

* Targets are resolved by dotted name when :meth:`SpanTracer.install` runs.  A
  target that no longer exists is counted in ``unresolved`` and skipped — the
  metrics fed by it read 0 — and never raises.
* A module-level function is replaced in *every* loaded module that imported
  it by name (``from x import f`` copies the reference), a method on its class.
* Wrappers record only between :meth:`begin_root` and :meth:`end_root`, so
  set-up and verification stay untraced; :meth:`uninstall` restores the
  originals.
* A span's self time is its duration minus the part its child spans cover.
  The process is single threaded, so children never overlap.
"""

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: (span name, "module:attribute[.attribute]") — the span name's prefix is the
#: ``src/repro`` package (layer) the time is charged to.
TARGETS = (
    ("query.parse", "repro.query.parser:parse_query"),
    ("optimizer.rewrite", "repro.optimizer.planner:Planner.optimize"),
    ("optimizer.joinorder", "repro.optimizer.joinorder:order_joins"),
    ("obs.expression_key", "repro.obs.feedback:expression_key"),
    ("exec.plan", "repro.exec.executor:PhysicalExecutor.plan"),
    ("exec.execute", "repro.exec.planner:PhysicalPlan.execute"),
    ("model.tuple_build", "repro.model.tuples:FlexTuple.__init__"),
    ("model.admits", "repro.model.scheme:FlexibleScheme.admits"),
    ("model.batch_pivot", "repro.model.batches:TupleBatch.column"),
    ("model.batch_pivot", "repro.model.batches:TupleBatch.values_list"),
    ("core.ead_check",
     "repro.core.dependencies:ExplicitAttributeDependency.check_tuple"),
    ("engine.check_shape", "repro.engine.constraints:ConstraintChecker.check_shape"),
    ("engine.key_check", "repro.engine.constraints:KeyConstraint.check"),
    ("engine.check_insert", "repro.engine.constraints:ConstraintChecker.check_insert"),
    ("engine.index_upkeep", "repro.engine.constraints:ConstraintChecker.register_tuple"),
    ("engine.index_upkeep",
     "repro.engine.constraints:ConstraintChecker.unregister_tuple"),
    ("engine.insert", "repro.engine.database:Table.insert"),
    ("engine.update", "repro.engine.database:Table.update"),
    ("engine.delete", "repro.engine.database:Table.delete"),
    ("engine.txn_snapshot", "repro.engine.database:Table.snapshot"),
    ("engine.query", "repro.engine.database:Database.query"),
    ("engine.query", "repro.engine.database:Database.execute"),
    ("engine.query", "repro.engine.database:Database.execute_with_report"),
    ("engine.serialize", "repro.engine.serialization:database_to_dict"),
    ("engine.populate", "repro.engine.serialization:populate_database_from_dict"),
    ("stats.note_mutation", "repro.stats.catalog:StatisticsCatalog.note_mutation"),
    ("stats.analyze", "repro.stats.statistics:analyze_table"),
    ("storage.log_mutation", "repro.storage.durable:DurabilityManager.log_mutation"),
    ("storage.wal_append", "repro.storage.wal:WriteAheadLog.append"),
    ("storage.wal_append", "repro.storage.wal:WriteAheadLog.commit"),
    ("storage.wal_append", "repro.storage.wal:WriteAheadLog.sync"),
    ("storage.fsync", "walfile:CountingFile.fsync"),
    ("storage.checkpoint", "repro.storage.durable:DurabilityManager.checkpoint"),
    ("storage.checkpoint_write", "repro.storage.checkpoint:write_checkpoint"),
    ("storage.recovery_load_snapshot", "repro.storage.checkpoint:load_checkpoint"),
    ("storage.recovery_read_wal", "repro.storage.recovery:read_wal"),
    ("storage.recovery_replay", "repro.storage.recovery:replay_records"),
    ("storage.recovery_verify", "repro.storage.recovery:verify_database"),
)


def resolve(target):
    """``(owner, attribute name, callable)`` of a dotted target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError):
        return None


def _holders(owner, name, original):
    """Every namespace whose ``name`` is ``original``: the defining class, or —
    for a module-level function — each loaded module that imported it."""
    if not isinstance(owner, type(sys)):
        return [owner]
    return [module for module in list(sys.modules.values())
            if module is not None and getattr(module, name, None) is original]


class SpanTracer:
    """Records spans of the wrapped callables while a root operation is open."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []          # name id -> span or root-class name
        self._name_ids = {}
        self.name_of = array("H")
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.parent = array("i")  # -1 for a root operation
        self.root = array("i")
        self._root = -1
        self._current = -1
        self._patched = []       # (holder, attribute, original)
        self.unresolved = []

    def _name_id(self, name):
        try:
            return self._name_ids[name]
        except KeyError:
            self.names.append(name)
            self._name_ids[name] = len(self.names) - 1
            return len(self.names) - 1

    # -- wrapping ----------------------------------------------------------------------

    def _wrapper(self, function, name_id):
        tracer = self
        name_of, start, end = self.name_of, self.start, self.end
        parent_of, root_of = self.parent, self.root
        now = perf_counter_ns

        def traced(*args, **kwargs):
            root = tracer._root
            if root < 0:
                return function(*args, **kwargs)
            index = len(start)
            parent = tracer._current
            name_of.append(name_id)
            parent_of.append(parent)
            root_of.append(root)
            end.append(0)
            tracer._current = index
            start.append(now())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = now()
                tracer._current = parent

        traced.__wrapped__ = function
        return traced

    def install(self):
        if self._patched:
            return
        for name, target in self.targets:
            resolved = resolve(target)
            if resolved is None or not callable(resolved[2]):
                self.unresolved.append(target)
                continue
            owner, attribute, original = resolved
            wrapped = self._wrapper(original, self._name_id(name))
            for holder in _holders(owner, attribute, original):
                setattr(holder, attribute, wrapped)
                self._patched.append((holder, attribute, original))

    def uninstall(self):
        for holder, attribute, original in reversed(self._patched):
            setattr(holder, attribute, original)
        self._patched = []

    # -- root operations -----------------------------------------------------------------

    def begin_root(self, operation_class):
        index = len(self.start)
        self.name_of.append(self._name_id(operation_class))
        self.parent.append(-1)
        self.root.append(index)
        self.end.append(0)
        self._root = self._current = index
        self.start.append(perf_counter_ns())

    def end_root(self):
        self.end[self._root] = perf_counter_ns()
        self._root = self._current = -1

    # -- output ------------------------------------------------------------------------------

    def dump(self, path):
        """One JSON object per span; times in µs since the first span."""
        if not len(self.start):
            open(path, "w").close()
            return
        origin = self.start[0]
        names, name_of = self.names, self.name_of
        start, end, parent, root = self.start, self.end, self.parent, self.root
        line = '{{"i":{},"name":"{}","start_us":{:.3f},"end_us":{:.3f},"parent":{},"root":{}}}\n'
        with open(path, "w") as handle:
            handle.writelines(
                line.format(i, names[name_of[i]], (start[i] - origin) / 1e3,
                            (end[i] - origin) / 1e3, parent[i], root[i])
                for i in range(len(start)))

    def summarize(self):
        return TraceSummary(self)


class TraceSummary:
    """Self and inclusive time per (span name, root operation class).

    ``spans[(name, class)]`` is ``[self_ns, total_ns, calls, roots]`` where
    ``roots`` counts the root operations of that class in which the span
    occurred at least once; ``root_ns[class]`` holds every root duration and
    ``root_self_ns`` the root time no span covered (the unattributed time).
    """

    def __init__(self, tracer):
        names, name_of = tracer.names, tracer.name_of
        start, end, parent, root = tracer.start, tracer.end, tracer.parent, tracer.root
        count = len(start)
        covered = array("q", bytes(8 * count))
        for i in range(count):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        self.spans = defaultdict(lambda: [0, 0, 0, 0])
        self.root_ns = defaultdict(list)
        self.root_self_ns = 0
        #: per (span name, class), the durations of the roots it occurred in
        self.root_ns_with = defaultdict(list)
        last_root = {}
        for i in range(count):
            duration = end[i] - start[i]
            if parent[i] < 0:
                self.root_ns[names[name_of[i]]].append(duration)
                self.root_self_ns += duration - covered[i]
                continue
            name = names[name_of[i]]
            key = (name, names[name_of[root[i]]])
            entry = self.spans[key]
            entry[0] += duration - covered[i]
            entry[1] += duration
            entry[2] += 1
            if last_root.get(key) != root[i]:
                last_root[key] = root[i]
                entry[3] += 1
                self.root_ns_with[key].append(end[root[i]] - start[root[i]])
        self.span_count = count

    def total(self, names, classes=None):
        """``[self_ns, total_ns, calls, roots]`` summed over span ``names``
        within root operations of ``classes`` (``None``: every class)."""
        result = [0, 0, 0, 0]
        for (name, operation_class), entry in self.spans.items():
            if name in names and (classes is None or operation_class in classes):
                for position in range(4):
                    result[position] += entry[position]
        return result

    def unattributed_share(self):
        total = sum(sum(durations) for durations in self.root_ns.values())
        return self.root_self_ns / total if total else 0.0

    def self_share_by_layer(self, classes=None):
        """Share of root-operation time per layer (span-name prefix), with the
        unattributed remainder under ``"-"``; the README's layer table."""
        by_layer = defaultdict(int)
        for (name, operation_class), entry in self.spans.items():
            if classes is None or operation_class in classes:
                by_layer[name.split(".")[0]] += entry[0]
        total = sum(sum(durations) for operation_class, durations in self.root_ns.items()
                    if classes is None or operation_class in classes)
        if not total:
            return {}
        shares = {layer: value / total for layer, value in by_layer.items()}
        shares["-"] = 1.0 - sum(shares.values())
        return shares


def count_calls(target, action):
    """How often ``target`` is called while ``action()`` runs (0 when the
    target is gone).  Used on a separate slice so that the counting wrapper
    never sits inside a timed operation."""
    resolved = resolve(target)
    if resolved is None:
        action()
        return 0
    owner, attribute, original = resolved
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    holders = _holders(owner, attribute, original)
    for holder in holders:
        setattr(holder, attribute, counted)
    try:
        action()
    finally:
        for holder in holders:
            setattr(holder, attribute, original)
    return calls[0]
