"""``oltp_durable`` — single-row reads and writes on one durable table.

The only workload where ``storage`` (WAL encode, append, fsync, automatic
checkpoints) and the per-call fixed costs of a short query (parse, rewrite,
``expression_key``, a plan-cache miss per new literal) dominate, and where
reads and writes hit the same table: an ingest gain that costs single-row
latency, or a write that strands cached plans, shows here.

A dict model of the acknowledged writes checks every ``point_read`` and every
``reject``; at the end the data directory is copied as a power cut would have
left it (logs cut to their fsynced prefix), reopened and compared with the
model.
"""

import os
import random
import shutil

from repro.engine import Database
from repro.engine.database import REMOVE
from repro.model.tuples import FlexTuple
from repro.storage.recovery import verify_database
from repro.workloads.employees import VARIANTS_BY_JOBTYPE, generate_employees

from data import attribute_sets_per_row, create_employees, refusal, user_bytes
from harness import Workload, counter_delta, engine_counters
from walfile import WalCounters, crash_copy

PRELOAD_ROWS = 8_000
OPS_PER_SECOND = 1_400
#: small enough for several automatic checkpoints inside one timed phase
CHECKPOINT_EVERY_BYTES = 384 * 1024
#: one block of the fixed interleaving: 40% reads, 20% inserts, 10%
#: transactional inserts, 20% updates, 10% deletes, plus one rejected write
BLOCK = (["point_read"] * 20 + ["insert"] * 10 + ["txn_insert"] * 5
         + ["update"] * 10 + ["delete"] * 5 + ["reject"])
POINT_READ = "SELECT name, salary FROM employees WHERE emp_id = {}"
WARM_UP_READS = 3


class OltpDurable(Workload):
    name = "oltp_durable"
    SLOTS = ("insert", "txn_insert", "point_read", "update")
    ROLES = {
        "call": ("point_read",),
        "miss": ("point_read",),
        "lookup": ("point_read",),
        "write": ("insert", "txn_insert", "update"),
        "txn": ("txn_insert",),
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.database = None
        self.directory = os.path.join(self.workdir, "oltp")

    # -- inputs ------------------------------------------------------------------------

    def _generate(self):
        rng = random.Random(self.seed)
        preload_count = self.rows(PRELOAD_ROWS)
        op_count = self.sized(OPS_PER_SECOND, minimum=len(BLOCK))
        blocks = -(-op_count // len(BLOCK))
        fresh = generate_employees(preload_count + blocks * 16, seed=self.seed)
        self.preload = fresh[:preload_count]
        stream = iter(fresh[preload_count:])
        # Donors of variant attributes for type changes and wrong-variant rejects.
        donors = {}
        for row in generate_employees(64, seed=self.seed + 1):
            donors.setdefault(row["jobtype"], row)
        live = {row["emp_id"]: row for row in self.preload}
        ids = list(live)
        updates = rejects = 0
        ops = []

        def pick(remove=False):
            position = rng.randrange(len(ids))
            key = ids[position]
            if remove:
                ids[position] = ids[-1]
                ids.pop()
            return key

        for _ in range(blocks):
            block = list(BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "point_read":
                    ops.append((kind, pick()))
                elif kind in ("insert", "txn_insert"):
                    row = next(stream)
                    live[row["emp_id"]] = row
                    ids.append(row["emp_id"])
                    ops.append((kind, row))
                elif kind == "update":
                    key = pick()
                    updates += 1
                    changes = {"salary": round(rng.uniform(2_000.0, 9_000.0), 2)}
                    if updates % 10 == 0:
                        # The paper's type change: a new jobtype swaps the
                        # variant attributes in the same statement.
                        old = live[key]["jobtype"]
                        new = rng.choice([j for j in donors if j != old])
                        for name in VARIANTS_BY_JOBTYPE[old]:
                            changes[name] = REMOVE
                        changes["jobtype"] = new
                        for name in VARIANTS_BY_JOBTYPE[new]:
                            changes[name] = donors[new][name]
                    live[key] = _apply(live[key], changes)
                    ops.append((kind, key, changes))
                elif kind == "delete":
                    key = pick(remove=True)
                    del live[key]
                    ops.append((kind, key))
                else:
                    rejects += 1
                    row = dict(next(stream))
                    if rejects % 3 == 0:      # wrong variant set for the jobtype
                        other = next(j for j in donors if set(VARIANTS_BY_JOBTYPE[j])
                                     != set(VARIANTS_BY_JOBTYPE[row["jobtype"]]))
                        for name in VARIANTS_BY_JOBTYPE[row["jobtype"]]:
                            del row[name]
                        for name in VARIANTS_BY_JOBTYPE[other]:
                            row[name] = donors[other][name]
                    elif rejects % 3 == 1:    # duplicate key, different values
                        row["emp_id"] = pick()
                        row["name"] = "duplicate"
                    else:                     # value outside its domain
                        row["jobtype"] = "astronaut"
                    ops.append((kind, row))
        self.ops = ops[:op_count]

    def inputs(self):
        return [self.preload, self.ops]

    # -- set-up --------------------------------------------------------------------------

    def setup(self):
        self._generate()
        shutil.rmtree(self.directory, ignore_errors=True)
        self.wal = WalCounters()
        self.database = Database(
            durable_path=self.directory, wal_fsync=True, group_commit_window=0.0,
            checkpoint_every_bytes=CHECKPOINT_EVERY_BYTES,
            wal_file_factory=self.wal.factory)
        self.table = create_employees(self.database)
        with self.database.transaction():
            self.table.insert_many(self.preload)
        self.database.analyze()
        self.database.checkpoint()
        self.model = {row["emp_id"]: row for row in self.preload}
        keys = random.Random(self.seed + 2).sample(sorted(self.model), WARM_UP_READS)
        for key in keys:
            self.database.query(POINT_READ.format(key))

    def teardown(self):
        if self.database is not None:
            self.database.close()
            self.database = None
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the timed phase -----------------------------------------------------------------

    def _txn_insert(self, row):
        with self.database.transaction():
            self.table.insert(row)

    def run(self, rec):
        database, table, model = self.database, self.table, self.model
        before = engine_counters(database)
        wal_before = self.wal.snapshot()
        for op in rec.sliced(self.ops, block=len(BLOCK)):
            kind = op[0]
            try:
                if kind == "point_read":
                    result = rec.timed(kind, database.query, POINT_READ.format(op[1]))
                    rec.note_rows(kind, result)
                    row = model[op[1]]
                    rec.check(
                        len(result.tuples) == 1 and next(iter(result.tuples))
                        == {"name": row["name"], "salary": row["salary"]},
                        "point_read {} disagrees with the model".format(op[1]))
                elif kind == "insert":
                    rec.timed(kind, table.insert, op[1])
                    model[op[1]["emp_id"]] = op[1]
                elif kind == "txn_insert":
                    rec.timed(kind, self._txn_insert, op[1])
                    model[op[1]["emp_id"]] = op[1]
                elif kind == "update":
                    rec.timed(kind, lambda: table.update(model[op[1]], **op[2]))
                    model[op[1]] = _apply(model[op[1]], op[2])
                elif kind == "delete":
                    deleted = rec.timed(kind, table.delete, model[op[1]])
                    rec.check(deleted, "delete {} found no tuple".format(op[1]))
                    del model[op[1]]
                else:
                    refused = rec.timed(kind, refusal, table, op[1])
                    rec.check(
                        refused is not None and len(table) == len(model)
                        and (op[1]["emp_id"] in model) == (op[1]["name"] == "duplicate")
                        and (op[1]["emp_id"] not in model
                             or FlexTuple(model[op[1]["emp_id"]]) in table),
                        "reject of {} was not refused cleanly".format(op[1]))
            except Exception as exc:  # an operation that raises has failed
                rec.check(False, "{} raised {!r}".format(kind, exc))
        self.delta = counter_delta(before, engine_counters(database))
        self._wal_counts = self.wal.per_commit(
            wal_before, self.delta.get("wal.commits", 0),
            sum(_op_bytes(op) for op in self.ops if op[0] != "point_read"))

    # -- verification ---------------------------------------------------------------------

    def verify(self, rec):
        """Crash to the fsynced prefix, reopen, compare with the model."""
        expected = {FlexTuple(row) for row in self.model.values()}
        rec.check(set(self.table) == expected, "live table differs from the model")
        crashed = os.path.join(self.workdir, "oltp-crashed")
        shutil.rmtree(crashed, ignore_errors=True)
        crash_copy(self.directory, crashed, self.wal)
        self.snapshot_bytes = os.path.getsize(os.path.join(crashed, "snapshot.json"))
        recovered = Database(durable_path=crashed)
        try:
            rec.check(set(recovered.table("employees")) == expected,
                      "recovered table differs from the acknowledged writes")
            problems = verify_database(recovered)
            rec.check(not problems, "verify_database: {}".format(problems[:3]))
        finally:
            recovered.close()
            shutil.rmtree(crashed, ignore_errors=True)

    # -- per-layer counters ----------------------------------------------------------------

    def layer_counters(self, rec, summary):
        live_bytes = sum(user_bytes(row) for row in self.model.values())
        sample = generate_employees(min(1_000, len(self.preload)), seed=self.seed + 3)
        return dict(self._wal_counts, **{
            "storage.auto_checkpoints": self.delta.get("checkpoint.count", 0),
            "storage.snapshot_bytes_per_user_byte":
                self.snapshot_bytes / live_bytes if live_bytes else 0,
            "model.attribute_sets_per_row": attribute_sets_per_row(sample),
        })


def _apply(row, changes):
    merged = dict(row)
    for name, value in changes.items():
        if value is REMOVE:
            merged.pop(name, None)
        else:
            merged[name] = value
    return merged


def _op_bytes(op):
    """Compact-JSON size of what the caller handed over in one write."""
    if op[0] in ("insert", "txn_insert", "reject"):
        return user_bytes(op[1])
    if op[0] == "update":
        return user_bytes(dict(op[2], emp_id=op[1]))
    return user_bytes({"emp_id": op[1]})
