"""``bulk_ingest`` — the write path in bulk, then ANALYZE, checkpoint, recovery.

Phase A loads ``employees`` and ``orders`` in memory with ``insert_many`` in
chunks (2% invalid rows issued singly, which must be refused); phase B runs
``ANALYZE`` several times; phase C loads a durable ``employees`` one
transaction per chunk, checkpoints explicitly several times, logs a tail after
the last checkpoint, closes and reopens several times (snapshot load +
WAL-tail replay + ``verify_database``).

The same ``engine``/``model`` layers as ``oltp_durable`` used differently —
batches instead of single rows, in memory instead of journaled, no reads and
almost no fsync — plus the otherwise unmeasured ANALYZE, checkpoint and
recovery.
"""

import os
import random
import shutil
from itertools import zip_longest

from repro.engine import Database
from repro.model.tuples import FlexTuple
from repro.workloads.analytics import generate_orders
from repro.workloads.employees import generate_employees

from data import (
    attribute_sets_per_row,
    create_employees,
    create_orders,
    refusal,
    user_bytes,
)
from harness import Workload, counter_delta, engine_counters, fence
from walfile import WalCounters

#: rows per second of ``--seconds``, sized so the timed phases fill the run
EMPLOYEE_ROWS_PER_SECOND = 1_400
ORDER_ROWS_PER_SECOND = 1_400
DURABLE_ROWS_PER_SECOND = 150
TAIL_ROWS_PER_SECOND = 40
CHUNK_ROWS = 500
INVALID_SHARE = 0.02
#: many short repetitions rather than few long ones: a calibration burst
#: brackets each, and the host's speed shifts within seconds
ANALYZE_RUNS = 9
CHECKPOINTS = 9
REOPENS = 9


class BulkIngest(Workload):
    name = "bulk_ingest"
    SLOTS = ("load_employees", "analyze", "checkpoint", "reopen")
    ROLES = {
        "call": (),
        "miss": (),
        "lookup": (),
        "write": ("load_employees", "load_orders", "durable_chunk", "reject"),
        "txn": ("durable_chunk",),
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.durable = None
        self.directory = os.path.join(self.workdir, "bulk")

    # -- inputs ------------------------------------------------------------------------

    def _chunks(self, rows):
        size = min(CHUNK_ROWS, max(10, len(rows) // 4))
        return [rows[start:start + size] for start in range(0, len(rows), size)]

    def _generate(self):
        rng = random.Random(self.seed)
        employees = generate_employees(
            self.sized(EMPLOYEE_ROWS_PER_SECOND, minimum=40), seed=self.seed)
        orders = list(generate_orders(
            self.sized(ORDER_ROWS_PER_SECOND, minimum=40), seed=self.seed))
        # Invalid rows: employees with the variant set of another jobtype,
        # orders whose store_id lies outside its integer domain.
        bad_employees = generate_employees(
            max(1, int(len(employees) * INVALID_SHARE)), invalid_fraction=1.0,
            seed=self.seed + 1, start_id=10_000_000)
        bad_orders = [
            {"order_id": 10_000_000 + i, "region": "r0", "channel": "store",
             "amount": 1, "store_id": "s{}".format(rng.randrange(200))}
            for i in range(max(1, int(len(orders) * INVALID_SHARE)))]
        plans = []
        for name, rows, bad in (("employees", employees, bad_employees),
                                ("orders", orders, bad_orders)):
            chunks = self._chunks(rows)
            plans.append([
                (name, chunk, bad[position * len(bad) // len(chunks):
                                  (position + 1) * len(bad) // len(chunks)])
                for position, chunk in enumerate(chunks)])
        # (table name, chunk of valid rows, invalid rows after it), the two
        # tables alternating so any slice of the plan has the same mix
        self.load_plan = [step for pair in zip_longest(*plans)
                          for step in pair if step is not None]
        durable_count = self.sized(DURABLE_ROWS_PER_SECOND, minimum=30)
        tail_count = self.sized(TAIL_ROWS_PER_SECOND, minimum=10)
        durable_rows = generate_employees(
            durable_count + tail_count, seed=self.seed + 2)
        self.durable_chunks = self._chunks(durable_rows[:durable_count])
        self.tail_chunks = self._chunks(durable_rows[durable_count:])

    def inputs(self):
        return [self.load_plan, self.durable_chunks, self.tail_chunks]

    # -- set-up --------------------------------------------------------------------------

    def setup(self):
        self._generate()
        self.memory = Database()
        self.memory_tables = {"employees": create_employees(self.memory),
                              "orders": create_orders(self.memory)}
        shutil.rmtree(self.directory, ignore_errors=True)
        self.wal = WalCounters()
        self.durable = self._open()
        self.durable_table = create_employees(self.durable)

    def _open(self):
        return Database(durable_path=self.directory, wal_fsync=True,
                        group_commit_window=0.0, wal_file_factory=self.wal.factory)

    def teardown(self):
        if self.durable is not None:
            self.durable.close()
            self.durable = None
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the timed phases ------------------------------------------------------------------

    def _durable_chunk(self, chunk):
        with self.durable.transaction():
            self.durable_table.insert_many(chunk)

    def run(self, rec):
        # Phase A: in-memory load.
        self.accepted = {"employees": 0, "orders": 0}
        self.rejected = 0
        # One calibration block = one employees step and one orders step.
        for name, chunk, invalid in rec.sliced(self.load_plan, block=2):
            table = self.memory_tables[name]
            if rec.attempt("load_" + name, table.insert_many, chunk,
                           units=len(chunk)) is not None:
                self.accepted[name] += len(chunk)
            for row in invalid:
                refused = rec.timed("reject", refusal, table, row, units=0)
                self.rejected += rec.check(
                    refused is not None and len(table) == self.accepted[name],
                    "invalid row {} was not refused cleanly".format(row))
        rec.start_tracing()

        # Phase B: ANALYZE over both loaded tables.
        fence()
        loaded = sum(self.accepted.values())
        for _ in range(ANALYZE_RUNS):
            rec.mark(bursts=3)
            rec.timed("analyze", self.memory.analyze, units=loaded)

        # Phase C: durable load, explicit checkpoints, a logged tail, reopens.
        fence()
        before = engine_counters(self.durable)
        wal_before = self.wal.snapshot()
        self.user_bytes = self.snapshot_user_bytes = 0
        for position, chunk in enumerate(self.durable_chunks + self.tail_chunks, 1):
            rec.mark(bursts=3)
            rec.attempt("durable_chunk", self._durable_chunk, chunk, units=len(chunk))
            self.user_bytes += sum(user_bytes(row) for row in chunk)
            if position == len(self.durable_chunks):
                # All at one table size, so the samples are alike; the tail
                # chunks that follow stay in the log for recovery to replay.
                for _ in range(CHECKPOINTS):
                    rec.mark(bursts=3)
                    rec.timed("checkpoint", self.durable.checkpoint,
                              units=len(self.durable_table))
                self.snapshot_user_bytes = self.user_bytes
        self.delta = counter_delta(before, engine_counters(self.durable))
        self._wal_counts = self.wal.per_commit(
            wal_before, self.delta.get("wal.commits", 0), self.user_bytes)
        self.snapshot_bytes = os.path.getsize(
            os.path.join(self.directory, "snapshot.json"))
        self.loaded_state = set(self.durable_table)
        self.durable.close()
        fence()
        for _ in range(REOPENS):
            rec.mark(bursts=3)
            self.durable = rec.timed("reopen", self._open,
                                     units=len(self.loaded_state))
            self.recovery = self.durable.durability.recovery_report.as_dict()
            self.durable_table = self.durable.table("employees")
            self.durable.close()

    # -- verification ---------------------------------------------------------------------

    def verify(self, rec):
        expected = {name: sum(len(chunk) for table, chunk, _ in self.load_plan
                              if table == name) for name in self.accepted}
        invalid = sum(len(rows) for _, _, rows in self.load_plan)
        rec.check(self.accepted == expected
                  and {name: len(table) for name, table
                       in self.memory_tables.items()} == expected,
                  "accepted {} but the generator made {}".format(self.accepted, expected))
        rec.check(self.rejected == invalid,
                  "refused {} of {} invalid rows".format(self.rejected, invalid))
        wanted = {FlexTuple(row) for chunk in self.durable_chunks + self.tail_chunks
                  for row in chunk}
        rec.check(self.loaded_state == wanted, "durable load differs from its input")
        rec.check(set(self.durable_table) == self.loaded_state,
                  "recovered state differs from the loaded state")
        rec.check(self.recovery["checkpoint_loaded"]
                  and self.recovery["torn_reason"] is None,
                  "recovery report: {}".format(self.recovery))

    # -- reporting --------------------------------------------------------------------------

    def ops_per_s(self, rec):
        """Phase A rows ÷ time in ``insert_many``/``insert`` (the issue's
        ``load_rows_per_s``), as the median over the plan's steps."""
        return rec.block_rate(("load_employees", "load_orders", "reject"),
                              per_unit=True)

    def slot_us(self, rec, operation_class):
        """µs per row, not per operation: the operations handle many rows."""
        return rec.p50_us_per_unit(operation_class)

    def layer_counters(self, rec, summary):
        sample = [row for chunk in self.durable_chunks for row in chunk][:1_000]
        return dict(self._wal_counts, **{
            "storage.snapshot_bytes_per_user_byte":
                self.snapshot_bytes / self.snapshot_user_bytes
                if self.snapshot_user_bytes else 0,
            "storage.recovery_replay_us_per_record":
                summary.total(("storage.recovery_replay",))[1] / 1e3
                / max(1, REOPENS * self.recovery["records_read"]),
            "model.attribute_sets_per_row": attribute_sets_per_row(sample),
        })
