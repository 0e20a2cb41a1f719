"""``analytic_scan`` — read-only scans, aggregates, top-k and sort over ``orders``.

``exec`` operators and the ``model.batches`` row→column pivot do nearly all
the work here and ``query``/``optimizer``/``storage`` almost none: every plan
is a cache hit and the queries are long — the reverse of ``oltp_durable``.
``agg_spill`` runs ``agg_high`` under a quarter of its measured peak memory,
the one class larger than the engine's own memory budget; the rest fit.
"""

import os
import random
import statistics

from repro.algebra import Aggregate, Limit, RelationRef, Sort
from repro.engine import Database
from repro.workloads.analytics import generate_orders

from data import create_orders
from harness import Workload, counter_delta, engine_counters

ORDER_ROWS = 6_000
CYCLES_PER_SECOND = 4.2
WARM_UP_RUNS = 3
WINDOW_CYCLES = 6
SPECS = ("count", ("count", "amount"), ("sum", "amount"), ("min", "amount"),
         ("max", "amount"), ("avg", "amount"))
ORDER_KEYS = ("-amount", "order_id")
ORDERS = RelationRef("orders")
#: class -> what ``Database`` is asked (text goes through ``query``, algebra
#: through ``execute``)
QUERIES = {
    "scan": "SELECT order_id, region, amount FROM orders",
    "filter_value": "SELECT order_id, amount FROM orders WHERE region = 'r3'",
    # store_id is defined on one shape only
    "filter_variant": "SELECT order_id, amount FROM orders WHERE store_id = 17",
    # the paper's type guard
    "guard": "SELECT order_id, coupon FROM orders GUARD coupon",
    "agg_low": Aggregate(ORDERS, group_by=("region",), specs=SPECS),
    # grouping by a variant attribute: the ⊥ group is one of the results
    "agg_high": Aggregate(ORDERS, group_by=("coupon",), specs=SPECS),
    "topk": Limit(Sort(ORDERS, ORDER_KEYS), 10),
    "sort": Sort(ORDERS, ORDER_KEYS),
}
#: class groups behind the four slots (time per cycle spent in the group)
GROUPS = {
    "scan_group": ("scan", "filter_value", "filter_variant", "guard"),
    "agg_group": ("agg_low", "agg_high"),
    "topk": ("topk",),
    "sort": ("sort",),
}


class AnalyticScan(Workload):
    name = "analytic_scan"
    SLOTS = ("scan_group", "agg_group", "topk", "sort")
    ROLES = {
        "call": tuple(QUERIES) + ("agg_spill",),
        "miss": (),
        "lookup": ("filter_variant",),
        "write": (),
        "txn": (),
    }

    def _generate(self):
        self.order_rows = list(generate_orders(self.rows(ORDER_ROWS), seed=self.seed))
        # Every cycle runs every class once, in an order shuffled per cycle:
        # in a fixed order the collector's periodic full collections land in
        # the same class cycle after cycle and its median becomes bimodal.
        rng = random.Random(self.seed)
        self.cycles = []
        for _ in range(self.sized(CYCLES_PER_SECOND, minimum=2)):
            order = list(QUERIES) + ["agg_spill"]
            rng.shuffle(order)
            self.cycles.append(order)

    def inputs(self):
        return [self.order_rows, self.cycles,
                {name: repr(query) for name, query in QUERIES.items()}]

    def _ask(self, name, **governance):
        query = QUERIES[name]
        if isinstance(query, str):
            return self.database.query(query, **governance)
        return self.database.execute(query, **governance)

    def _spill(self):
        return self._ask("agg_high", memory_budget=self.spill_budget, spill=True)

    def setup(self):
        self._generate()
        self.database = Database(spill_directory=self.workdir)
        self.table = create_orders(self.database)
        self.table.insert_many(self.order_rows)
        self.database.analyze()
        for _ in range(WARM_UP_RUNS):
            for name in QUERIES:
                self._ask(name)
        peak = engine_counters(self.database).get(
            "memory.batch-hash-aggregate.max", 0)
        self.spill_budget = max(256, int(peak) // 4)
        for _ in range(WARM_UP_RUNS):
            self._spill()

    def run(self, rec):
        self.first = {}
        before = engine_counters(self.database)
        for order in rec.sliced(self.cycles):
            for name in order:
                if name == "agg_spill":
                    self._timed(rec, name, self._spill)
                else:
                    self._timed(rec, name, self._ask, name)
        self.delta = counter_delta(before, engine_counters(self.database))

    def _timed(self, rec, name, function, *args):
        rec.mark(bursts=3)
        result = rec.attempt(name, function, *args, units=len(self.order_rows))
        if result is not None:
            rec.note_rows(name, result)
            self.first.setdefault(name, result.tuples)

    def verify(self, rec):
        """The first answer of every class against the naive evaluator."""
        for name, tuples in self.first.items():
            reference = self._ask("agg_high" if name == "agg_spill" else name,
                                  executor="naive")
            rec.check(tuples == reference.tuples,
                      "{}: physical and naive answers differ".format(name))
        leftovers = [entry for entry in os.listdir(self.workdir)
                     if entry.startswith("repro-spill-")]
        rec.check(not leftovers, "spill debris left behind: {}".format(leftovers))

    @staticmethod
    def _cycle_ns(rec, classes):
        """Per cycle, the time spent in ``classes`` (each runs once a cycle)."""
        return [sum(cycle) for cycle in zip(*(rec.normal[name] for name in classes))]

    def slot_us(self, rec, operation_class):
        """The time one cycle spends in the group: the median over windows of
        ``WINDOW_CYCLES`` cycles of the window's mean.  Not the plain median
        over cycles: a full collection of the heap falls into every second or
        third ``scan`` and doubles it, and the median of a two-humped
        distribution jumps from one hump to the other between runs."""
        cycles = self._cycle_ns(rec, GROUPS[operation_class])
        windows = [cycles[start:start + WINDOW_CYCLES]
                   for start in range(0, len(cycles), WINDOW_CYCLES)]
        return statistics.median(statistics.mean(window) for window in windows) / 1e3

    def ops_per_s(self, rec):
        """Queries per second, as the median over the cycles."""
        classes = list(rec.normal)
        return statistics.median(
            len(classes) / nanoseconds * 1e9
            for nanoseconds in self._cycle_ns(rec, classes))

    def layer_counters(self, rec, summary):
        return {
            "governor.spilled_bytes": self.delta.get("spill.bytes", 0),
            "governor.peak_tracked_bytes":
                self.delta.get("memory.batch-hash-aggregate.max", 0),
            "governor.spill_budget_bytes": self.spill_budget,
        }
