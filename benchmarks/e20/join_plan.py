"""``join_plan`` — planning against execution on the E13 star and chain.

``cold_query`` is almost all planning (a 6-way star over one fact row whose
literal never repeats: rewrite, fingerprint, DP join-order search, lowering,
then a tiny execution); ``warm_query`` is the same shape from a 32-value hot
set, the plan-cache-hit latency; ``star`` and ``chain`` are hash-join
execution under cached plans; ``star_text`` puts its WHERE above the joins, so
it scans everything for one row.  ``exec`` works on joins here where
``analytic_scan`` uses it for scans, and ``storage`` does nothing.

Three star databases with the same contents.  The feedback version is part
of the plan cache's key; every query with a new literal leaves cardinality
feedback behind, and two queries that observe different selectivities on the
same join edge overwrite each other's observation for ever.  Either strands
every cached plan of the database.  So ``star`` has a database of its own and
``warm_query`` one that sees only the hot set, whose literals all select one
row: their feedback settles during warm-up and every plan is a hit.
``cold_query`` and ``star_text`` run on a third that churns — and
``stranded_query`` sends a hot-set literal to that one, where it misses every
time.
"""

import random
import statistics

from repro.algebra import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.model.tuples import FlexTuple
from repro.workloads.star import (
    DEFAULT_DIMENSIONS,
    DEFAULT_FACT_ROWS,
    DEFAULT_RARE_EVERY,
    DEFAULT_RARE_ROWS,
    chain_join_database,
    chain_join_query,
    star_join_database,
    star_join_query,
)

from harness import Workload, counter_delta, engine_counters

CYCLES_PER_SECOND = 25
COLD_PER_CYCLE = 4
WARM_PER_CYCLE = 4
STAR_TEXT_EVERY = 4
#: far fewer than the plan cache's 128 entries, so these always hit
HOT_KEYS = 32
WARM_UP_RUNS = 3
STAR_TEXT = ("SELECT fact_id, dim_a_name, kind FROM fact JOIN dim_a ON (da) "
             "JOIN dim_rare ON (dr) WHERE fact_id = {}")


def keyed_star(key):
    """The 6-way star of ``star_join_query`` restricted to one fact row."""
    fact = Selection(RelationRef("fact"), Comparison("fact_id", "=", key))
    tree = NaturalJoin(RelationRef("dim_small"), fact, on=["ds"])
    for name, attribute in (("dim_a", "da"), ("dim_b", "db"), ("dim_c", "dc")):
        tree = NaturalJoin(tree, RelationRef(name), on=[attribute])
    rare = Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare"))
    return NaturalJoin(tree, rare, on=["dr"])


def keyed_star_rows(key):
    """How many rows ``keyed_star(key)`` has: the fact row survives exactly
    when its ``dr`` partner carries the rare tag."""
    return int((key % DEFAULT_RARE_ROWS + 1) % DEFAULT_RARE_EVERY == 0)


def star_row(key):
    """The harness's own model of the star: fact row ``key`` joined with all
    five dimensions, from the formulas ``star_join_database`` fills them by.
    (The naive evaluator needs 5 s for the star and 23 s for ``star_text``.)"""
    row = {"fact_id": key, "dr": key % DEFAULT_RARE_ROWS + 1}
    for name, attribute, size in DEFAULT_DIMENSIONS:
        row[attribute] = key % size + 1
        row[name + "_name"] = "{}-{}".format(name, row[attribute])
    if keyed_star_rows(key):
        row.update(kind="rare", audit_level=row["dr"] % 3)
    else:
        row["kind"] = "common"
    return row


class JoinPlan(Workload):
    name = "join_plan"
    SLOTS = ("star", "cold_query", "warm_query", "chain")
    ROLES = {
        "call": ("warm_query", "cold_query", "stranded_query"),
        "miss": ("cold_query",),
        "lookup": ("star_text",),
        "write": (),
        "txn": (),
    }

    def _generate(self):
        rng = random.Random(self.seed)
        self.cycles = self.sized(CYCLES_PER_SECOND, minimum=STAR_TEXT_EVERY)
        keys = list(range(1, DEFAULT_FACT_ROWS + 1))
        rng.shuffle(keys)
        self.hot_keys = [key for key in keys if keyed_star_rows(key)][:HOT_KEYS]
        hot = set(self.hot_keys)
        cold = [key for key in keys if key not in hot]
        self.plan = []  # per cycle: its (class, key) operations
        for cycle in range(self.cycles):
            operations = [("star", None), ("chain", None),
                          ("stranded_query", rng.choice(self.hot_keys))]
            # Cold keys never repeat within a window far wider than the plan cache.
            operations += [("cold_query", cold[(cycle * COLD_PER_CYCLE + i) % len(cold)])
                           for i in range(COLD_PER_CYCLE)]
            operations += [("warm_query", rng.choice(self.hot_keys))
                           for _ in range(WARM_PER_CYCLE)]
            if cycle % STAR_TEXT_EVERY == 0:
                operations.append(("star_text", rng.randrange(1, DEFAULT_FACT_ROWS + 1)))
            # Shuffled, or the collector's periodic full collections land in
            # the same class cycle after cycle.
            rng.shuffle(operations)
            self.plan.append(operations)

    def inputs(self):
        return [self.hot_keys, self.plan]

    def setup(self):
        self._generate()
        self.star = star_join_database()
        self.hot = star_join_database()
        self.churning = star_join_database()
        self.chain = chain_join_database()
        for database in (self.star, self.hot, self.churning, self.chain):
            database.analyze()
        self.star_query = star_join_query()
        self.chain_query = chain_join_query()
        for _ in range(WARM_UP_RUNS):
            self.star.execute(self.star_query)
            self.chain.execute(self.chain_query)
            self.churning.query(STAR_TEXT.format(1))
            self.churning.execute(keyed_star(self.hot_keys[0]))
            for key in self.hot_keys:
                self.hot.execute(keyed_star(key))

    def run(self, rec):
        self.first = {}
        star, hot, churning, chain = self.star, self.hot, self.churning, self.chain
        databases = (star, hot, churning, chain)
        before = [engine_counters(database) for database in databases]
        keyed_on = {"cold_query": churning, "warm_query": hot,
                    "stranded_query": churning}
        for operations in rec.sliced(self.plan):
            for name, key in operations:
                if name == "star":
                    self._timed(rec, name, star, star.execute, self.star_query)
                elif name == "chain":
                    self._timed(rec, name, chain, chain.execute, self.chain_query)
                elif name == "star_text":
                    result = self._timed(rec, name, churning, churning.query,
                                         STAR_TEXT.format(key))
                    row = star_row(key)
                    rec.check(result is not None and result.tuples == {FlexTuple(
                        {column: row[column]
                         for column in ("fact_id", "dim_a_name", "kind")})},
                        "star_text {}: wrong answer".format(key))
                else:
                    database = keyed_on[name]
                    result = self._timed(rec, name, database, database.execute,
                                         keyed_star(key))
                    rec.check(result is not None
                              and len(result.tuples) == keyed_star_rows(key),
                              "{} {}: wrong row count".format(name, key))
        # The counters of all four databases together.
        self.delta = {}
        for earlier, database in zip(before, databases):
            for name, value in counter_delta(
                    earlier, engine_counters(database)).items():
                self.delta[name] = self.delta.get(name, 0) + value

    def _timed(self, rec, name, database, function, query):
        result = rec.attempt(name, function, query)
        if result is not None:
            rec.note_rows(name, result)
            self.first.setdefault(name, (database, query, result.tuples))
        return result

    def ops_per_s(self, rec):
        """Queries per second, as the median over groups of
        ``STAR_TEXT_EVERY`` cycles (the smallest unit with the full mix)."""
        per_group = {"star": STAR_TEXT_EVERY, "chain": STAR_TEXT_EVERY,
                     "cold_query": STAR_TEXT_EVERY * COLD_PER_CYCLE,
                     "warm_query": STAR_TEXT_EVERY * WARM_PER_CYCLE,
                     "stranded_query": STAR_TEXT_EVERY, "star_text": 1}
        rates = []
        for group in range(self.cycles // STAR_TEXT_EVERY):
            nanoseconds = sum(
                sum(rec.normal[name][group * count:(group + 1) * count])
                for name, count in per_group.items())
            rates.append(sum(per_group.values()) / nanoseconds * 1e9)
        return statistics.median(rates)

    def verify(self, rec):
        """The first answer of every class against the naive evaluator — but
        the whole star against the harness's model (``star_text`` was checked
        against it after every execution)."""
        for name, (database, query, tuples) in self.first.items():
            if name == "star":
                reference = {FlexTuple(star_row(key))
                             for key in range(1, DEFAULT_FACT_ROWS + 1)
                             if keyed_star_rows(key)}
            elif name == "star_text":
                continue
            else:
                reference = database.execute(query, executor="naive").tuples
            rec.check(tuples == reference,
                      "{}: the engine's answer differs from the reference".format(name))
