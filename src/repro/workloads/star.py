"""Skewed star and chain join workloads for the join-order experiments (E13).

The star schema is deliberately hostile to join ordering by input size alone:

* ``fact`` (5000 rows by default) references five dimensions through foreign
  keys ``ds``/``dr``/``da``/``db``/``dc``;
* four dimensions (``dim_small`` 20 rows, ``dim_a`` 30, ``dim_b`` 40,
  ``dim_c`` 50) are tiny but **non-reductive** — every fact row keeps exactly
  one partner, so joining them early leaves the intermediate at fact size;
* ``dim_rare`` is the *largest* dimension (1000 rows) but the query selects
  ``kind = 'rare'`` (a 5% tag whose rows carry the ``audit_level`` variant
  attribute), and ``dr`` has 1000 distinct values — its join is the one that
  actually shrinks the fact side (to ~5%).

A smallest-input-first order therefore drags ~5000 intermediate rows through
four joins before the selective one runs; a cost-based search joins
``fact ⋈ σ(dim_rare)`` first and pays ~5% of that.  The chain schema
(``stage1``–``stage5`` linked pairwise, selective filters at *both* ends)
additionally rewards **bushy** trees: the two selective ends can be reduced
independently before meeting in the middle.

Both builders return loaded :class:`~repro.engine.Database` objects (callers
run ``analyze()`` themselves — comparing planning with and without statistics
is part of the experiments); the ``*_query`` helpers build the matching
left-deep n-way :class:`~repro.algebra.expressions.NaturalJoin` trees in
written orders a naive query author would produce.
"""

from __future__ import annotations

from repro.algebra.expressions import NaturalJoin, RelationRef, Selection
from repro.algebra.predicates import Comparison
from repro.engine.database import REMOVE, Database
from repro.model.domains import IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme

#: default star cardinalities: tiny non-reductive dimensions, one large
#: selective one
DEFAULT_FACT_ROWS = 5000
DEFAULT_DIMENSIONS = (("dim_small", "ds", 20), ("dim_a", "da", 30),
                      ("dim_b", "db", 40), ("dim_c", "dc", 50))
DEFAULT_RARE_ROWS = 1000
DEFAULT_RARE_EVERY = 20  # kind='rare' on every 20th dim_rare row: a 5% tag

#: default chain cardinalities (stage1 — … — stage5, filters on both ends)
DEFAULT_CHAIN_ROWS = (400, 600, 2000, 600, 400)


def star_join_database(fact_rows: int = DEFAULT_FACT_ROWS,
                       rare_rows: int = DEFAULT_RARE_ROWS,
                       rare_every: int = DEFAULT_RARE_EVERY) -> Database:
    """A loaded star-schema database: ``fact`` plus five keyed dimensions."""
    database = Database()
    fact_attributes = ["fact_id", "ds", "dr", "da", "db", "dc"]
    fact = database.create_table(
        "fact", FlexibleScheme.relational(fact_attributes),
        domains={name: IntDomain() for name in fact_attributes},
        key=["fact_id"],
    )
    fact.insert_many(
        {"fact_id": i, "ds": i % 20 + 1, "dr": i % rare_rows + 1,
         "da": i % 30 + 1, "db": i % 40 + 1, "dc": i % 50 + 1}
        for i in range(1, fact_rows + 1)
    )
    for name, fk, rows in DEFAULT_DIMENSIONS:
        value = "{}_name".format(name)
        table = database.create_table(
            name, FlexibleScheme.relational([fk, value]),
            domains={fk: IntDomain(), value: StringDomain(max_length=24)},
            key=[fk],
        )
        table.insert_many({fk: i, value: "{}-{}".format(name, i)}
                          for i in range(1, rows + 1))
    # The big dimension: a 5% 'rare' tag whose rows carry a variant attribute.
    rare = database.create_table(
        "dim_rare",
        FlexibleScheme(2, 3, ["dr", "kind", FlexibleScheme(0, 1, ["audit_level"])]),
        domains={"dr": IntDomain(), "kind": StringDomain(max_length=16),
                 "audit_level": IntDomain()},
        key=["dr"],
    )
    rare.insert_many(
        ({"dr": i, "kind": "rare", "audit_level": i % 3}
         if i % rare_every == 0 else {"dr": i, "kind": "common"})
        for i in range(1, rare_rows + 1)
    )
    return database


def aged_star_database(fact_rows: int = DEFAULT_FACT_ROWS) -> Database:
    """The star ANALYZEd while every ``dim_rare`` row was ``'rare'``, then aged:
    the paper's type change turns all but 5% of them ``'common'`` (dropping
    ``audit_level``) and as many new ``'common'`` rows arrive.  The aged
    most-common value still prices ``σ(kind = 'rare')`` at every row, so
    ``fact ⋈ σ(dim_rare)`` looks expanding and is planned last — a real
    mis-estimate, for cardinality feedback to correct."""
    database = star_join_database(fact_rows, rare_every=1)
    database.analyze()
    rare = database.table("dim_rare")
    rows = len(rare)
    for tup in list(rare)[rows // 20:]:
        rare.update(tup, kind="common", audit_level=REMOVE)
    rare.insert_many({"dr": rows + i, "kind": "common"} for i in range(1, rows + 1))
    return database


def star_join_query() -> NaturalJoin:
    """The 6-way star join, written smallest-dimension-first (the naive order)."""
    tree = NaturalJoin(RelationRef("dim_small"), RelationRef("fact"), on=["ds"])
    tree = NaturalJoin(tree, RelationRef("dim_a"), on=["da"])
    tree = NaturalJoin(tree, RelationRef("dim_b"), on=["db"])
    tree = NaturalJoin(tree, RelationRef("dim_c"), on=["dc"])
    selective = Selection(RelationRef("dim_rare"), Comparison("kind", "=", "rare"))
    return NaturalJoin(tree, selective, on=["dr"])


def chain_join_database(rows=DEFAULT_CHAIN_ROWS) -> Database:
    """A loaded chain: ``stage_k(link_k, link_{k+1}, weight_k)``, linked pairwise.

    ``link_k`` is stage ``k``'s unique key; stage ``k`` references stage
    ``k+1`` through a seeded-random ``link_{k+1}`` drawn from
    ``1..|stage_{k+1}|``, so adjacent stages share exactly one attribute and
    non-adjacent stages share none.  ``weight_k = i mod 10`` gives every stage
    a 10% filter; the random links keep it uncorrelated with the keys.
    """
    import random

    database = Database()
    for stage, count in enumerate(rows, start=1):
        key, weight = "link{}".format(stage), "weight{}".format(stage)
        attributes = [key, weight]
        if stage < len(rows):
            attributes.insert(1, "link{}".format(stage + 1))
        table = database.create_table(
            "stage{}".format(stage), FlexibleScheme.relational(attributes),
            domains={name: IntDomain() for name in attributes},
            key=[key],
        )
        rng = random.Random(0xE13 + stage)

        def row(i, stage=stage, key=key, weight=weight):
            tup = {key: i, weight: i % 10}
            if stage < len(rows):
                tup["link{}".format(stage + 1)] = rng.randrange(rows[stage]) + 1
            return tup

        table.insert_many(row(i) for i in range(1, count + 1))
    return database


def chain_join_query() -> NaturalJoin:
    """The 5-way chain join with selective filters on both end stages."""
    tree = Selection(RelationRef("stage1"), Comparison("weight1", "=", 0))
    for stage in range(2, 6):
        right: object = RelationRef("stage{}".format(stage))
        if stage == 5:
            right = Selection(right, Comparison("weight5", "=", 0))
        tree = NaturalJoin(tree, right, on=["link{}".format(stage)])
    return tree
