"""The skewed orders workload driving the aggregation experiments (E18).

A single ``orders`` relation shaped for GROUP BY / top-k stress:

* ``region`` is **Zipf-skewed** — region ``r0`` absorbs roughly half the rows,
  each further region half of the remainder — so a hash aggregate sees a few
  huge groups next to a long tail of tiny ones;
* ``channel`` determines the variant attributes (the paper's AD shape):
  ``'online'`` orders carry ``coupon``, ``'store'`` orders carry ``store_id``,
  and every ``rare_every``-th order is a ``'phone'`` order carrying *neither*
  — grouping by a variant attribute therefore exercises the ⊥-group routing;
* ``amount`` mixes integers, floats and explicit NULLs (and is entirely absent
  on phone orders), covering every row of the pinned aggregate matrix.

The generator is deliberately cheap per row (no rejection sampling) so the
100k-row benchmark table loads in well under a second.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Optional

from repro.engine.database import Database
from repro.model.domains import IntDomain, StringDomain
from repro.model.scheme import FlexibleScheme

#: default benchmark cardinality (E18 runs the full 100k)
DEFAULT_ORDER_COUNT = 100_000

#: number of Zipf-skewed regions (r0 ≈ half the rows, r1 ≈ a quarter, …)
DEFAULT_REGIONS = 8

#: every n-th order is a 'phone' order with no variant attributes and no amount
DEFAULT_RARE_EVERY = 97

#: fraction of non-phone orders whose amount is an explicit NULL
NULL_AMOUNT_FRACTION = 0.05


def orders_scheme() -> FlexibleScheme:
    """``order_id``/``region``/``channel`` unconditioned; variants and amount optional."""
    return FlexibleScheme(
        3,
        4,
        ["order_id", "region", "channel",
         FlexibleScheme(0, 3, ["amount", "coupon", "store_id"])],
    )


def orders_domains() -> Dict[str, object]:
    # ``amount`` carries no domain on purpose: the workload mixes integers,
    # floats and explicit NULLs (every row of the pinned aggregate matrix),
    # and domains have no NULL notion.
    return {
        "order_id": IntDomain(),
        "region": StringDomain(max_length=8),
        "channel": StringDomain(max_length=8),
        "coupon": StringDomain(max_length=12),
        "store_id": IntDomain(),
    }


def _skewed_region(rng: random.Random, regions: int) -> str:
    """Zipf-ish pick: region ``r_i`` with probability ``2^-(i+1)`` (tail → r0)."""
    draw = rng.random()
    threshold = 0.5
    for index in range(regions - 1):
        if draw < threshold:
            return "r{}".format(index)
        draw -= threshold
        threshold /= 2.0
    return "r{}".format(regions - 1)


def generate_orders(
    count: int = DEFAULT_ORDER_COUNT,
    regions: int = DEFAULT_REGIONS,
    rare_every: int = DEFAULT_RARE_EVERY,
    seed: int = 0,
) -> Iterator[Dict[str, object]]:
    """Skewed order rows; a generator so 100k rows never sit in a second list."""
    rng = random.Random(seed)
    for order_id in range(1, count + 1):
        row: Dict[str, object] = {
            "order_id": order_id,
            "region": _skewed_region(rng, regions),
        }
        if order_id % rare_every == 0:
            row["channel"] = "phone"  # neither variant attribute, no amount
            yield row
            continue
        amount: Optional[object]
        if rng.random() < NULL_AMOUNT_FRACTION:
            amount = None
        elif order_id % 2:
            amount = rng.randrange(1, 500)
        else:
            amount = round(rng.uniform(1.0, 500.0), 2)
        row["amount"] = amount
        if rng.random() < 0.5:
            row["channel"] = "online"
            row["coupon"] = "c{}".format(rng.randrange(50))
        else:
            row["channel"] = "store"
            row["store_id"] = rng.randrange(200)
        yield row


def analytics_database(
    count: int = DEFAULT_ORDER_COUNT,
    regions: int = DEFAULT_REGIONS,
    rare_every: int = DEFAULT_RARE_EVERY,
    seed: int = 0,
    analyze: bool = True,
) -> Database:
    """A loaded (and by default ANALYZEd) database with the orders workload."""
    database = Database()
    orders = database.create_table(
        "orders",
        orders_scheme(),
        domains=orders_domains(),
        key=["order_id"],
    )
    orders.insert_many(generate_orders(count, regions=regions,
                                       rare_every=rare_every, seed=seed))
    if analyze:
        database.analyze()
    return database
