"""Differential fuzz-parity harness: random trees, two engines, one answer.

A seeded generator grows random algebra trees over small workload tables using
**every** operator the engine knows — the classic relational core *and* the
analytic additions (``Aggregate``, ``Sort``, ``Limit``, scalar
``SubqueryExtension``).  Each tree is executed through the naive set evaluator
and the physical engine via :func:`test_exec_parity.assert_parity`, which
asserts identical result sets.  Error outcomes must agree on *rejection*
(both engines raise) but not on the class: a random tree can carry several
faulty operators at once, and which fault surfaces first depends on pull
order — implementation-defined across engines.  The curated corpus in
``test_exec_parity.py`` still pins exact error classes for single-fault trees.
Each tree is also rewritten by the AD planner against a database declaring
the jobtype EAD, and the naive evaluator must give the rewritten tree the same
outcome: the rewrites are only as sound as the facts the nodes report.  That
database declares keys too (``emp_id``, ``order_id``): every other tree runs
the parity check against it, where the planner proves keys and lowers
projections and joins without their ``seen`` sets, and every node of every
tree has its ``unique_keys`` and its ``attribute_universe`` checked on its
naive result.

The CI budget is fixed: ``SEEDS × TREES_PER_SEED`` = 500 trees under pinned
seeds, so a red run is reproducible bit-for-bit.  On the first failing tree
the harness *shrinks* — it repeatedly descends into any child subtree that
still fails parity — and reports the minimal failing expression's ``pretty()``
form plus the seed metadata needed to replay it.

Intentionally adversarial generator choices:

* subqueries are ~70% well-formed scalars (``Limit(Projection(E, [a]), 1)``
  or a global count aggregate, both guaranteed ≤/== 1 tuple × 1 attribute)
  and ~30% arbitrary subtrees, so the scalar-arity *error* paths are fuzzed
  for class parity too;
* extension attributes sometimes collide with real table attributes
  (TupleError parity) and ``sum``/``avg`` run over non-numeric columns
  (AlgebraError parity);
* batch sizes are drawn from {1, 3, 17, 256} so chunk boundaries move (the
  parity check executes with the drawn size; the two-literal fuzz patches
  the planner's size decision).
"""

import os
import random

import pytest

from test_exec_parity import _outcome, assert_parity

from repro.algebra import (
    Aggregate,
    Difference,
    Extension,
    Limit,
    MultiwayJoin,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Sort,
    SubqueryExtension,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    Not,
    Or,
    PresencePredicate,
    TruePredicate,
)
from repro.algebra import Evaluator
from repro.errors import ReproError
from repro.model.batches import MISSING
from repro.model.tuples import FlexTuple
from repro.workloads.analytics import generate_orders
from repro.workloads.employees import generate_employees

#: the fixed CI budget — SEEDS × TREES_PER_SEED random trees, pinned seeds;
#: REPRO_FUZZ_SEED=<n> narrows the run to that one seed (reproducing a red
#: CI run locally without paying for the other nine)
SEEDS = ([int(os.environ["REPRO_FUZZ_SEED"])]
         if os.environ.get("REPRO_FUZZ_SEED") else range(10))
TREES_PER_SEED = 50

#: where a failing tree's shrunk reproduction is written (CI uploads it)
FUZZ_ARTIFACT = os.environ.get("REPRO_FUZZ_ARTIFACT", "fuzz-failure.txt")

#: maximum tree depth handed to the generator
MAX_DEPTH = 4

AGGREGATE_FUNCS = ("count", "count_attr", "sum", "min", "max", "avg")
BATCH_SIZES = (1, 3, 17, 256)


# -- random tree generator -------------------------------------------------------------------


def _random_predicate(rng, attributes, values):
    kind = rng.randrange(8)
    attribute = rng.choice(attributes)
    value = rng.choice(values)
    if kind == 0:
        return Comparison(attribute, rng.choice(["=", "<", ">", "<=", ">=", "!="]), value)
    if kind == 1:
        return PresencePredicate([attribute, rng.choice(attributes)])
    if kind == 2:
        return And(Comparison(attribute, ">", value),
                   Comparison(rng.choice(attributes), "<", rng.choice(values)))
    if kind == 3:
        return Or(Comparison(attribute, "=", value),
                  Comparison(rng.choice(attributes), "=", rng.choice(values)))
    if kind == 4:
        return Not(Comparison(attribute, "=", value))
    if kind == 5:
        return AttributeComparison(attribute, rng.choice(["=", "<", "!="]),
                                   rng.choice(attributes))
    if kind == 6:
        return Or(AttributeComparison(attribute, "<", rng.choice(attributes)),
                  Comparison(rng.choice(attributes), "=", value))
    return TruePredicate()


def _random_specs(rng, attributes, group_by):
    """1–3 aggregate specs with generated output names that cannot collide."""
    specs = []
    for index in range(rng.randrange(1, 4)):
        func = rng.choice(AGGREGATE_FUNCS)
        output = "fz{}".format(index)
        if output in group_by:  # pragma: no cover - outputs never look like attrs
            continue
        if func == "count":
            specs.append(("count", None, output))
        elif func == "count_attr":
            specs.append(("count", rng.choice(attributes), output))
        else:
            specs.append((func, rng.choice(attributes), output))
    return tuple(specs)


def _random_sort_keys(rng, attributes):
    keys = rng.sample(attributes, rng.randrange(1, 3))
    return tuple("-" + key if rng.random() < 0.5 else key for key in keys)


def _random_subquery(rng, names, attributes, values, depth):
    """~70% guaranteed-scalar subqueries, ~30% arbitrary (error-path fuzzing)."""
    child = _random_expression(rng, names, attributes, values, depth)
    draw = rng.random()
    if draw < 0.35:
        return Limit(Projection(child, [rng.choice(attributes)]), 1)
    if draw < 0.70:
        return Aggregate(child, specs=(("count", None, "c"),))
    return child


def _random_expression(rng, names, attributes, values, depth):
    if depth <= 0 or rng.random() < 0.22:
        return RelationRef(rng.choice(names))
    kind = rng.randrange(14)
    child = lambda: _random_expression(rng, names, attributes, values, depth - 1)
    if kind == 0:
        return Selection(child(), _random_predicate(rng, attributes, values))
    if kind == 1:
        return TypeGuardNode(child(), rng.sample(attributes, rng.randrange(1, 3)))
    if kind == 2:
        return Projection(child(), rng.sample(attributes, rng.randrange(1, 4)))
    if kind == 3:
        return Union(child(), child())
    if kind == 4:
        return OuterUnion(child(), child())
    if kind == 5:
        return Difference(child(), child())
    if kind == 6:
        on = rng.sample(attributes, rng.randrange(1, 3)) if rng.random() < 0.5 else None
        return NaturalJoin(child(), child(), on=on)
    if kind == 7:
        return MultiwayJoin([child(), child()], on=rng.sample(attributes, 1))
    if kind == 8:
        # sometimes collides with a real attribute → TupleError parity
        attribute = rng.choice(attributes) if rng.random() < 0.25 else \
            "tag{}".format(rng.randrange(4))
        return Extension(child(), attribute, rng.choice(values))
    if kind == 9:
        mapping = {rng.choice(attributes): "rn{}".format(rng.randrange(3))}
        return Rename(child(), mapping)
    if kind == 10:
        group_by = tuple(rng.sample(attributes, rng.randrange(0, 3)))
        specs = _random_specs(rng, attributes, group_by)
        if not group_by and not specs:  # pragma: no cover - specs never empty
            specs = (("count", None, "fz0"),)
        return Aggregate(child(), group_by=group_by, specs=specs)
    if kind == 11:
        return Sort(child(), _random_sort_keys(rng, attributes))
    if kind == 12:
        inner = child()
        if rng.random() < 0.6:
            inner = Sort(inner, _random_sort_keys(rng, attributes))
        return Limit(inner, rng.randrange(0, 9))
    attribute = rng.choice(attributes) if rng.random() < 0.2 else \
        "sub{}".format(rng.randrange(3))
    return SubqueryExtension(
        child(), attribute,
        _random_subquery(rng, names, attributes, values, depth - 1))


# -- shrinker --------------------------------------------------------------------------------


def _parity_failure(expression, source, batch_size):
    """The parity AssertionError for this tree, or None if it passes."""
    try:
        assert_parity(expression, source, batch_size=batch_size,
                      strict_error_class=False)
    except AssertionError as error:
        return error
    except ReproError as error:
        # a plan-time rejection escapes assert_parity's per-execution capture;
        # parity still holds iff the naive evaluator rejects the tree too
        naive, _ = _outcome(lambda: Evaluator(source).evaluate(expression))
        if naive[0] == "error":
            return None
        return AssertionError(
            "plan-time {} but naive outcome {}".format(type(error).__name__, naive))
    return None


def _shrink(expression, source, batch_size):
    """Greedily descend into any child subtree that still fails parity."""
    while True:
        for child in expression.children:
            if _parity_failure(child, source, batch_size) is not None:
                expression = child
                break
        else:
            return expression


def _check_tree(expression, source, batch_size, seed, index):
    failure = _parity_failure(expression, source, batch_size)
    if failure is None:
        return
    minimal = _shrink(expression, source, batch_size)
    report = (
        "fuzz parity failure (seed={}, tree={}, batch_size={})\n"
        "reproduce with: REPRO_FUZZ_SEED={} pytest tests/test_fuzz_parity.py\n"
        "minimal failing expression:\n{}\n\noriginal failure:\n{}".format(
            seed, index, batch_size, seed, minimal.pretty(), failure))
    try:
        # written before pytest.fail so CI can upload it as an artifact even
        # though the failure text also lands in the test output
        with open(FUZZ_ARTIFACT, "w") as handle:
            handle.write(report + "\n")
    except OSError:
        pass
    pytest.fail(report)


# -- fixed fuzzing corpus --------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_source():
    """Two small workload tables: employee variants + skewed analytic orders."""
    return {
        "employees": {FlexTuple(**row) for row in generate_employees(28, seed=11)},
        "orders": {FlexTuple(**row)
                   for row in generate_orders(30, regions=4, rare_every=7, seed=5)},
    }


ATTRIBUTES = [
    "emp_id", "name", "salary", "jobtype", "typing_speed", "foreign_languages",
    "order_id", "region", "channel", "amount", "coupon", "store_id",
]
VALUES = [1, 7, 25, 4000.0, 250, "secretary", "salesman", "r0", "r1",
          "online", "store", None]


class _NodeResults(Evaluator):
    """The naive evaluator, keeping every node's result (bottom-up)."""

    def __init__(self, source):
        super().__init__(source)
        self.results = []

    def _evaluate(self, expression, stats):
        tuples = super()._evaluate(expression, stats)
        self.results.append((expression, tuples))
        return tuples


def _naive_checking_keys(expression, database, where):
    """The naive outcome of ``expression`` against ``database`` — after
    checking, on every node's naive result, each key the node reports
    (``unique_keys``): every tuple carries it, and no two tuples share its
    values; and that every tuple's attributes lie inside the node's
    ``attribute_universe`` where that is known (the premise of join
    reordering and of pushing selections through joins)."""
    evaluator = _NodeResults(database)
    outcome, _ = _outcome(lambda: evaluator.evaluate(expression))
    for node, tuples in evaluator.results:
        rows = [tup._values for tup in tuples]
        universe = node.attribute_universe(database)
        if universe is not None:
            names = {attribute.name for attribute in universe}
            assert all(names.issuperset(row) for row in rows), (
                "{}: a tuple of this node carries an attribute outside its "
                "universe {}\n{}\nin:\n{}".format(
                    where, universe, node.pretty(), expression.pretty()))
        for key in node.unique_keys(database):
            names = key.names
            assert all(name in row for row in rows for name in names), (
                "{}: a tuple of this node lacks its key {}\n{}\nin:\n{}".format(
                    where, key, node.pretty(), expression.pretty()))
            assert len({tuple(row[name] for name in names) for row in rows}) == len(rows), (
                "{}: two tuples of this node share key {}\n{}\nin:\n{}".format(
                    where, key, node.pretty(), expression.pretty()))
    return outcome


def _check_rewrite(expression, database, seed, index):
    """The AD rewrites are sound: the rewritten tree evaluates (naively) to
    the same outcome as the tree itself; error against error is agreement.
    The naive run of the tree checks every node's keys on the way."""
    from repro.optimizer.planner import Planner

    where = "seed={} tree={}".format(seed, index)
    naive = _naive_checking_keys(expression, database, where)
    rewritten, _ = Planner(catalog=database).optimize(expression)
    outcome, _ = _outcome(lambda: Evaluator(database).evaluate(rewritten))
    assert _agree(outcome, naive), (
        "{}: the rewrite changes the result\n{}\nrewritten:\n{}"
        .format(where, expression.pretty(), rewritten.pretty()))


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_parity_budget(seed, fuzz_source, fuzz_database):
    """TREES_PER_SEED random trees per seed through both engines — every
    other one against the database that declares keys, so the planner proves
    keys and lowers without ``seen`` sets — and through the rewrite planner
    against that database, with every node's keys checked on its result."""
    rng = random.Random(7000 + seed)
    names = ["employees", "orders"]
    for index in range(TREES_PER_SEED):
        expression = _random_expression(rng, names, ATTRIBUTES, VALUES,
                                        depth=MAX_DEPTH)
        _check_tree(expression, fuzz_database if index % 2 else fuzz_source,
                    rng.choice(BATCH_SIZES), seed, index)
        _check_rewrite(expression, fuzz_database, seed, index)


def test_a_false_key_fails_the_fuzz(fuzz_source, fuzz_database, monkeypatch):
    """Teeth.  A key claimed on every node lowers every projection and join
    without its ``seen`` set, and the duplicates must fail parity; a
    projection that keeps its child's keys whatever it drops must fail the
    per-node key check.  A multiway join's chain that drops the probe rows
    without partners, or those lacking ``on``, must fail parity too: seed 0
    catches the first at tree 7 (orders merged on ``coupon`` with an
    aggregate that has no ``coupon``, so every order with one misses) and
    the second at tree 3 (employees, which carry no ``coupon``, as the
    master of a merge on it)."""
    from repro.exec import operators
    from repro.exec.planner import PhysicalPlanner
    from repro.model.attributes import AttributeSet

    def first_failing_tree(check):
        """The index of seed 0's first tree that fails ``check``, or None."""
        rng = random.Random(7000)
        for index in range(TREES_PER_SEED):
            expression = _random_expression(rng, ["employees", "orders"],
                                            ATTRIBUTES, VALUES, depth=MAX_DEPTH)
            try:
                check(expression, rng.choice(BATCH_SIZES))
            except AssertionError:
                return index
        return None

    def parity(tree, batch_size):
        failure = _parity_failure(tree, fuzz_source, batch_size)
        assert failure is None, failure

    with monkeypatch.context() as patch:
        patch.setattr(PhysicalPlanner, "_keys_of",
                      lambda self, expression: frozenset({AttributeSet()}))
        assert first_failing_tree(parity) is not None
    with monkeypatch.context() as patch:
        patch.setattr(Projection, "keys_from",
                      lambda self, children, catalog: children[0])
        assert first_failing_tree(
            lambda tree, _size: _naive_checking_keys(tree, fuzz_database, "teeth")) is not None

    probe = operators._probe

    def dropping(drops):
        """``_probe`` that never sees the probe pairs ``drops`` picks."""
        return lambda ctx, seen, buckets, shared, pairs, keep=False: probe(
            ctx, seen, buckets, shared,
            ([pair for pair in chunk if not drops(pair[0], buckets)] for chunk in pairs),
            keep)

    for drops, tree in ((lambda key, buckets: key is not MISSING and key not in buckets, 7),
                        (lambda key, buckets: key is MISSING, 3)):
        with monkeypatch.context() as patch:
            patch.setattr(operators, "_probe", dropping(drops))
            assert first_failing_tree(parity) == tree


def test_shrinker_reports_the_minimal_subtree(fuzz_source):
    """The shrinker descends to the smallest child that still fails.

    A deliberately 'failing' predicate: a tree whose root passes parity but
    is declared failing by a stub keeps the root; a stub that fails on a
    child descends into it.  We exercise the real ``_shrink`` with a fake
    failure predicate via monkeypatching-free indirection: sum over the
    non-numeric ``name`` raises AlgebraError in *all* engines (error parity),
    so parity holds and nothing shrinks — while an artificial always-fails
    probe shows descent terminates at a leaf.
    """
    tree = Union(
        Selection(RelationRef("employees"), TruePredicate()),
        Aggregate(RelationRef("orders"), specs=(("count", None, "c"),)),
    )
    # real predicate: healthy tree → no failure, nothing to shrink
    assert _parity_failure(tree, fuzz_source, 7) is None

    # descent probe: every subtree "fails", so shrinking must reach a leaf
    def descend(expression):
        while True:
            for child in expression.children:
                expression = child
                break
            else:
                return expression

    minimal = descend(tree)
    assert isinstance(minimal, RelationRef)
    assert minimal.pretty().strip() in ("employees", "orders")


# -- two literals, one plan cache ------------------------------------------------------------
#
# The plan cache is keyed by the query's *template*: comparison constants the
# rewrite rules cannot read are parameters, bound per call.  So every tree runs
# twice — as generated and with every comparison constant redrawn — against ONE
# database (one statement/template/plan cache, declared dependencies, key and
# secondary indexes), and both answers must equal the naive evaluator's.  Some
# leaves grow joins an index can answer (``_probe_join``), so the planner
# probes indexes through bare, selected and guarded inner relations.


#: REPRO_SWEEP_EXAMPLES=<n> raises the per-seed budget (the CI sweep)
TEMPLATE_TREES_PER_SEED = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "20"))


@pytest.fixture(scope="module")
def fuzz_database():
    return _fuzz_database()


def _fuzz_database():
    """The fuzz corpus as a database: the paper's employees (jobtype EAD, key
    and a secondary index) and the analytic orders, analyzed."""
    from repro.engine import Database
    from repro.workloads.analytics import orders_domains, orders_scheme
    from repro.workloads.employees import employee_definition

    database = Database()
    definition = employee_definition()
    database.create_table(
        "employees", definition.scheme, domains=definition.domains,
        key=definition.key, dependencies=definition.dependencies,
        indexes=[["jobtype"]]).insert_many(generate_employees(28, seed=11))
    database.create_table(
        "orders", orders_scheme(), domains=orders_domains(), key=["order_id"]
    ).insert_many(generate_orders(30, regions=4, rare_every=7, seed=5))
    database.analyze()
    return database


#: values weighted towards the determinants the jobtype AD declares
_TEMPLATE_VALUES = VALUES + ["secretary", "salesman", "software engineer"] * 2


def _ad_core(rng):
    """A subtree the AD-driven rewrites act on: a selection on the jobtype
    (the determinant) under a guard or a comparison on a variant attribute."""
    selected = Comparison("jobtype", "=", rng.choice(_TEMPLATE_VALUES))
    if rng.random() < 0.5:
        selected = And(Comparison("salary", ">", rng.choice([7, 250, 4000.0])), selected)
    core = Selection(RelationRef("employees"), selected)
    variant = rng.choice(["typing_speed", "products", "sales_commission",
                          "foreign_languages"])
    if rng.random() < 0.5:
        return TypeGuardNode(core, [variant])
    return Selection(core, Comparison(variant, rng.choice([">", "=", "!="]),
                                      rng.choice(_TEMPLATE_VALUES)))


#: per table of the fuzz database: its key, join attribute sets a maintained
#: index covers — the key index, the secondary index on jobtype, and sets an
#: index covers only part of — and its attributes
_PROBE_JOINS = {
    "employees": ("emp_id", (["emp_id"], ["jobtype"], ["emp_id", "jobtype"],
                             ["emp_id", "salary"]), ATTRIBUTES[:6]),
    "orders": ("order_id", (["order_id"], ["order_id", "region"]), ATTRIBUTES[6:]),
}


def _probe_join(rng, name):
    """A join the planner may answer by probing an index: a few rows of
    ``name`` cut to the join attributes (the outer side), joined back to
    ``name`` on attributes an index of it covers — the inner side bare,
    selected, guarded or an AD core, so both forms of the index lookup join
    are planned."""
    key, join_sets, attributes = _PROBE_JOINS[name]
    on = rng.choice(join_sets)
    few = Projection(Selection(RelationRef(name), Comparison(
        key, rng.choice(["=", "=", "<"]), rng.choice(_TEMPLATE_VALUES))), on)
    draw = rng.random()
    if name == "employees" and draw < 0.3:
        inner = _ad_core(rng)
    elif draw < 0.8:
        inner = Selection(RelationRef(name),
                          _random_predicate(rng, attributes, _TEMPLATE_VALUES))
        if rng.random() < 0.3:
            inner = TypeGuardNode(inner, rng.sample(attributes, 1))
    else:
        inner = RelationRef(name)
    sides = [few, inner]
    rng.shuffle(sides)
    return NaturalJoin(*sides, on=on)


def _template_tree(rng, names):
    """A random tree with AD-rewritable cores planted at some employee leaves
    and index-probing joins at some leaves of either table."""
    def plant(node):
        if isinstance(node, RelationRef):
            draw = rng.random()
            if draw < 0.25:
                return _probe_join(rng, node.name)
            if node.name == "employees" and draw < 0.625:
                return _ad_core(rng)
            return node
        return node.with_children([plant(child) for child in node.children])

    return plant(_random_expression(rng, names, ATTRIBUTES, VALUES, depth=MAX_DEPTH - 1))


def _redraw_constants(expression, rng, values):
    """The same tree with every comparison constant drawn again."""
    return expression.map_comparisons(
        lambda comparison: Comparison(comparison.attribute, comparison.op,
                                      rng.choice(values)))


def _engine_outcome(database, expression, **options):
    outcome, _ = _outcome(lambda: database.execute(expression, **options))
    return outcome


def _agree(physical, naive):
    return physical == naive or (physical[0] == "error" and naive[0] == "error")


def _template_cases(seed):
    """The template fuzz of one seed: per tree, its index, the batch size the
    planner is patched to, and the tree with its constants-redrawn twin."""
    rng = random.Random(9000 + seed)
    names = ["employees", "orders"]
    for index in range(TEMPLATE_TREES_PER_SEED):
        tree = _template_tree(rng, names)
        batch_size = rng.choice(BATCH_SIZES)
        yield index, batch_size, (tree, _redraw_constants(tree, rng, _TEMPLATE_VALUES))


def _template_fuzz(seed, database, monkeypatch):
    """Run one seed's template fuzz against ``database``; the first
    disagreement with the naive evaluator raises AssertionError."""
    for index, batch_size, variants in _template_cases(seed):
        # the planner sizes the batches of the plans this tree makes (plans
        # cached by earlier trees keep their size)
        monkeypatch.setattr("repro.exec.planner.adaptive_batch_size",
                            lambda width, rows=None: batch_size)
        for variant in variants:
            naive = _naive_checking_keys(
                variant, database, "seed={} tree={}".format(seed, index))
            for optimize in (False, True):
                physical = _engine_outcome(database, variant, optimize=optimize)
                assert _agree(physical, naive), (
                    "seed={} tree={} optimize={}: {} != naive {}\n{}"
                    .format(seed, index, optimize, physical[0],
                            naive[0], variant.pretty()))


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_two_literals_share_one_cache(seed, fuzz_database, monkeypatch):
    _template_fuzz(seed, fuzz_database, monkeypatch)
    info = fuzz_database.physical_executor.cache_info()
    assert info["hits"] > 0 and info["size"] <= info["max_size"]


def test_template_fuzz_plans_both_index_lookup_forms():
    """Reach: the planted joins make the planner probe indexes, through a
    bare inner relation and through a selected or guarded one."""
    from repro.exec import IndexLookupJoin

    database = _fuzz_database()
    forms = {"bare": 0, "filtered": 0}
    for seed in SEEDS:
        for _index, _size, variants in _template_cases(seed):
            for variant in variants:
                for optimize in (False, True):
                    try:
                        plan = database.plan(variant, optimize=optimize)
                    except ReproError:
                        continue
                    for node in plan.nodes:
                        if isinstance(node, IndexLookupJoin):
                            forms["filtered" if node.inner.filtered else "bare"] += 1
    assert forms["bare"] > 0 and forms["filtered"] > 0, forms


def test_a_skipped_inner_filter_fails_the_fuzz(monkeypatch):
    """Teeth.  An index lookup join that hands on its partners without the
    inner scan's guard and predicate must fail the template fuzz."""
    from repro.exec import Scan

    monkeypatch.setattr(Scan, "filtered", property(lambda self: False))
    failed = False
    for seed in SEEDS:
        try:
            _template_fuzz(seed, _fuzz_database(), monkeypatch)
        except AssertionError:
            failed = True
            break
    assert failed


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_rewrite_and_bind_commute(seed, fuzz_database):
    """rewrite(bind(template)) ≡ bind(rewrite(template)): rewriting a template
    once is rewriting every query it stands for; and per node of either
    template, the fingerprint commutes with the binding."""
    from repro.exec import expression_key
    from repro.optimizer.cost import CostModel
    from repro.optimizer.planner import Planner

    rng = random.Random(9500 + seed)
    names = ["employees", "orders"]
    executor = fuzz_database.physical_executor
    for index in range(TREES_PER_SEED):
        tree = _template_tree(rng, names)
        for variant in (tree, _redraw_constants(tree, rng, _TEMPLATE_VALUES)):
            template, params = executor.template(variant, optimize=True)
            unrewritten, same_params = executor.template(variant, optimize=False)
            assert expression_key(unrewritten.expression.substitute(same_params)) \
                == expression_key(variant)
            rewritten, report = Planner(catalog=fuzz_database).optimize(variant)
            assert expression_key(template.expression.substitute(params)) \
                == expression_key(rewritten), (
                    "seed={} tree={}: the template's rewrite differs\n{}".format(
                        seed, index, variant.pretty()))
            assert template.report.actions == report.actions
            for lifted, binding in ((template, params), (unrewritten, same_params)):
                _assert_fingerprints_commute(lifted.expression, binding,
                                             CostModel(fuzz_database))


def _assert_fingerprints_commute(template, params, cost_model):
    """Per node of ``template``: its bound fingerprint is the key of the bound
    node, binding-specific exactly when the node's subtree holds a parameter."""
    from repro.exec import expression_key

    cost_model.bind(params)
    pending = [template]
    while pending:
        node = pending.pop()
        pending.extend(node.children)
        bound = node.substitute(params)
        assert expression_key(node, params) == expression_key(bound), node.pretty()
        # (substitution rebuilds exactly the nodes above a parameter)
        assert cost_model.fingerprint(node) == (expression_key(bound),
                                                bound is not node), node.pretty()
