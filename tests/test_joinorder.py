"""Tests for the cost-based join-order search (repro.optimizer.joinorder).

Covers the join-graph extractor (flattening, universes, the reorderability
safety conditions), the DP enumerator on a known-cardinality star schema
(plan shape, honest estimates, search statistics), the written order kept
above the threshold, differential parity of reordered plans against the naive
evaluator, and plan-cache behaviour when statistics change the chosen order.
"""

import itertools
import os
import random

import pytest

from repro.algebra import Evaluator
from repro.algebra.expressions import (
    Aggregate,
    Limit,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    Sort,
    SubqueryExtension,
)
from repro.algebra.predicates import Comparison
from repro.engine import Database
from repro.errors import OptimizerError
from repro.exec import PhysicalExecutor, PhysicalPlanner
from repro.governor.chaos import cancel_at_every_boundary
from repro.model.attributes import attrset
from repro.model.scheme import FlexibleScheme
from repro.model.tuples import FlexTuple
from repro.optimizer.cost import CostModel
from repro.optimizer.joinorder import extract_join_graph, order_joins
from repro.optimizer.planner import Planner
from repro.workloads.star import (
    chain_join_database,
    chain_join_query,
    star_join_database,
    star_join_query,
)


@pytest.fixture(scope="module")
def star_db():
    database = star_join_database(fact_rows=600)
    database.analyze()
    return database


@pytest.fixture(scope="module")
def chain_db():
    database = chain_join_database(rows=(80, 120, 400, 120, 80))
    database.analyze()
    return database


#: ``plan.explain()`` of the star query over ``star_db`` (600 fact rows, analyzed)
STAR_PLAN_EXPLAIN = """\
join-order[dp]: relations=6 subsets=37 considered=80 pruned=49 est_rows=30.0 est_cost=3050.0
  order: ((((dim_small ⋈ (fact ⋈ σ(dim_rare))) ⋈ dim_c) ⋈ dim_b) ⋈ dim_a)
hash-join[on={da}] distinct-by={fact_id}  [est_rows=30.0 est_cost=3050.0]
  hash-join[on={db}] distinct-by={fact_id}  [est_rows=30.0 est_cost=2930.0]
    scan[dim_b]  [est_rows=40.0 est_cost=40.0]
    hash-join[on={dc}] distinct-by={fact_id}  [est_rows=30.0 est_cost=2790.0]
      scan[dim_c]  [est_rows=50.0 est_cost=50.0]
      hash-join[on={ds}] distinct-by={fact_id}  [est_rows=30.0 est_cost=2630.0]
        hash-join[on={dr}] distinct-by={fact_id}  [est_rows=30.0 est_cost=2530.0]
          scan[fact]  [est_rows=600.0 est_cost=600.0]
          scan[dim_rare, σ[kind = ?0]]  [est_rows=50.0 est_cost=1250.0]
        scan[dim_small]  [est_rows=20.0 est_cost=20.0]
  scan[dim_a]  [est_rows=30.0 est_cost=30.0]
params: ?0='rare'"""


def _dp_report(database, query):
    plan = PhysicalPlanner(database).plan(query)
    assert plan.join_search, "expected the search to run on {}".format(query)
    return plan, plan.join_search[0]


# -- join-graph extraction -------------------------------------------------------------


class TestExtractJoinGraph:
    def test_flattens_star_into_atoms_and_edges(self, star_db):
        graph = extract_join_graph(star_join_query(), star_db)
        assert graph is not None
        assert len(graph) == 6
        labels = sorted(atom.label for atom in graph.atoms)
        assert labels == ["dim_a", "dim_b", "dim_c", "dim_small", "fact",
                          "σ(dim_rare)"]
        # A star: every dimension connects to the fact table and nothing else.
        assert len(graph.edges) == 5
        assert graph.connected((1 << 6) - 1)

    def test_two_way_join_is_not_reordered(self, star_db):
        query = NaturalJoin(RelationRef("fact"), RelationRef("dim_small"),
                            on=["ds"])
        assert extract_join_graph(query, star_db) is None

    def test_narrowed_on_set_refuses_to_reorder(self, star_db):
        # fact ⋈ fact shares every attribute; joining on only fact_id is a
        # narrowed join (merge semantics differ under reassociation).
        narrowed = NaturalJoin(
            NaturalJoin(RelationRef("fact"), RelationRef("fact"),
                        on=["fact_id"]),
            RelationRef("dim_small"), on=["ds"])
        assert extract_join_graph(narrowed, star_db) is None

    def test_data_dependent_join_is_an_atom(self, star_db):
        # on=None joins compute their attributes from the data; they are never
        # flattened, so this tree has only two atoms and keeps its order.
        query = NaturalJoin(
            NaturalJoin(RelationRef("fact"), RelationRef("dim_small")),
            RelationRef("dim_a"), on=["da"])
        assert extract_join_graph(query, star_db) is None

    def test_schema_less_source_refuses_to_reorder(self):
        source = {
            "r1": {FlexTuple({"a": 1, "b": 2})},
            "r2": {FlexTuple({"b": 2, "c": 3})},
            "r3": {FlexTuple({"c": 3, "d": 4})},
        }
        query = NaturalJoin(
            NaturalJoin(RelationRef("r1"), RelationRef("r2"), on=["b"]),
            RelationRef("r3"), on=["c"])
        assert extract_join_graph(query, source) is None

    def test_projection_narrows_the_universe(self, star_db):
        # Projecting the foreign key away severs the dim_a edge, so the on-set
        # check fails (the written join would be a cross product) — no reorder.
        projected = Projection(RelationRef("fact"), ["fact_id", "ds", "dr"])
        query = NaturalJoin(
            NaturalJoin(projected, RelationRef("dim_small"), on=["ds"]),
            RelationRef("dim_a"), on=["da"])
        assert extract_join_graph(query, star_db) is None

    def test_analytic_nodes_state_their_universe(self, star_db):
        fact = star_db.table("fact").definition.scheme.attributes
        facts_per_dc = Aggregate(RelationRef("fact"), group_by=["dc"],
                                 specs=[("count", None, "facts"), ("max", "da")])
        assert facts_per_dc.attribute_universe(star_db) == attrset(["dc", "facts", "max_da"])
        assert Sort(RelationRef("fact"), ["da"]).attribute_universe(star_db) == fact
        assert Limit(RelationRef("fact"), 3).attribute_universe(star_db) == fact
        scalar = SubqueryExtension(RelationRef("fact"), "n", facts_per_dc)
        assert scalar.attribute_universe(star_db) == fact | attrset(["n"])
        assert Limit(RelationRef("unknown"), 3).attribute_universe(star_db) is None

    def test_a_join_over_an_aggregate_is_reordered(self, star_db):
        """The aggregate atom has a universe, so the written order — the fact
        table joined to its own per-``dc`` counts first — is searched, and the
        selective dimension goes first."""
        facts_per_dc = Aggregate(RelationRef("fact"), group_by=["dc"],
                                 specs=[("count", None, "facts")])
        few = Selection(RelationRef("dim_c"), Comparison("dc", "<=", 3))
        query = NaturalJoin(NaturalJoin(RelationRef("fact"), facts_per_dc, on=["dc"]),
                            few, on=["dc"])
        _plan, report = _dp_report(star_db, query)
        assert report.relations == 3
        assert report.order == "((fact ⋈ σ(dim_c)) ⋈ aggregate)"
        assert_search_parity(query, star_db)

    def test_selection_chain_stays_glued_to_its_atom(self, star_db):
        graph = extract_join_graph(star_join_query(), star_db)
        rare = next(atom for atom in graph.atoms if atom.label == "σ(dim_rare)")
        assert isinstance(rare.expression, Selection)
        assert "kind" in rare.universe and "audit_level" in rare.universe


# -- the search ------------------------------------------------------------------------


class TestSearch:
    def test_dp_joins_the_selective_dimension_first(self, star_db):
        plan, report = _dp_report(star_db, star_join_query())
        assert report.describe().startswith("join-order[dp]")
        assert ("(fact ⋈ σ(dim_rare))" in report.order
                or "(σ(dim_rare) ⋈ fact)" in report.order)

    def test_estimates_are_honest_on_known_cardinalities(self, star_db):
        plan, report = _dp_report(star_db, star_join_query())
        true_rows = len(Evaluator(star_db).evaluate(star_join_query()).tuples)
        # 600 fact rows, dr uniform over 1000 ids, 50 of them rare → 30 rows.
        assert plan.root.estimated_rows == pytest.approx(report.estimated_rows)
        assert report.estimated_rows == pytest.approx(true_rows, rel=0.25)

    def test_dp_enumerates_connected_subsets_only(self, star_db):
        _plan, report = _dp_report(star_db, star_join_query())
        # 6 atoms: singletons (6) + connected composites; a star has exactly
        # C(5,k) connected subsets containing the hub plus the singletons.
        assert report.relations == 6
        assert report.subsets_enumerated == 6 + 31  # 31 = subsets ∋ fact, |S|≥2
        assert report.plans_considered > 0
        assert report.plans_pruned < report.plans_considered

    def test_written_order_kept_above_threshold(self, star_db, monkeypatch):
        """A tree of more than ``DEFAULT_DP_THRESHOLD`` relations is declined
        like any tree the search cannot reorder: its top join stays as
        written, and the planner searches the sub-joins it lowers."""
        query = star_join_query()
        monkeypatch.setattr("repro.optimizer.joinorder.DEFAULT_DP_THRESHOLD", 5)
        assert order_joins(query, CostModel(star_db)) is None
        plan = PhysicalPlanner(star_db).plan(query)
        # the written root joins σ(dim_rare) last; only the 5-way left side
        # below it was searched
        assert "dr" in plan.root.label()
        (report,) = plan.join_search
        assert report.relations == 5 and "dim_rare" not in report.order
        assert plan.execute(star_db).tuples == Evaluator(star_db).evaluate(query).tuples
        monkeypatch.setattr("repro.optimizer.joinorder.DEFAULT_DP_THRESHOLD", 6)
        assert order_joins(query, CostModel(star_db)).report.relations == 6

    def test_every_mode_prices_fewer_pairs_than_written_order(self, star_db):
        query = star_join_query()
        baseline = PhysicalPlanner(star_db, join_order_search="none").plan(query)
        baseline_pairs = baseline.execute(star_db).stats.join_pairs_considered
        plan = PhysicalPlanner(star_db, join_order_search="dp").plan(query)
        pairs = plan.execute(star_db).stats.join_pairs_considered
        assert pairs * 5 <= baseline_pairs

    def test_unknown_mode_raises(self, star_db):
        for mode in ("exhaustive", "greedy", "smallest"):
            with pytest.raises(OptimizerError):
                PhysicalPlanner(star_db, join_order_search=mode)

    def test_search_report_rendered_by_explain(self, star_db):
        text = star_db.plan(star_join_query(), optimize=False).explain()
        assert "join-order[dp]" in text
        assert "order:" in text
        explain = star_db.explain(star_join_query(), optimize=False)
        assert "join-order[dp]" in explain

    def test_star_plan_is_priced_as_before_the_engines_merged(self, star_db):
        """The E13 star plan, textually: operator lines, ``est_rows`` /
        ``est_cost`` and the search report as printed before the row engine
        (and its per-engine tuple cost) was removed."""
        text = star_db.plan(star_join_query(), optimize=False).explain()
        assert text == STAR_PLAN_EXPLAIN


# -- differential parity ---------------------------------------------------------------


def assert_search_parity(expression, source, modes=("dp", "none")):
    """Every search mode equals the naive evaluator's result."""
    naive = Evaluator(source).evaluate(expression).tuples
    for mode in modes:
        plan = PhysicalPlanner(source, join_order_search=mode).plan(expression)
        result = plan.execute(source)
        assert result.tuples == naive, "mode={}\n{}".format(mode, plan.explain())


class TestCliqueSelectivity:
    """One attribute joining >2 atoms must be priced once per cut, not per edge."""

    @pytest.fixture(scope="class")
    def clique_db(self):
        database = Database()
        for t in (1, 2, 3):
            attr = "a{}".format(t)
            table = database.create_table(
                "r{}".format(t), FlexibleScheme.relational(["x", attr]), key=[attr])
            # 20 distinct x values, each appearing 3 times per table.
            table.insert_many({"x": i % 20 + 1, attr: i} for i in range(60))
        database.analyze()
        return database

    def clique_query(self):
        return NaturalJoin(
            NaturalJoin(RelationRef("r1"), RelationRef("r2"), on=["x"]),
            RelationRef("r3"), on=["x"])

    def test_estimate_matches_true_cardinality(self, clique_db):
        query = self.clique_query()
        true_rows = len(Evaluator(clique_db).evaluate(query).tuples)
        assert true_rows == 20 * 27  # 20 ids × 3 partners per table
        plan = PhysicalPlanner(clique_db).plan(query)
        report = plan.join_search[0]
        # Per-edge accounting charged 1/ndv once per crossing edge (two edges
        # cross the top cut of a 3-clique), under-estimating 20×.
        assert report.estimated_rows == pytest.approx(true_rows, rel=0.05)
        assert plan.root.estimated_rows == pytest.approx(report.estimated_rows)

    def test_order_independence_of_root_estimate(self, clique_db):
        """Every association of the clique prices to the same root cardinality."""
        trees = [
            NaturalJoin(NaturalJoin(RelationRef(a), RelationRef(b), on=["x"]),
                        RelationRef(c), on=["x"])
            for a, b, c in itertools.permutations(["r1", "r2", "r3"])
        ]
        estimates = set()
        for tree in trees:
            plan = PhysicalPlanner(clique_db).plan(tree)
            estimates.add(round(plan.join_search[0].estimated_rows, 6))
        assert len(estimates) == 1

    def test_clique_parity(self, clique_db):
        assert_search_parity(self.clique_query(), clique_db)

    def test_anticorrelated_hub_presence_is_order_independent(self):
        """Presence is charged marginally per (atom, attribute): a hub whose
        join attributes never co-occur must price to the same root cardinality
        under every association (joint charging would price ((A⋈B)⋈C) at 0)."""
        database = Database()
        a = database.create_table("a", FlexibleScheme.relational(["x", "z", "aa"]),
                                  key=["aa"])
        a.insert_many({"x": i % 10, "z": i % 4, "aa": i} for i in range(40))
        b = database.create_table("b", FlexibleScheme.relational(["y", "z", "bb"]),
                                  key=["bb"])
        b.insert_many({"y": i % 10, "z": i % 4, "bb": i} for i in range(40))
        c = database.create_table(
            "c", FlexibleScheme(1, 2, ["cid", FlexibleScheme(0, 2, ["x", "y"])]),
            key=["cid"])
        # anti-correlated variants: every row carries x or y, never both
        c.insert_many({"cid": i, ("x" if i % 2 else "y"): i % 10}
                      for i in range(40))
        database.analyze()
        trees = [
            NaturalJoin(NaturalJoin(RelationRef("a"), RelationRef("b"), on=["z"]),
                        RelationRef("c"), on=["x", "y"]),
            NaturalJoin(NaturalJoin(RelationRef("a"), RelationRef("c"), on=["x"]),
                        RelationRef("b"), on=["y", "z"]),
            NaturalJoin(NaturalJoin(RelationRef("b"), RelationRef("c"), on=["y"]),
                        RelationRef("a"), on=["x", "z"]),
        ]
        estimates = set()
        for tree in trees:
            plan = PhysicalPlanner(database).plan(tree)
            assert plan.join_search, "expected the search to run"
            estimates.add(round(plan.join_search[0].estimated_rows, 9))
        assert len(estimates) == 1
        for tree in trees:
            assert_search_parity(tree, database)


#: REPRO_SWEEP_EXAMPLES=<n> raises the tree count (CI's fuzz step runs 6)
STAR_FRAGMENT_TREES = int(os.environ.get("REPRO_SWEEP_EXAMPLES", "2"))


class TestParity:
    def test_star_query_all_modes(self, star_db):
        assert_search_parity(star_join_query(), star_db)

    def test_chain_query_all_modes(self, chain_db):
        assert_search_parity(chain_join_query(), chain_db)

    def test_written_order_permutations_agree(self, star_db):
        """Any left-deep written order of the star produces the same result
        (and the same DP plan cardinality estimate)."""
        dims = [("dim_small", "ds"), ("dim_a", "da"),
                ("dim_c", "dc")]
        for permutation in itertools.permutations(dims):
            tree = RelationRef("fact")
            for name, attribute in permutation:
                tree = NaturalJoin(tree, RelationRef(name), on=[attribute])
            assert_search_parity(tree, star_db)

    def test_bushy_written_shape_agrees(self, chain_db):
        """A hand-written bushy chain tree is reordered correctly too."""
        left = NaturalJoin(RelationRef("stage1"), RelationRef("stage2"),
                           on=["link2"])
        right = NaturalJoin(RelationRef("stage4"), RelationRef("stage5"),
                            on=["link5"])
        bushy = NaturalJoin(NaturalJoin(left, RelationRef("stage3"),
                                        on=["link3"]),
                            right, on=["link4"])
        assert_search_parity(bushy, chain_db)

    def test_randomized_star_fragments(self, star_db):
        """Random sub-joins of the star with random selections keep parity
        (``REPRO_SWEEP_EXAMPLES`` trees, CI runs 6; the first ones are the same
        for every count)."""
        rng = random.Random(0xE13)
        dims = [("dim_small", "ds"), ("dim_a", "da"), ("dim_b", "db"),
                ("dim_c", "dc"), ("dim_rare", "dr")]
        for _ in range(STAR_FRAGMENT_TREES):
            chosen = rng.sample(dims, rng.randrange(2, 5))
            tree = RelationRef("fact")
            if rng.random() < 0.5:
                tree = Selection(tree, Comparison("da", "<=", rng.randrange(5, 25)))
            for name, attribute in chosen:
                side = RelationRef(name)
                if name == "dim_rare" and rng.random() < 0.7:
                    side = Selection(side, Comparison("kind", "=", "rare"))
                tree = NaturalJoin(tree, side, on=[attribute])
            assert_search_parity(tree, star_db)


# -- plan cache behaviour --------------------------------------------------------------


class TestPlanCache:
    def test_statistics_change_the_chosen_order_and_replan(self):
        database = star_join_database(fact_rows=600)
        query = star_join_query()
        executor = database.physical_executor
        before = database.plan(query, optimize=False)
        assert executor.cache_misses == 1
        # Without statistics the default constants see no reason to prefer the
        # selective dimension; ANALYZE flips the chosen order.
        assert "(fact ⋈ σ(dim_rare))" not in before.join_search[0].order
        database.analyze()
        after = database.plan(query, optimize=False)
        assert executor.cache_misses == 2, "stats version must re-key the cache"
        assert "(fact ⋈ σ(dim_rare))" in after.join_search[0].order
        assert after.join_search[0].order != before.join_search[0].order
        # Identical results either way.
        assert before.execute(database).tuples == after.execute(database).tuples

    def test_one_plan_call_derives_each_node_once(self, star_db, monkeypatch):
        """The planning pass keeps each node's estimate and keys: on the
        6-way star every estimator and every key rule runs once per node (the
        joins the search composes are its estimates, never the model's)."""
        from collections import Counter

        from repro.algebra import expressions
        from repro.optimizer import cost

        estimated, keyed = Counter(), Counter()
        for cls, rule in list(cost.ESTIMATORS.items()):
            def estimator(model, node, rule=rule):
                estimated[node] += 1
                return rule(model, node)
            monkeypatch.setitem(cost.ESTIMATORS, cls, estimator)
        for cls in vars(expressions).values():
            if isinstance(cls, type) and "keys_from" in vars(cls):
                def keys_from(node, children, catalog, rule=vars(cls)["keys_from"]):
                    keyed[node] += 1
                    return rule(node, children, catalog)
                monkeypatch.setattr(cls, "keys_from", keys_from)
        plan = PhysicalPlanner(star_db).plan(star_join_query())
        assert plan.join_search and len(estimated) >= 6 and len(keyed) >= 6
        assert set(estimated.values()) == set(keyed.values()) == {1}

    def test_planning_constants_are_not_options(self, star_db):
        """Only the join-order search mode (``"dp"`` or ``"none"``) is a
        planning option; the other planning decisions — the batch size among
        them — are the planner's, and no call accepts them."""
        query = star_join_query()
        rejected = [
            lambda: Database(join_order_search="none"),
            lambda: PhysicalPlanner(index_probe_cost_factor=10_000.0),
            lambda: Planner(max_passes=1),
            lambda: PhysicalPlanner(star_db).plan(query, batch_size=8),
            lambda: PhysicalExecutor(star_db, planner=PhysicalPlanner(star_db)),
            lambda: order_joins(query, CostModel(star_db), mode="dp"),
        ]
        rejected += [lambda method=method: getattr(star_db, method)(query, batch_size=8)
                     for method in ("execute", "execute_with_report", "plan",
                                    "explain", "explain_analyze")]
        rejected += [
            lambda: star_db.query("SELECT fact_id FROM fact", batch_size=8),
            lambda: star_db.physical_executor.plan(query, batch_size=8),
            lambda: star_db.physical_executor.execute(query, batch_size=8),
            lambda: star_db.plan(query).execute(star_db, batch_size=8),
            lambda: cancel_at_every_boundary(star_db, [query], batch_size=8),
        ]
        for call in rejected:
            with pytest.raises(TypeError):
                call()

    def test_search_respects_planner_probe_cost_factor(self, star_db, monkeypatch):
        """An absurdly expensive probe factor must not change correctness; the
        search and the lowering price probes with the one factor (no
        index-probe plan can look cheap)."""
        monkeypatch.setattr("repro.optimizer.joinorder.INDEX_PROBE_COST_FACTOR", 10_000.0)
        plan = PhysicalPlanner(star_db).plan(star_join_query())
        result = plan.execute(star_db)
        naive = Evaluator(star_db).evaluate(star_join_query())
        assert result.tuples == naive.tuples

    def test_cached_plan_reexecutes_after_dml(self, star_db):
        """Reordered plans resolve relations at execution time like any other
        physical plan — DML between executions stays correct."""
        database = star_join_database(fact_rows=100)
        database.analyze()
        query = star_join_query()
        first = database.execute(query, optimize=False)
        database.table("fact").insert(
            {"fact_id": 10001, "ds": 1, "dr": 20, "da": 1, "db": 1, "dc": 1})
        second = database.execute(query, optimize=False)
        naive = Evaluator(database).evaluate(query)
        assert second.tuples == naive.tuples
        assert len(second) == len(first) + 1
