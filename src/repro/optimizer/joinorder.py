"""Cost-based join-order search over n-way natural-join trees.

The paper's flexible relations make n-way natural joins over variant fragments
the canonical workload: restoring a decomposition, or correlating a fact
relation with several dimension fragments, produces chains and stars of
:class:`~repro.algebra.expressions.NaturalJoin` nodes.  The *order* in which
those joins run is semantically free but can change the intermediate sizes —
and therefore the work — by orders of magnitude.  This module implements the
classic Selinger-style answer on top of the statistics subsystem:

1.  :func:`extract_join_graph` flattens a nested ``NaturalJoin`` tree into a
    **join graph**: the *atoms* (the non-join sub-expressions at the leaves —
    base relations, selection/guard chains, projections, whole multiway joins)
    and the **equi-join edges** between atoms whose attribute universes
    overlap.  Guards and selections stay glued to their atom, so pushdown is
    unaffected by reordering.
2.  :func:`order_joins` searches the reordering space:

    * ``"dp"`` (the default) — bottom-up dynamic programming over *connected*
      subsets of atoms, bitset-keyed, producing **bushy** trees.  Every
      connected subset is planned once; each split of a subset into two
      connected, edge-linked halves is priced and only the cheapest plan per
      subset survives.  Cross-products are never enumerated (the extractor
      guarantees a connected graph; a disconnected one refuses to reorder).
      Above :data:`DEFAULT_DP_THRESHOLD` relations (10, where 3^n subset
      splits start to bite) the search silently falls back to greedy.
    * ``"greedy"`` — repeatedly joins the edge-connected pair of partial plans
      with the smallest estimated *output* cardinality: O(n³) instead of 3^n,
      and usually within a small factor of the DP plan.
    * ``"smallest"`` — the pre-search baseline, kept for benchmarking: a
      left-deep chain that starts at the smallest atom and always appends the
      smallest *input* connected to the tree so far, ignoring join
      selectivities entirely.  This is the order a planner without statistics
      on join attributes would pick (it is how MultiwayJoin fragments are
      ordered), and the E13 benchmark measures how badly it loses.

**How the estimates are derived.**  Atom cardinalities come from the existing
:class:`~repro.optimizer.cost.CostModel` — histogram/MCV selection
selectivities, variant-tag guard fractions — so a filtered atom is priced at
its post-selection size.  Each edge carries a join selectivity from
:func:`repro.stats.statistics.join_selectivity`: the NDV-overlap factor
``1/max(ndv_L, ndv_R)`` per join attribute multiplied by both sides'
variant-tag *presence* fractions (tuples lacking a join attribute can never
join — the flexible-relation twist).  The cardinality of a join of two
subsets is ``|A| · |B| · sel(cut)`` where the cut selectivity is accounted
**per crossing attribute, not per crossing edge** (:func:`_cut_selectivity`):
when one attribute connects more than two atoms the extractor materializes an
edge per carrier pair, and multiplying per edge would charge the same equality
constraint several times, collapsing the estimates of attribute cliques.  Per
attribute, the NDV factor applies once per cut (each side's NDV being the
minimum over its carriers) and each carrier's presence fraction is charged at
the cut where it first meets another carrier; for plain two-carrier attributes
this is exactly the per-edge number.  All orders agree on the root cardinality
under this accounting and differ only in intermediate sizes — exactly the
quantity the search minimizes.  The work of a join is the hash-join build+probe cost
(both input cardinalities plus the output), or the cheaper index-probe cost
``|outer| · (INDEX_PROBE_COST_FACTOR + index fan-out)`` when the inner side
is a base relation with a covering maintained hash index — the planner's
:class:`~repro.exec.operators.IndexLookupJoin` decision prices probes with the
same :func:`index_probe_cost`, so the search does not steer away from plans the
engine can execute cheaply.

**When is reordering safe?**  Natural joins over *flexible* relations drop
tuples that lack a join attribute, so reassociation is only sound when every
tree shape performs the same definedness checks.  The extractor therefore
computes each atom's **attribute universe** (every attribute a tuple of the
atom can possibly carry, from the catalog's flexible schemes) and only
reorders when each original join's ``on`` set equals the universe intersection
of its two sides — i.e. the tree is a *pure* natural join over the universes.
Under that condition the result is provably order-independent: a combination
of atom tuples survives iff all atoms pairwise agree on their commonly defined
attributes and no atom is missing an attribute that another atom's universe
shares (any tree tests both, at the nodes separating the atoms involved).
Trees with narrowed ``on`` sets, data-dependent joins (``on=None``) or
unresolvable universes keep their written order — the search degrades to a
no-op, never to a wrong plan.

:class:`JoinSearchReport` records what the search did — mode, relation count,
subsets enumerated, candidate plans priced and pruned, and the chosen order —
and is rendered by ``plan.explain()`` / ``Database.explain()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import (
    Difference,
    EmptyRelation,
    Expression,
    Extension,
    MultiwayJoin,
    NaturalJoin,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.errors import OptimizerError
from repro.model.attributes import AttributeSet, attrset
from repro.obs.feedback import (
    attribute_carriers,
    declared_attributes,
    referenced_tables,
)
from repro.optimizer.cost import CostEstimate, CostModel
from repro.stats.statistics import TableStatistics, join_selectivity

#: the default search strategy (DP below the threshold, greedy above)
DEFAULT_JOIN_SEARCH = "dp"

#: DP is exhaustive (3^n subset splits); above this many relations it falls
#: back to the O(n³) greedy search
DEFAULT_DP_THRESHOLD = 10

#: the valid ``join_order_search`` modes, in decreasing thoroughness
SEARCH_MODES = ("dp", "greedy", "smallest", "none")

#: a join tree with fewer atoms than this has nothing to reorder (2-way joins
#: are handled by the planner's build-side / index-lookup decisions)
MIN_RELATIONS = 3

#: per-edge join selectivity assumed when neither atom has base statistics
DEFAULT_EDGE_SELECTIVITY = 0.5

#: estimated cost of one index probe relative to reading one tuple in a scan
INDEX_PROBE_COST_FACTOR = 2.0


class JoinAtom:
    """One leaf of the join graph: a non-join sub-expression plus its metadata."""

    def __init__(self, index: int, expression: Expression, universe: AttributeSet,
                 estimate: CostEstimate,
                 statistics: Optional[TableStatistics] = None,
                 relation: Optional[str] = None):
        self.index = index
        self.expression = expression
        #: every attribute a tuple of this atom can possibly carry
        self.universe = universe
        #: the universe as a plain name set (hot path of the cut selectivity)
        self.universe_names = {a.name for a in universe}
        self.estimate = estimate
        #: base-table statistics when the atom is a selection/guard/projection
        #: chain over one base relation (feeds the edge selectivities)
        self.statistics = statistics
        #: the base relation name when the atom is a *bare* RelationRef — only
        #: those are candidates for index-probe pricing
        self.relation = relation
        self.label = _atom_label(expression)

    def __repr__(self) -> str:
        return "JoinAtom({}, {!r}, |U|={})".format(self.index, self.label,
                                                   len(self.universe))


class JoinEdge:
    """An equi-join edge between two atoms sharing universe attributes."""

    def __init__(self, left: int, right: int, attributes: AttributeSet):
        self.left = left
        self.right = right
        self.attributes = attributes
        #: estimated fraction of left×right pairs surviving the join on these
        #: attributes; filled in by the search from the atoms' statistics
        self.selectivity = DEFAULT_EDGE_SELECTIVITY

    def __repr__(self) -> str:
        return "JoinEdge({}-{}, on={}, sel={:.2g})".format(
            self.left, self.right, self.attributes, self.selectivity)


class JoinGraph:
    """Atoms plus equi-join edges — the input of the order search."""

    def __init__(self, atoms: Sequence[JoinAtom], edges: Sequence[JoinEdge]):
        self.atoms = list(atoms)
        self.edges = list(edges)
        #: adjacency as bitmasks: ``neighbors[i]`` has bit j set iff an edge
        #: connects atoms i and j
        self.neighbors = [0] * len(self.atoms)
        for edge in self.edges:
            self.neighbors[edge.left] |= 1 << edge.right
            self.neighbors[edge.right] |= 1 << edge.left

    def __len__(self) -> int:
        return len(self.atoms)

    def universe(self, mask: int) -> AttributeSet:
        """The attribute universe of the subset encoded by ``mask``."""
        result = AttributeSet()
        for atom in self._atoms_of(mask):
            result = result | atom.universe
        return result

    def connected(self, mask: int) -> bool:
        """Whether the subset encoded by ``mask`` is edge-connected."""
        if mask == 0:
            return False
        start = mask & -mask
        reached = start
        frontier = start
        while frontier:
            index = frontier.bit_length() - 1
            frontier &= ~(1 << index)
            expand = self.neighbors[index] & mask & ~reached
            reached |= expand
            frontier |= expand
        return reached == mask

    def crosses(self, left_mask: int, right_mask: int) -> bool:
        """Whether any edge connects the two (disjoint) subsets — O(n) bit test."""
        mask = left_mask
        while mask:
            index = (mask & -mask).bit_length() - 1
            if self.neighbors[index] & right_mask:
                return True
            mask &= mask - 1
        return False

    def crossing_attributes(self, left_mask: int, right_mask: int) -> AttributeSet:
        """Union of edge attributes between the two (disjoint) subsets."""
        result = AttributeSet()
        for edge in self.edges:
            if _crosses(edge, left_mask, right_mask):
                result = result | edge.attributes
        return result

    def _atoms_of(self, mask: int):
        for atom in self.atoms:
            if mask & (1 << atom.index):
                yield atom


class JoinSearchReport:
    """What one join-order search did; rendered by ``plan.explain()``."""

    def __init__(self, mode: str, relations: int, subsets_enumerated: int,
                 plans_considered: int, plans_pruned: int, order: str,
                 estimated_rows: float, estimated_cost: float,
                 fallback: bool = False):
        self.mode = mode
        self.relations = relations
        #: connected subsets that received a plan (DP) / partial plans built (greedy)
        self.subsets_enumerated = subsets_enumerated
        #: candidate (left, right) splits that were priced
        self.plans_considered = plans_considered
        #: priced candidates discarded for a cheaper plan of the same subset
        self.plans_pruned = plans_pruned
        #: the chosen join order, innermost parentheses first
        self.order = order
        self.estimated_rows = estimated_rows
        self.estimated_cost = estimated_cost
        #: True when ``mode == "dp"`` was requested but the relation count
        #: exceeded the threshold and greedy ran instead
        self.fallback = fallback

    def describe(self) -> str:
        """One-line summary for explain output."""
        mode = self.mode + ("(fallback)" if self.fallback else "")
        return ("join-order[{}]: relations={} subsets={} considered={} "
                "pruned={} est_rows={:.1f} est_cost={:.1f}\n  order: {}").format(
                    mode, self.relations, self.subsets_enumerated,
                    self.plans_considered, self.plans_pruned,
                    self.estimated_rows, self.estimated_cost, self.order)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode, "relations": self.relations,
            "subsets_enumerated": self.subsets_enumerated,
            "plans_considered": self.plans_considered,
            "plans_pruned": self.plans_pruned, "order": self.order,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost, "fallback": self.fallback,
        }

    def __repr__(self) -> str:
        return "JoinSearchReport({})".format(self.as_dict())


class JoinOrderResult:
    """The reordered expression tree plus everything the planner needs.

    ``estimates`` maps ``id(node)`` of every node of the new tree (and of the
    original root) to the search's :class:`CostEstimate`, so the planner's
    per-node ``est_rows`` / ``est_cost`` annotations stay honest — the default
    cost model cannot price composed joins (it has no base statistics for
    them), the search can.  ``join_nodes`` lists the NaturalJoin nodes the
    search created, so the planner skips re-searching them.
    """

    def __init__(self, expression: Expression, estimates: Dict[int, CostEstimate],
                 join_nodes: List[Expression], report: JoinSearchReport):
        self.expression = expression
        self.estimates = estimates
        self.join_nodes = join_nodes
        self.report = report


class _Plan:
    """A partial plan over one atom subset during the search."""

    __slots__ = ("mask", "cardinality", "cost", "bound", "left", "right", "atom")

    def __init__(self, mask, cardinality, cost, bound, left=None, right=None,
                 atom=None):
        self.mask = mask
        self.cardinality = cardinality
        self.cost = cost
        self.bound = bound
        self.left = left
        self.right = right
        self.atom = atom


# -- join-graph extraction ---------------------------------------------------------------


def _atom_label(expression: Expression) -> str:
    """A compact label for the chosen-order rendering (``σ(name)``, ``τ(name)``…)."""
    if isinstance(expression, RelationRef):
        return expression.name
    if isinstance(expression, Selection):
        return "σ({})".format(_atom_label(expression.child))
    if isinstance(expression, TypeGuardNode):
        return "τ({})".format(_atom_label(expression.child))
    if isinstance(expression, Projection):
        return "π({})".format(_atom_label(expression.child))
    return expression.operator


def attribute_universe(expression: Expression, source) -> Optional[AttributeSet]:
    """Every attribute a result tuple of ``expression`` can possibly carry.

    ``None`` when a base relation's scheme cannot be resolved — the safety
    check below then refuses to reorder.  The computed universe may be a loose
    superset of what the data exhibits; that is sufficient for the
    order-independence argument (see the module docstring) and keeps the check
    purely static.
    """
    if isinstance(expression, RelationRef):
        return declared_attributes(source, expression.name)
    if isinstance(expression, EmptyRelation):
        return AttributeSet()
    if isinstance(expression, (Selection, TypeGuardNode)):
        return attribute_universe(expression.child, source)
    if isinstance(expression, Projection):
        child = attribute_universe(expression.child, source)
        return None if child is None else child & expression.attributes
    if isinstance(expression, Extension):
        child = attribute_universe(expression.child, source)
        return None if child is None else child | attrset(expression.attribute)
    if isinstance(expression, Rename):
        child = attribute_universe(expression.child, source)
        if child is None:
            return None
        return attrset(expression.mapping.get(a.name, a.name) for a in child)
    if isinstance(expression, Difference):
        return attribute_universe(expression.left, source)
    if isinstance(expression, (Union, Product, NaturalJoin, MultiwayJoin)):
        result = AttributeSet()
        for child in expression.children:
            child_universe = attribute_universe(child, source)
            if child_universe is None:
                return None
            result = result | child_universe
        return result
    return None


def _flatten(expression: Expression, atoms: List[Expression],
             joins: List[NaturalJoin]) -> None:
    """Collect the atoms and internal join nodes of a NaturalJoin tree."""
    if (isinstance(expression, NaturalJoin) and expression.on is not None
            and len(expression.on)):
        joins.append(expression)
        _flatten(expression.left, atoms, joins)
        _flatten(expression.right, atoms, joins)
    else:
        atoms.append(expression)


def extract_join_graph(expression: Expression, source) -> Optional[JoinGraph]:
    """Flatten a nested NaturalJoin tree into a :class:`JoinGraph`.

    Returns ``None`` — *keep the written order* — when the tree has fewer than
    :data:`MIN_RELATIONS` atoms, when any atom's attribute universe cannot be
    resolved statically, when any join's ``on`` set differs from the universe
    intersection of its sides (a narrowed or widened join is not a pure natural
    join, so reordering could change results or definedness checks), or when
    the resulting graph is not connected (reordering would have to invent
    cross-products the original tree does not contain).
    """
    atom_expressions: List[Expression] = []
    join_nodes: List[NaturalJoin] = []
    _flatten(expression, atom_expressions, join_nodes)
    if len(atom_expressions) < MIN_RELATIONS:
        return None

    universes: Dict[int, AttributeSet] = {}
    for atom in atom_expressions:
        universe = attribute_universe(atom, source)
        if universe is None:
            return None
        universes[id(atom)] = universe

    # Safety: every written join must be a *pure* natural join — its ``on``
    # attributes exactly the universe intersection of its sides.
    def subtree_universe(node: Expression) -> AttributeSet:
        if id(node) in universes:
            return universes[id(node)]
        assert isinstance(node, NaturalJoin)
        return subtree_universe(node.left) | subtree_universe(node.right)

    for join in join_nodes:
        intersection = subtree_universe(join.left) & subtree_universe(join.right)
        if attrset(join.on) != intersection:
            return None

    atoms = [JoinAtom(index, atom, universes[id(atom)],
                      CostEstimate(0.0, 0.0))
             for index, atom in enumerate(atom_expressions)]
    edges = []
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            shared = atoms[i].universe & atoms[j].universe
            if shared:
                edges.append(JoinEdge(i, j, shared))
    graph = JoinGraph(atoms, edges)
    if not graph.connected((1 << len(atoms)) - 1):
        return None
    return graph


# -- pricing -----------------------------------------------------------------------------


def _crosses(edge: JoinEdge, left_mask: int, right_mask: int) -> bool:
    left_bit, right_bit = 1 << edge.left, 1 << edge.right
    return bool((left_mask & left_bit and right_mask & right_bit)
                or (left_mask & right_bit and right_mask & left_bit))


def _price_atoms(graph: JoinGraph, cost_model: CostModel, memo: Dict) -> None:
    """Fill in atom estimates/statistics and edge selectivities from the model."""
    for atom in graph.atoms:
        atom.estimate = cost_model.estimate(atom.expression, _memo=memo)
        atom.statistics = cost_model.base_statistics(atom.expression)
        if isinstance(atom.expression, RelationRef):
            atom.relation = atom.expression.name
    for edge in graph.edges:
        left, right = graph.atoms[edge.left], graph.atoms[edge.right]
        if left.statistics is not None and right.statistics is not None:
            edge.selectivity = join_selectivity(left.statistics, right.statistics,
                                                edge.attributes)
        else:
            edge.selectivity = DEFAULT_EDGE_SELECTIVITY


def index_probe_cost(source, relation: Optional[str], attributes,
                     outer_rows: float) -> Optional[float]:
    """The work of probing ``relation``'s index once per outer row.

    ``outer_rows · (INDEX_PROBE_COST_FACTOR + fan-out)``, the fan-out being the
    average bucket size of the maintained hash index covering ``attributes``
    (:meth:`repro.engine.database.Table.index_for`) — the partners each probe
    examines.  ``None`` when ``relation`` is not a base relation the source
    resolves or no index is covered by the join attributes.
    """
    if relation is None or not hasattr(source, "relation"):
        return None
    try:
        table = source.relation(relation)
    except Exception:
        return None
    index_for = getattr(table, "index_for", None)
    index = index_for(attributes) if index_for is not None else None
    if index is None:
        return None
    bucket_size = getattr(index, "average_bucket_size", None)
    fan_out = 1.0 if bucket_size is None else max(1.0, bucket_size())
    return outer_rows * (INDEX_PROBE_COST_FACTOR + fan_out)


def _cut_selectivity(graph: JoinGraph, left_mask: int, right_mask: int,
                     cost_model: Optional[CostModel] = None) -> Optional[float]:
    """Per-**attribute** selectivity of the cut between two disjoint subsets.

    Multiplying per crossing *edge* over-reduces the estimate on attribute
    cliques: when one attribute connects more than two atoms, the extractor
    creates an edge for every carrier pair, so a single equality constraint is
    charged once per edge (``1/ndv`` squared or worse) and its presence
    fractions are double-counted.  This accounts per attribute instead:

    * the NDV-overlap factor ``1/max(ndv_L, ndv_R)`` is applied **once** per
      crossing attribute, where each side's NDV is the *minimum* over its
      carriers (the side's internal joins on the attribute already reduced its
      distinct count);
    * a carrier atom's *presence* fraction for an attribute is charged only at
      the cut where it first meets another carrier of that attribute (i.e.
      when it is its side's only carrier), and **marginally per attribute**:
      every (atom, attribute) pair is charged at exactly one cut of any join
      tree, which keeps the root-cardinality estimate independent of the join
      order — the invariant the DP relies on.  (Charging an atom's attributes
      jointly would price correlated presence better at a single cut, but a
      tree that splits the same charges across two cuts would price them
      marginally, making the root estimate depend on the association.)

    For a plain two-carrier single-attribute edge this reduces exactly to the
    per-edge number, so non-clique graphs (stars, chains) price identically.
    Returns ``None`` when any involved atom lacks base statistics — the caller
    then falls back to the per-edge default-selectivity product.

    An **observed** edge selectivity from the cost model's feedback store
    (recorded off an executed mis-estimated join over the same attribute and
    carrier tables) takes precedence over the NDV math for its attribute —
    and, unlike statistics, survives the carriers' ANALYZE data going stale.
    This is how one badly-ordered execution re-orders the next plan: the
    observed fraction prices candidate cuts the search never executed.
    """
    feedback = getattr(cost_model, "feedback", None) if cost_model else None
    feedback_version = None
    if feedback is not None:
        feedback_version = getattr(cost_model.statistics, "version", None)
    names = sorted({attribute.name for edge in graph.edges
                    if _crosses(edge, left_mask, right_mask)
                    for attribute in edge.attributes})
    selectivity = 1.0
    for name in names:
        if feedback_version is not None:
            cost_model.note_edges(name, feedback_version)
        if feedback_version is not None and len(feedback):
            tables = set()
            for atom in graph._atoms_of(left_mask | right_mask):
                if name in atom.universe_names:
                    tables |= referenced_tables(atom.expression)
            carriers = attribute_carriers(cost_model.source, tables, name)
            if carriers:
                observed = feedback.lookup_edge(name, carriers,
                                                feedback_version)
                if observed is not None:
                    selectivity *= observed
                    continue
        side_ndvs = []
        for mask in (left_mask, right_mask):
            carriers = [atom for atom in graph._atoms_of(mask)
                        if name in atom.universe_names]
            if any(atom.statistics is None for atom in carriers):
                return None
            if not carriers:
                return None
            if len(carriers) == 1:
                selectivity *= carriers[0].statistics.guard_selectivity([name])
            side_ndvs.append(min(atom.statistics.ndv(name) for atom in carriers))
        selectivity /= float(max(side_ndvs[0], side_ndvs[1], 1))
    return max(0.0, min(1.0, selectivity))


def _join_plans(graph: JoinGraph, cost_model: CostModel,
                left: _Plan, right: _Plan) -> _Plan:
    """Price the join of two disjoint partial plans (hash or index probe)."""
    selectivity = _cut_selectivity(graph, left.mask, right.mask, cost_model)
    if selectivity is None:
        # Statistics-free atoms: the per-edge default selectivities apply.
        selectivity = 1.0
        for edge in graph.edges:
            if _crosses(edge, left.mask, right.mask):
                selectivity *= edge.selectivity
    cardinality = left.cardinality * right.cardinality * selectivity
    bound = left.bound * right.bound
    join_work = left.cardinality + right.cardinality + cardinality
    # An index probe replaces scanning a single-atom inner side when the inner
    # base relation has a covering maintained index and the outer side is small.
    for outer, inner in ((left, right), (right, left)):
        if inner.atom is None:
            continue
        probe_work = index_probe_cost(
            cost_model.source, graph.atoms[inner.atom].relation,
            graph.crossing_attributes(outer.mask, inner.mask), outer.cardinality)
        if probe_work is None:
            continue
        join_work = min(join_work, probe_work + cardinality)
    return _Plan(left.mask | right.mask, cardinality,
                 left.cost + right.cost + join_work, bound, left, right)


def _leaf_plans(graph: JoinGraph) -> Dict[int, _Plan]:
    plans = {}
    for atom in graph.atoms:
        estimate = atom.estimate
        plans[1 << atom.index] = _Plan(1 << atom.index, estimate.cardinality,
                                       estimate.work, estimate.bound,
                                       atom=atom.index)
    return plans


# -- search strategies -------------------------------------------------------------------


def _search_dp(graph: JoinGraph, cost_model: CostModel):
    """Bottom-up DP over connected subsets (bushy trees, bitset-keyed memo)."""
    n = len(graph)
    best = _leaf_plans(graph)
    considered = pruned = 0
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:  # singleton, already seeded
            continue
        # Enumerate proper submask splits; (sub, rest) and (rest, sub) describe
        # the same commutative join, so only the half with the lowest atom in
        # ``sub`` is priced.
        lowest = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub & lowest:
                left_plan = best.get(sub)
                right_plan = best.get(rest)
                if (left_plan is not None and right_plan is not None
                        and graph.crosses(sub, rest)):
                    candidate = _join_plans(graph, cost_model, left_plan,
                                            right_plan)
                    considered += 1
                    incumbent = best.get(mask)
                    if incumbent is None or candidate.cost < incumbent.cost:
                        if incumbent is not None:
                            pruned += 1
                        best[mask] = candidate
                    else:
                        pruned += 1
            sub = (sub - 1) & mask
    full = (1 << n) - 1
    return best.get(full), len(best), considered, pruned


def _search_greedy(graph: JoinGraph, cost_model: CostModel):
    """Greedy bushy search: always join the pair with the smallest output."""
    plans = list(_leaf_plans(graph).values())
    considered = pruned = 0
    subsets = len(plans)
    while len(plans) > 1:
        best_pair = None
        best_candidate = None
        for i in range(len(plans)):
            for j in range(i + 1, len(plans)):
                if not graph.crosses(plans[i].mask, plans[j].mask):
                    continue
                candidate = _join_plans(graph, cost_model, plans[i], plans[j])
                considered += 1
                key = (candidate.cardinality, candidate.cost)
                if best_candidate is None or key < (best_candidate.cardinality,
                                                    best_candidate.cost):
                    if best_candidate is not None:
                        pruned += 1
                    best_pair = (i, j)
                    best_candidate = candidate
                else:
                    pruned += 1
        if best_candidate is None:  # defensive: disconnected graph
            return None, subsets, considered, pruned
        i, j = best_pair
        plans = [plan for k, plan in enumerate(plans) if k not in (i, j)]
        plans.append(best_candidate)
        subsets += 1
    return plans[0], subsets, considered, pruned


def _search_smallest(graph: JoinGraph, cost_model: CostModel):
    """The pre-search baseline: left-deep, smallest connected *input* first."""
    leaves = _leaf_plans(graph)
    remaining = sorted(leaves.values(), key=lambda plan: plan.cardinality)
    current = remaining.pop(0)
    considered = 0
    subsets = len(graph)
    while remaining:
        index = next((k for k, plan in enumerate(remaining)
                      if graph.crosses(current.mask, plan.mask)), None)
        if index is None:  # defensive: disconnected graph
            return None, subsets, considered, 0
        current = _join_plans(graph, cost_model, current, remaining.pop(index))
        considered += 1
        subsets += 1
    return current, subsets, considered, 0


# -- result construction -----------------------------------------------------------------


def _build_expression(graph: JoinGraph, plan: _Plan,
                      estimates: Dict[int, CostEstimate],
                      join_nodes: List[Expression]) -> Tuple[Expression, str]:
    """Rebuild the ordered NaturalJoin tree and seed the estimate memo."""
    if plan.atom is not None:
        atom = graph.atoms[plan.atom]
        estimates[id(atom.expression)] = atom.estimate
        return atom.expression, atom.label
    left_expr, left_label = _build_expression(graph, plan.left, estimates, join_nodes)
    right_expr, right_label = _build_expression(graph, plan.right, estimates, join_nodes)
    on = graph.universe(plan.left.mask) & graph.universe(plan.right.mask)
    node = NaturalJoin(left_expr, right_expr, on=on)
    estimates[id(node)] = CostEstimate(plan.cardinality, plan.cost, bound=plan.bound)
    join_nodes.append(node)
    return node, "({} ⋈ {})".format(left_label, right_label)


def order_joins(expression: Expression, cost_model: CostModel,
                mode: str = DEFAULT_JOIN_SEARCH, memo: Optional[Dict] = None,
                tracer=None) -> Optional[JoinOrderResult]:
    """Search a join order for a nested NaturalJoin tree.

    Returns ``None`` when the tree is not reorderable (see
    :func:`extract_join_graph`) or ``mode == "none"``; otherwise a
    :class:`JoinOrderResult` whose expression is semantically equivalent to the
    input with the joins re-associated into the chosen order.

    ``tracer`` (a :class:`repro.obs.trace.Tracer` or ``None``) records the
    search as a ``join-order-search`` span carrying the report's numbers.
    """
    if mode == "none":
        return None
    if mode not in SEARCH_MODES:
        raise OptimizerError("unknown join_order_search mode {!r}; use one of {}"
                             .format(mode, "/".join(SEARCH_MODES)))
    source = cost_model.source
    graph = extract_join_graph(expression, source)
    if graph is None:
        return None

    span = (tracer.span("join-order-search", mode=mode)
            if tracer is not None else None)
    if span is not None:
        span.__enter__()
    try:
        _price_atoms(graph, cost_model, memo if memo is not None else {})

        fallback = False
        effective = mode
        if mode == "dp" and len(graph) > DEFAULT_DP_THRESHOLD:
            effective = "greedy"
            fallback = True
        if effective == "dp":
            search = _search_dp
        elif effective == "greedy":
            search = _search_greedy
        else:
            search = _search_smallest
        plan, subsets, considered, pruned = search(graph, cost_model)
        if plan is None:
            return None

        estimates: Dict[int, CostEstimate] = {}
        join_nodes: List[Expression] = []
        ordered, order = _build_expression(graph, plan, estimates, join_nodes)
        # The original root prices identically to the reordered root, so the
        # planner's annotation of the node it was handed stays honest too.
        estimates[id(expression)] = estimates[id(ordered)]
        report = JoinSearchReport(effective, len(graph), subsets, considered, pruned,
                                  order, plan.cardinality, plan.cost,
                                  fallback=fallback)
        if span is not None:
            span.set(**report.as_dict())
        return JoinOrderResult(ordered, estimates, join_nodes, report)
    finally:
        if span is not None:
            span.__exit__(None, None, None)
