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
    and, for every attribute that two or more atoms' universes share, the
    bitmask of its **carrier** atoms.  Two atoms are adjacent when one mask
    holds both.  Guards and selections stay glued to their atom, so pushdown
    is unaffected by reordering.
2.  :func:`order_joins` searches the reordering space by bottom-up dynamic
    programming over *connected* subsets of atoms, bitset-keyed, producing
    **bushy** trees.  Every connected subset is planned once; each split of a
    subset into two connected, adjacent halves is priced and only the
    cheapest plan per subset survives.  Cross-products are never enumerated
    (the extractor guarantees a connected graph; a disconnected one refuses to
    reorder).  Above :data:`DEFAULT_DP_THRESHOLD` relations (10, where 3^n
    subset splits start to bite) the search declines the tree, which keeps
    its written order like any tree it cannot reorder (the planner still
    searches the sub-joins it lowers).  The planner's
    ``join_order_search="none"`` skips the search; E13 measures the written
    order against it.

**How the estimates are derived.**  Atom cardinalities come from the existing
:class:`~repro.optimizer.cost.CostModel` — histogram/MCV selection
selectivities, variant-tag guard fractions — so a filtered atom is priced at
its post-selection size.  Once per search, :func:`_price_atoms` tabulates
each carrier's variant-tag *presence* fraction and NDV per shared attribute
(tuples lacking a join attribute can never join — the flexible-relation
twist).  The cardinality of a join of two subsets is ``|A| · |B| · sel(cut)``
where the cut selectivity is accounted **per crossing attribute**
(:func:`_cut_selectivity`), an attribute crossing the cut when its carrier
mask meets both sides: the NDV-overlap factor ``1/max(ndv_L, ndv_R)`` applies
once per cut (each side's NDV being the minimum over its carriers) and each
carrier's presence fraction is charged at the cut where it first meets
another carrier.  Charging per adjacent pair instead would charge an
attribute that connects more than two atoms several times, collapsing the
estimates of attribute cliques; for plain two-carrier attributes the two
agree, and each pair's :func:`repro.stats.statistics.join_selectivity` is the
fallback when an atom lacks statistics.  All orders agree on the root cardinality
under this accounting and differ only in intermediate sizes — exactly the
quantity the search minimizes.  The work of a join is the hash-join build+probe cost
(both input cardinalities plus the output), or the cheaper index-probe cost
``|outer| · (INDEX_PROBE_COST_FACTOR + index fan-out)`` when the inner side
is a base relation, bare or under a selection/guard chain, with a covering
maintained hash index — the planner's
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

:class:`JoinSearchReport` records what the search did — relation count,
subsets enumerated, candidate plans priced and pruned, and the chosen order —
and is rendered by ``plan.explain()`` / ``Database.explain()``.  Within a
planning pass the search hands the estimate of every join it composes to the
cost model (:meth:`~repro.optimizer.cost.CostModel.remember`), so the
planner's ``est_rows`` / ``est_cost`` annotations of the reordered tree are
the search's numbers: the model alone has no statistics for composed joins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import (
    Expression,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
    dispatch,
)
from repro.model.attributes import AttributeSet, attrset
from repro.obs.trace import NOOP_SPAN
from repro.optimizer.cost import CostEstimate, CostModel
from repro.stats.statistics import TableStatistics, join_selectivity

#: DP is exhaustive (3^n subset splits); above this many relations the written
#: order is kept
DEFAULT_DP_THRESHOLD = 10

#: a join tree with fewer atoms than this has nothing to reorder (2-way joins
#: are handled by the planner's build-side / index-lookup decisions)
MIN_RELATIONS = 3

#: join selectivity assumed for a pair of adjacent atoms when either atom lacks
#: base statistics
DEFAULT_EDGE_SELECTIVITY = 0.5

#: estimated cost of one index probe relative to reading one tuple in a scan
INDEX_PROBE_COST_FACTOR = 2.0


class JoinAtom:
    """One leaf of the join graph: a non-join sub-expression plus its metadata."""

    def __init__(self, index: int, expression: Expression, universe: AttributeSet):
        self.index = index
        self.expression = expression
        #: every attribute a tuple of this atom can possibly carry
        self.universe = universe
        #: filled in by the search from the cost model
        self.estimate = CostEstimate(0.0, 0.0)
        #: the base relation name when the atom is a RelationRef, bare or under
        #: a selection/guard chain (:func:`scanned_relation`) — only those are
        #: candidates for index-probe pricing, as only those lower to a scan an
        #: index lookup join can filter its partners through
        self.relation = scanned_relation(expression)
        self.label = _atom_label(expression)

    def __repr__(self) -> str:
        return "JoinAtom({}, {!r}, |U|={})".format(self.index, self.label,
                                                   len(self.universe))


def _bits(mask: int):
    """The atom indexes of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class JoinGraph:
    """Atoms plus the carrier mask of each shared attribute — the input of the
    order search."""

    def __init__(self, atoms: Sequence[JoinAtom]):
        self.atoms = list(atoms)
        carriers: Dict[str, int] = {}
        for atom in self.atoms:
            for name in atom.universe.names:
                carriers[name] = carriers.get(name, 0) | 1 << atom.index
        #: shared attribute name -> bitmask of the atoms whose universe holds
        #: it, in name order (a name only one atom carries joins nothing)
        self.carriers = {name: mask for name, mask in sorted(carriers.items())
                         if mask & (mask - 1)}
        #: adjacency as bitmasks: ``neighbors[i]`` has bit j set iff atoms i
        #: and j share an attribute
        self.neighbors = [0] * len(self.atoms)
        for mask in self.carriers.values():
            for index in _bits(mask):
                self.neighbors[index] |= mask & ~(1 << index)
        #: filled in by :func:`_price_atoms`: per shared name, each carrier's
        #: ``(presence fraction, ndv)``, ``None`` without base statistics
        self.carrier_statistics: Dict[str, Dict[int, Optional[Tuple[float, int]]]] = {}
        #: filled in by :func:`_price_atoms`: the fallback join selectivity of
        #: each adjacent pair, keyed by the pair's mask, in ``(i, j)`` order
        self.pair_selectivity: Dict[int, float] = {}
        #: filled in by :func:`_cut_selectivity`: per (shared name, mask of
        #: the carriers a cut joins), the feedback store's key of that edge
        #: (:meth:`~repro.optimizer.cost.CostModel.edge_key`), derived once
        #: per search
        self.edge_keys: Dict[Tuple[str, int], Optional[tuple]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def connected(self, mask: int) -> bool:
        """Whether the subset encoded by ``mask`` is connected."""
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
        """Whether an atom of one (disjoint) subset is adjacent to one of the
        other — O(n) bit test."""
        return any(self.neighbors[index] & right_mask for index in _bits(left_mask))

    def shared(self, left_mask: int, right_mask: int) -> List[str]:
        """The attribute names carried on both sides of two disjoint subsets,
        in name order — the ``on`` of their natural join."""
        return [name for name, mask in self.carriers.items()
                if mask & left_mask and mask & right_mask]


class JoinSearchReport:
    """What one join-order search did; rendered by ``plan.explain()``."""

    def __init__(self, relations: int, subsets_enumerated: int,
                 plans_considered: int, plans_pruned: int, order: str,
                 estimated_rows: float, estimated_cost: float):
        self.relations = relations
        #: connected subsets that received a plan
        self.subsets_enumerated = subsets_enumerated
        #: candidate (left, right) splits that were priced
        self.plans_considered = plans_considered
        #: priced candidates discarded for a cheaper plan of the same subset
        self.plans_pruned = plans_pruned
        #: the chosen join order, innermost parentheses first
        self.order = order
        self.estimated_rows = estimated_rows
        self.estimated_cost = estimated_cost

    def describe(self) -> str:
        """One-line summary for explain output."""
        return ("join-order[dp]: relations={} subsets={} considered={} "
                "pruned={} est_rows={:.1f} est_cost={:.1f}\n  order: {}").format(
                    self.relations, self.subsets_enumerated,
                    self.plans_considered, self.plans_pruned,
                    self.estimated_rows, self.estimated_cost, self.order)

    def as_dict(self) -> dict:
        return {
            "relations": self.relations,
            "subsets_enumerated": self.subsets_enumerated,
            "plans_considered": self.plans_considered,
            "plans_pruned": self.plans_pruned, "order": self.order,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
        }

    def __repr__(self) -> str:
        return "JoinSearchReport({})".format(self.as_dict())


class JoinOrderResult:
    """The reordered expression tree plus everything the planner needs.

    ``join_nodes`` lists the NaturalJoin nodes the search created, so the
    planner skips re-searching them.  (Their estimates, and the original
    root's, the search has handed to the cost model for the planning pass.)
    """

    def __init__(self, expression: Expression, join_nodes: List[Expression],
                 report: JoinSearchReport):
        self.expression = expression
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


#: the mark of each chain operator in an atom's label
_ATOM_MARKS = {Selection: "σ", TypeGuardNode: "τ", Projection: "π"}


def _atom_label(expression: Expression) -> str:
    """A compact label for the chosen-order rendering (``σ(name)``, ``τ(name)``…)."""
    if isinstance(expression, RelationRef):
        return expression.name
    mark = dispatch(_ATOM_MARKS, expression)
    if mark is None:
        return expression.operator
    return "{}({})".format(mark, _atom_label(expression.child))


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

    universes: Dict[Expression, AttributeSet] = {}
    for atom in atom_expressions:
        universe = atom.attribute_universe(source)
        if universe is None:
            return None
        universes[atom] = universe

    # Safety: every written join must be a *pure* natural join — its ``on``
    # attributes exactly the universe intersection of its sides.
    def subtree_universe(node: Expression) -> AttributeSet:
        if node not in universes:
            assert isinstance(node, NaturalJoin)
            universes[node] = subtree_universe(node.left) | subtree_universe(node.right)
        return universes[node]

    for join in join_nodes:
        intersection = subtree_universe(join.left) & subtree_universe(join.right)
        if attrset(join.on) != intersection:
            return None

    graph = JoinGraph([JoinAtom(index, atom, universes[atom])
                       for index, atom in enumerate(atom_expressions)])
    if not graph.connected((1 << len(graph)) - 1):
        return None
    return graph


# -- pricing -----------------------------------------------------------------------------


def _price_atoms(graph: JoinGraph, cost_model: CostModel) -> None:
    """Fill in the atom estimates and the graph's two pricing tables from the
    model: each shared attribute's carrier statistics and each adjacent pair's
    fallback selectivity (:data:`DEFAULT_EDGE_SELECTIVITY` when either atom
    lacks statistics)."""
    statistics: List[Optional[TableStatistics]] = []
    for atom in graph.atoms:
        atom.estimate = cost_model.estimate(atom.expression)
        statistics.append(cost_model.base_statistics(atom.expression))
    graph.carrier_statistics = {
        name: {index: None if statistics[index] is None else
               (statistics[index].guard_selectivity([name]),
                statistics[index].ndv(name))
               for index in _bits(mask)}
        for name, mask in graph.carriers.items()}
    graph.pair_selectivity = {
        1 << i | 1 << j: DEFAULT_EDGE_SELECTIVITY
        if statistics[i] is None or statistics[j] is None
        else join_selectivity(statistics[i], statistics[j],
                              graph.shared(1 << i, 1 << j))
        for i in range(len(graph))
        for j in _bits(graph.neighbors[i] >> (i + 1) << (i + 1))}  # j > i


def scanned_relation(expression: Expression) -> Optional[str]:
    """The base relation under a chain of selections and type guards — the
    chain lowering collapses into one scan — or ``None`` for any other shape."""
    while isinstance(expression, (Selection, TypeGuardNode)):
        expression = expression.child
    return expression.name if isinstance(expression, RelationRef) else None


def index_probe_cost(source, relation: Optional[str], attributes,
                     outer_rows: float) -> Optional[float]:
    """The work of probing ``relation``'s index once per outer row.

    ``outer_rows · (INDEX_PROBE_COST_FACTOR + fan-out)``, the fan-out being the
    average bucket size of the maintained hash index covering ``attributes``
    (:meth:`repro.engine.database.Table.index_for`) — the partners each probe
    examines.  ``None`` when ``relation`` is not a base relation the source
    resolves or no index is covered by the join attributes.
    """
    index = None if relation is None else source.index_for(relation, attributes)
    if index is None:
        return None
    fan_out = max(1.0, index.average_bucket_size())
    return outer_rows * (INDEX_PROBE_COST_FACTOR + fan_out)


def _cut_selectivity(graph: JoinGraph, left_mask: int, right_mask: int,
                     cost_model: CostModel) -> Optional[float]:
    """Per-**attribute** selectivity of the cut between two disjoint subsets.

    An attribute crosses the cut when its carrier mask meets both sides.
    Multiplying per adjacent *pair* of atoms would over-reduce the estimate on
    attribute cliques: when one attribute connects more than two atoms, a
    single equality constraint would be charged once per crossing pair
    (``1/ndv`` squared or worse) and its presence fractions double-counted.
    This accounts per attribute instead, in name order:

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

    For a plain two-carrier single-attribute pair this reduces exactly to the
    pair's :func:`~repro.stats.statistics.join_selectivity`, so non-clique
    graphs (stars, chains) price identically.  Both factors are read from the
    graph's ``carrier_statistics``.  Returns ``None`` when any involved atom
    lacks base statistics — the caller then falls back to the product of the
    crossing pairs' ``pair_selectivity``.

    An **observed** edge selectivity from the cost model's feedback store
    (recorded off an executed mis-estimated join over the same attribute and
    carrier tables) takes precedence over the NDV math for its attribute —
    and, unlike the aged value statistics, it describes the data as it is now.
    This is how one badly-ordered execution re-orders the next plan: the
    observed fraction prices candidate cuts the search never executed.  The
    edge's key is derived once per (attribute, carriers joined) and search;
    the store is asked per cut, so its hits and recency are those of the
    cuts priced.
    """
    atoms = graph.atoms
    selectivity = 1.0
    for name, carriers in graph.carriers.items():
        left, right = carriers & left_mask, carriers & right_mask
        if not (left and right):
            continue
        cut = (name, left | right)
        if cut not in graph.edge_keys:
            graph.edge_keys[cut] = cost_model.edge_key(
                name, (atoms[index].expression for index in _bits(cut[1])))
        edge = graph.edge_keys[cut]
        observed = None if edge is None else cost_model.feedback.lookup_edge(*edge)
        if observed is not None:
            selectivity *= observed
            continue
        statistics = graph.carrier_statistics[name]
        side_ndvs = []
        for side in (left, right):
            entries = [statistics[index] for index in _bits(side)]
            if any(entry is None for entry in entries):
                return None
            if len(entries) == 1:
                selectivity *= entries[0][0]
            side_ndvs.append(min(ndv for _presence, ndv in entries))
        selectivity /= float(max(side_ndvs[0], side_ndvs[1], 1))
    return max(0.0, min(1.0, selectivity))


def _join_plans(graph: JoinGraph, cost_model: CostModel,
                left: _Plan, right: _Plan) -> _Plan:
    """Price the join of two disjoint partial plans (hash or index probe)."""
    selectivity = _cut_selectivity(graph, left.mask, right.mask, cost_model)
    if selectivity is None:
        # Statistics-free atoms: the crossing pairs' fallbacks apply.
        selectivity = 1.0
        for pair, pair_selectivity in graph.pair_selectivity.items():
            if pair & left.mask and pair & right.mask:
                selectivity *= pair_selectivity
    cardinality = left.cardinality * right.cardinality * selectivity
    bound = left.bound * right.bound
    join_work = left.cardinality + right.cardinality + cardinality
    # An index probe replaces scanning a single-atom inner side when the inner
    # base relation has a covering maintained index and the outer side is small.
    on = frozenset(graph.shared(left.mask, right.mask))
    for outer, inner in ((left, right), (right, left)):
        if inner.atom is None:
            continue
        probe_work = index_probe_cost(cost_model.source,
                                      graph.atoms[inner.atom].relation, on,
                                      outer.cardinality)
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


# -- the search --------------------------------------------------------------------------


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
    return best[(1 << n) - 1], len(best), considered, pruned


# -- result construction -----------------------------------------------------------------


def _build_expression(graph: JoinGraph, plan: _Plan, cost_model: CostModel,
                      join_nodes: List[Expression]) -> Tuple[Expression, str]:
    """Rebuild the ordered NaturalJoin tree; the cost model remembers the
    estimate of each join it composes (an atom's it has already)."""
    if plan.atom is not None:
        atom = graph.atoms[plan.atom]
        return atom.expression, atom.label
    left_expr, left_label = _build_expression(graph, plan.left, cost_model, join_nodes)
    right_expr, right_label = _build_expression(graph, plan.right, cost_model, join_nodes)
    on = graph.shared(plan.left.mask, plan.right.mask)
    node = NaturalJoin(left_expr, right_expr, on=on)
    cost_model.remember(node, CostEstimate(plan.cardinality, plan.cost,
                                           bound=plan.bound))
    join_nodes.append(node)
    return node, "({} ⋈ {})".format(left_label, right_label)


def order_joins(expression: Expression, cost_model: CostModel,
                tracer=None) -> Optional[JoinOrderResult]:
    """Search a join order for a nested NaturalJoin tree.

    Returns ``None`` — keep the written order — when the tree is not
    reorderable (see :func:`extract_join_graph`) or joins more than
    :data:`DEFAULT_DP_THRESHOLD` relations; otherwise a
    :class:`JoinOrderResult` whose expression is semantically equivalent to the
    input with the joins re-associated into the chosen order.

    Within a planning pass (see :meth:`~repro.optimizer.cost.CostModel.bind`)
    ``cost_model`` remembers the search's estimate of every join of the new
    tree and of ``expression`` itself.  ``tracer`` (a
    :class:`repro.obs.trace.Tracer` or ``None``) records the search as a
    ``join-order-search`` span carrying the report's numbers.
    """
    graph = extract_join_graph(expression, cost_model.source)
    if graph is None or len(graph) > DEFAULT_DP_THRESHOLD:
        return None
    with (tracer.span("join-order-search") if tracer is not None
          else NOOP_SPAN) as span:
        _price_atoms(graph, cost_model)
        plan, subsets, considered, pruned = _search_dp(graph, cost_model)
        join_nodes: List[Expression] = []
        ordered, order = _build_expression(graph, plan, cost_model, join_nodes)
        # The original root prices identically to the reordered root, so the
        # planner's annotation of the node it was handed stays honest too.
        cost_model.remember(expression, CostEstimate(plan.cardinality, plan.cost,
                                                     bound=plan.bound))
        report = JoinSearchReport(len(graph), subsets, considered, pruned,
                                  order, plan.cardinality, plan.cost)
        span.set(**report.as_dict())
    return JoinOrderResult(ordered, join_nodes, report)
