"""Semantic implication of attribute and functional dependencies.

A dependency ``d`` is *semantically implied* by a set ``AF`` when every flexible
relation satisfying all of ``AF`` also satisfies ``d``.  The appendix of the paper
proves completeness of Å* by constructing, for every non-derivable candidate
``X --attr--> Y`` (or ``X --func--> Y``), a two-tuple relation that satisfies every
derivable dependency but violates the candidate:

===========================  =====================================  ==================
attributes of ``X+func``     attributes of ``X+attr − X+func``       attributes outside
===========================  =====================================  ==================
``t1``: 1 … 1                1 … 1                                   1 … 1
``t2``: 1 … 1                0 … 0                                   (non-existent)
===========================  =====================================  ==================

This module builds that relation (:func:`counterexample_relation`), decides semantic
implication with it (:func:`semantically_implies`), and offers a randomized model
checker (:func:`random_satisfying_relation` + :func:`holds_in_random_models`) that
experiments E3/E4 use to validate soundness independently of the construction.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.core.closure import attribute_closure, functional_closure
from repro.core.dependencies import Dependency, ExplicitAttributeDependency
from repro.errors import DependencyError
from repro.model.attributes import AttributeSet, attrset
from repro.model.relation import FlexibleRelation
from repro.model.scheme import UnfoldedScheme
from repro.model.tuples import FlexTuple


def dependency_universe(dependencies: Iterable[Dependency], *extra) -> AttributeSet:
    """The set of attributes mentioned by the dependencies plus any extra sets."""
    universe = AttributeSet()
    for dependency in dependencies:
        universe = universe | dependency.attributes
    for item in extra:
        universe = universe | attrset(item)
    return universe


def counterexample_relation(
    dependencies: Iterable[Dependency],
    lhs,
    universe=None,
) -> FlexibleRelation:
    """The appendix's two-tuple relation for a candidate with left side ``lhs``.

    ``t1`` is defined on the whole universe with value ``1`` everywhere; ``t2`` is
    defined on ``lhs+attr`` with value ``1`` on ``lhs+func`` and ``0`` on the rest.
    The returned relation satisfies every dependency derivable from ``dependencies``
    (under Å*) and violates exactly the non-derivable candidates with this left side.
    """
    dependencies = list(dependencies)
    lhs = attrset(lhs)
    universe = dependency_universe(dependencies, lhs) if universe is None else attrset(universe)
    if not lhs.issubset(universe):
        raise DependencyError("left side {} is not contained in the universe {}".format(lhs, universe))
    x_func = functional_closure(lhs, dependencies) & universe
    x_attr = attribute_closure(lhs, dependencies, combined=True) & universe

    t1 = FlexTuple({attribute.name: 1 for attribute in universe})
    t2_values = {attribute.name: 1 for attribute in x_func}
    t2_values.update({attribute.name: 0 for attribute in (x_attr - x_func)})
    t2 = FlexTuple(t2_values)

    scheme = UnfoldedScheme({
        frozenset(universe.as_frozenset()),
        frozenset(x_attr.as_frozenset()),
    })
    return FlexibleRelation(scheme, tuples=[t1, t2], name="counterexample")


def semantically_implies(
    dependencies: Iterable[Dependency],
    candidate: Dependency,
    universe=None,
) -> bool:
    """Decide whether every relation satisfying ``dependencies`` satisfies ``candidate``.

    The decision procedure is the appendix construction: the candidate is implied iff
    it holds in the counterexample relation built for its left side.  (Soundness of
    the construction — the relation really satisfies every derivable dependency — is
    itself exercised by the test suite and by experiment E3.)
    """
    dependencies = list(dependencies)
    if isinstance(candidate, ExplicitAttributeDependency):
        candidate = candidate.to_ad()
    if universe is None:
        # The universe must cover the candidate's attributes: an attribute outside
        # the construction's universe would be absent from both tuples and the
        # candidate would hold vacuously.
        universe = dependency_universe(dependencies, candidate.attributes)
    relation = counterexample_relation(dependencies, candidate.lhs, universe=universe)
    return candidate.holds_in(relation)


def random_heterogeneous_tuple(
    universe: AttributeSet,
    rng: random.Random,
    value_pool: Sequence = (0, 1, 2),
    min_attributes: int = 1,
) -> FlexTuple:
    """A random tuple over a random non-empty subset of ``universe``."""
    attributes = list(universe)
    if not attributes:
        raise DependencyError("cannot build tuples over an empty universe")
    count = rng.randint(min(min_attributes, len(attributes)), len(attributes))
    chosen = rng.sample(attributes, count)
    return FlexTuple({attribute.name: rng.choice(list(value_pool)) for attribute in chosen})


def random_satisfying_relation(
    dependencies: Iterable[Dependency],
    universe=None,
    size: int = 20,
    rng: Optional[random.Random] = None,
    value_pool: Sequence = (0, 1, 2),
    max_attempts_per_tuple: int = 50,
) -> FlexibleRelation:
    """Generate a random relation that satisfies every given dependency.

    Tuples are generated at random and admitted only when the instance stays
    consistent — a simple rejection sampler that is adequate for the small universes
    used by the property tests and the axiom experiments.  The resulting relation may
    contain fewer than ``size`` tuples when consistent extensions become rare.
    """
    dependencies = list(dependencies)
    rng = rng or random.Random(0)
    universe = dependency_universe(dependencies) if universe is None else attrset(universe)
    combos = set()
    accepted: List[FlexTuple] = []
    for _ in range(size):
        for _attempt in range(max_attempts_per_tuple):
            candidate = random_heterogeneous_tuple(universe, rng, value_pool=value_pool)
            trial = accepted + [candidate]
            if all(dependency.holds_in(trial) for dependency in dependencies):
                accepted.append(candidate)
                combos.add(frozenset(candidate.attributes.as_frozenset()))
                break
    return FlexibleRelation(
        UnfoldedScheme(combos or {frozenset(universe.as_frozenset())}),
        tuples=accepted, name="random")


def holds_in_random_models(
    dependencies: Iterable[Dependency],
    candidate: Dependency,
    models: int = 20,
    size: int = 15,
    seed: int = 0,
    universe=None,
) -> bool:
    """Randomized refutation check used to cross-validate soundness.

    Generates ``models`` random relations satisfying ``dependencies`` and returns
    ``False`` as soon as one violates ``candidate``.  A ``True`` result is evidence
    (not proof) of implication; a ``False`` result is a definite refutation.
    """
    dependencies = list(dependencies)
    if isinstance(candidate, ExplicitAttributeDependency):
        candidate = candidate.to_ad()
    universe = dependency_universe(dependencies, candidate.attributes) if universe is None \
        else attrset(universe)
    for index in range(models):
        rng = random.Random(seed + index)
        relation = random_satisfying_relation(
            dependencies, universe=universe, size=size, rng=rng
        )
        if not candidate.holds_in(relation):
            return False
    return True
