"""Query specifications: the optimizer's normalized input.

A :class:`QuerySpec` captures a select-join query — the class of
queries in the paper's experiments — as a set of relations, at most
one selection predicate per relation, and a set of equi-join
predicates forming a join graph — Table 1's Get-Set, Select and Join,
with every selection already pushed onto its relation, as in all the
paper's queries.  Workloads, the SQL frontend and the traffic
generator all build one directly.
"""

import hashlib

from repro.algebra.expressions import Literal, UserVariable
from repro.common.errors import OptimizationError
from repro.cost.parameters import Parameter, ParameterSpace


def _operand_signature(operand):
    """Stable identity of a comparison operand."""
    if isinstance(operand, UserVariable):
        return ("var", operand.name)
    if isinstance(operand, Literal):
        return ("lit", repr(operand.value))
    return ("operand", repr(operand))


def _selection_signature(relation_name, predicate, expected=True):
    """Stable identity of one selection predicate; with ``expected``
    false, an uncertain predicate's expected selectivity is left out."""
    comparison = predicate.comparison
    if predicate.is_uncertain:
        certainty = (
            "uncertain",
            predicate.selectivity_parameter,
            float(predicate.selectivity_bounds.lower),
            float(predicate.selectivity_bounds.upper),
        )
        if expected:
            certainty += (float(predicate.expected_selectivity),)
    else:
        certainty = ("known", float(predicate.known_selectivity))
    return (
        relation_name,
        comparison.attribute,
        comparison.op.value,
        _operand_signature(comparison.operand),
        certainty,
    )


def canonical_signature(query):
    """Canonical structural identity of a query, for plan caching.

    Two queries share a signature when they state the same query with
    the same compile-time knowledge: same relation set, same selection
    predicates (attribute, operator, operand, and selectivity
    description — bounds *and* expected value), same join predicates
    (orientation-normalized — an equi-join is symmetric), same
    projection, and the same unbound-parameter set.  The query *name*
    is deliberately excluded: it is presentation, not semantics.

    The expected selectivity is more than a dynamic plan needs: the
    dynamic optimizer costs over the bounds and never reads it.  It
    stays in the key because what a cache entry serves does read it — a
    static plan is optimized at it, and start-up falls back to it for a
    parameter a request leaves unbound — and because each entry keeps
    its own observed ranges, re-optimizations and snapshot.  Queries
    that differ only there share one optimizer run instead
    (:func:`input_signature`).

    The signature is a nested tuple of primitives, so it is hashable,
    comparable, and stable across processes (no ``id()`` anywhere).
    """
    selections = tuple(
        _selection_signature(relation_name, query.selections[relation_name])
        for relation_name in sorted(query.selections)
    )
    joins = tuple(
        sorted(
            tuple(sorted((p.left_attribute, p.right_attribute)))
            for p in query.join_predicates
        )
    )
    return (
        ("relations", tuple(sorted(query.relations))),
        ("selections", selections),
        ("joins", joins),
        ("projection", query.projection),
        ("memory_uncertain", query.memory_uncertain),
        ("unbound", tuple(query.parameter_space.uncertain_names())),
    )


def input_signature(query):
    """What the dynamic optimizer reads of a query: the key under which
    one partition shares an optimizer run between cache entries.

    It holds the relations in query order, per relation its selection
    (attribute, operator, operand; an uncertain predicate's parameter
    name and bounds, a known selectivity), the join predicates as
    written, the projection, and every parameter of the space with its
    bounds and uncertainty, plus the expected value of each *certain*
    parameter (the memory grant).  An uncertain predicate's expected
    value is left out: an optimizer run over the bounds never reads it
    (``OptimizationResult.bounds_only``).  Nothing is sorted, because
    relation and join order drive the search's order of alternatives
    and its first-wins ties.
    """
    selections = tuple(
        _selection_signature(name, query.selections[name], expected=False)
        for name in query.relations
        if name in query.selections
    )
    joins = tuple(
        (predicate.left_attribute, predicate.right_attribute)
        for predicate in query.join_predicates
    )
    parameters = tuple(
        (
            parameter.name,
            float(parameter.bounds.lower),
            float(parameter.bounds.upper),
            parameter.uncertain,
            None if parameter.uncertain else parameter.expected,
        )
        for parameter in query.parameter_space
    )
    return (
        ("relations", query.relations),
        ("selections", selections),
        ("joins", joins),
        ("projection", query.projection),
        ("parameters", parameters),
    )


def signature_digest(signature):
    """Short stable hex digest of a canonical signature."""
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:16]


class QuerySpec:
    """A normalized select-join query plus its parameter space."""

    def __init__(
        self,
        relations,
        selections=None,
        join_predicates=(),
        memory_uncertain=False,
        name=None,
        projection=None,
    ):
        self.relations = tuple(relations)
        if not self.relations:
            raise OptimizationError("a query needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise OptimizationError("duplicate relation in query (no self-joins)")
        self.selections = dict(selections or {})
        for relation_name in self.selections:
            if relation_name not in self.relations:
                raise OptimizationError(
                    "selection on %r but that relation is not in the query"
                    % relation_name
                )
        self.join_predicates = tuple(join_predicates)
        self.memory_uncertain = bool(memory_uncertain)
        self.name = name or "query"
        #: qualified attributes the query returns (None = all)
        self.projection = tuple(projection) if projection else None
        #: the join graph: (left relation, right relation, predicate)
        self._join_edges = tuple(
            (
                predicate.left_attribute.split(".", 1)[0],
                predicate.right_attribute.split(".", 1)[0],
                predicate,
            )
            for predicate in self.join_predicates
        )
        self._validate_join_graph()
        self.parameter_space = self._build_parameter_space()

    def _validate_join_graph(self):
        relation_set = set(self.relations)
        for left_rel, right_rel, predicate in self._join_edges:
            for relation in (left_rel, right_rel):
                if relation not in relation_set:
                    raise OptimizationError(
                        "join predicate %r references unknown relation %r"
                        % (predicate, relation)
                    )
        if len(self.relations) > 1 and not self.is_connected(
            frozenset(self.relations)
        ):
            raise OptimizationError(
                "the join graph is disconnected; cross products are not "
                "part of the experimental algebra"
            )

    def _build_parameter_space(self):
        parameters = []
        for relation_name in self.relations:
            predicate = self.selections.get(relation_name)
            if predicate is not None and predicate.is_uncertain:
                parameters.append(
                    Parameter(
                        predicate.selectivity_parameter,
                        tuple(predicate.selectivity_bounds),
                        predicate.expected_selectivity,
                        uncertain=True,
                    )
                )
        space = ParameterSpace(parameters)
        space.add(Parameter.memory(uncertain=self.memory_uncertain))
        return space

    # ------------------------------------------------------------------
    # Join-graph queries
    # ------------------------------------------------------------------

    def cross_predicates(self, left_set, right_set):
        """Join predicates connecting two disjoint relation sets."""
        result = []
        for left_rel, right_rel, predicate in self._join_edges:
            if left_rel in left_set and right_rel in right_set:
                result.append(predicate)
            elif left_rel in right_set and right_rel in left_set:
                result.append(predicate.flipped())
        return result

    def is_connected(self, relation_set):
        """True when the join graph restricted to the set is connected."""
        relation_set = set(relation_set)
        if len(relation_set) <= 1:
            return True
        adjacency = {relation: set() for relation in relation_set}
        for left_rel, right_rel, _ in self._join_edges:
            if left_rel in relation_set and right_rel in relation_set:
                adjacency[left_rel].add(right_rel)
                adjacency[right_rel].add(left_rel)
        start = next(iter(relation_set))
        seen = {start}
        frontier = [start]
        while frontier:
            relation = frontier.pop()
            for neighbour in adjacency[relation]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == relation_set

    def connected_splits(self, relation_set):
        """All ordered splits ``(A, B)`` of a connected set into two
        connected, non-empty halves joined by at least one predicate.

        Used by tests as the ground truth the rule closure must reach.
        """
        relation_list = sorted(relation_set)
        count = len(relation_list)
        results = []
        if count < 2:
            return results
        for mask in range(1, 2**count - 1):
            left = frozenset(
                relation_list[i] for i in range(count) if mask & (1 << i)
            )
            right = frozenset(relation_set) - left
            if not self.is_connected(left) or not self.is_connected(right):
                continue
            if not self.cross_predicates(left, right):
                continue
            results.append((left, right))
        return results

    def selection_for(self, relation_name):
        """The selection predicate on a relation, or ``None``."""
        return self.selections.get(relation_name)

    def canonical_signature(self):
        """Canonical structural identity (see :func:`canonical_signature`)."""
        return canonical_signature(self)

    def signature(self):
        """Hex digest of the canonical signature — the plan-cache key."""
        return signature_digest(self.canonical_signature())

    def uncertain_variable_count(self):
        """Number of uncertain parameters (x-axis of the figures)."""
        return self.parameter_space.uncertain_count()

    def __repr__(self):
        return "QuerySpec(%s: %d relations, %d joins, %d uncertain)" % (
            self.name,
            len(self.relations),
            len(self.join_predicates),
            self.uncertain_variable_count(),
        )
