"""The paper's experimental queries (Section 6).

Five queries of increasing complexity:

* query 1 — one relation, one unbound selection predicate (the
  motivating example);
* query 2 — two-way join, two selections;
* query 3 — four-way join, four selections;
* query 4 — six-way join, six selections;
* query 5 — ten-way join, ten selections.

Every selection predicate's selectivity is uncertain (uniform over
[0, 1] at run time, expected value 0.05 at compile time); join
predicate selectivities are computed from the attribute domain sizes
and considered known.  Relations have 100-1,000 records of 512 bytes,
attribute domains of 0.2-1.25 x cardinality, and unclustered B-trees
on all selection and join attributes.

Naming conventions used throughout the library:

* selection on relation ``R``: ``R.a < :v_R`` with selectivity
  parameter ``sel_R``;
* chain joins: ``Ri.b = R(i+1).c``; star joins: ``R1.b = Ri.c``.
"""

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    SelectionPredicate,
    UserVariable,
)
from repro.catalog.synthetic import build_synthetic_catalog, default_relation_specs
from repro.common.errors import OptimizationError
from repro.optimizer.query import QuerySpec

#: Paper query number -> relation count.
PAPER_QUERY_SIZES = {1: 1, 2: 2, 3: 4, 4: 6, 5: 10}

#: Attribute carrying the unbound selection predicate.
SELECTION_ATTRIBUTE = "a"

#: Join graph shapes :func:`make_join_predicates` builds.
TOPOLOGIES = ("chain", "star", "cycle")


def selection_parameter_name(relation_name):
    """Name of the selectivity parameter of a relation's selection."""
    return "sel_%s" % relation_name


def selection_variable_name(relation_name):
    """Name of the user variable of a relation's selection."""
    return "v_%s" % relation_name


def make_selection_predicate(
    relation_name,
    expected_selectivity=0.05,
    uncertain=True,
    selectivity_bounds=(0.0, 1.0),
):
    """``R.a < :v_R`` with an uncertain selectivity parameter.

    With ``uncertain=False`` the predicate still references the user
    variable (the executor needs a value to filter by) but its
    selectivity is *known* at compile time — used by the partial-
    uncertainty sweep to vary the number of uncertain variables while
    holding the query shape fixed.
    """
    comparison = Comparison(
        "%s.%s" % (relation_name, SELECTION_ATTRIBUTE),
        ComparisonOp.LT,
        UserVariable(selection_variable_name(relation_name)),
    )
    if not uncertain:
        return SelectionPredicate(
            comparison, known_selectivity=expected_selectivity
        )
    return SelectionPredicate(
        comparison,
        selectivity_parameter=selection_parameter_name(relation_name),
        selectivity_bounds=selectivity_bounds,
        expected_selectivity=expected_selectivity,
    )


def make_join_predicates(relation_names, topology="chain"):
    """Join predicates for a relation list under a topology."""
    if len(relation_names) < 2:
        return []
    if topology == "chain":
        return [
            JoinPredicate(
                "%s.b" % relation_names[i], "%s.c" % relation_names[i + 1]
            )
            for i in range(len(relation_names) - 1)
        ]
    if topology == "star":
        center = relation_names[0]
        return [
            JoinPredicate("%s.b" % center, "%s.c" % satellite)
            for satellite in relation_names[1:]
        ]
    if topology == "cycle":
        predicates = make_join_predicates(relation_names, "chain")
        predicates.append(
            JoinPredicate("%s.b" % relation_names[-1], "%s.c" % relation_names[0])
        )
        return predicates
    raise OptimizationError("unknown join topology %r" % topology)


class Workload:
    """A catalog plus a query over it (one experimental unit)."""

    def __init__(self, catalog, query, specs, seed):
        self.catalog = catalog
        self.query = query
        self.specs = specs
        self.seed = seed

    @property
    def name(self):
        """The query's name."""
        return self.query.name

    def __repr__(self):
        return "Workload(%s over %d relations)" % (
            self.name,
            len(self.query.relations),
        )


def make_join_workload(
    relation_count,
    topology="chain",
    memory_uncertain=False,
    seed=0,
    expected_selectivity=0.05,
    uncertain_selections=None,
    selectivity_bounds=(0.0, 1.0),
    name=None,
):
    """A k-way join workload matching the paper's setup.

    ``uncertain_selections`` limits how many relations (taken in order)
    carry *uncertain* selection predicates; the remaining selections
    have known selectivity.  ``None`` (the default) makes all of them
    uncertain, as in the paper's experiments.  ``selectivity_bounds``
    narrows the compile-time uncertainty of the unbound predicates
    (the paper uses the maximally uncertain [0, 1]); the expected
    value is clamped into the bounds.
    """
    specs = default_relation_specs(relation_count, seed=seed)
    catalog = build_synthetic_catalog(specs, seed=seed)
    relation_names = [spec.name for spec in specs]
    if uncertain_selections is None:
        uncertain_selections = relation_count
    low, high = selectivity_bounds
    clamped_expected = min(max(expected_selectivity, low), high)
    selections = {
        relation_name: make_selection_predicate(
            relation_name,
            clamped_expected,
            uncertain=(index < uncertain_selections),
            selectivity_bounds=selectivity_bounds,
        )
        for index, relation_name in enumerate(relation_names)
    }
    query = QuerySpec(
        relations=relation_names,
        selections=selections,
        join_predicates=make_join_predicates(relation_names, topology),
        memory_uncertain=memory_uncertain,
        name=name or "%d-way-%s" % (relation_count, topology),
    )
    return Workload(catalog, query, specs, seed)


def paper_workload(query_number, memory_uncertain=False, seed=0):
    """One of the paper's five queries (1-5)."""
    if query_number not in PAPER_QUERY_SIZES:
        raise OptimizationError(
            "paper query number must be 1-5, got %r" % query_number
        )
    relation_count = PAPER_QUERY_SIZES[query_number]
    suffix = "+mem" if memory_uncertain else ""
    return make_join_workload(
        relation_count,
        topology="chain",
        memory_uncertain=memory_uncertain,
        seed=seed,
        name="query%d%s" % (query_number, suffix),
    )
