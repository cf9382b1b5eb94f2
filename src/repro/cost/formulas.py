"""Cost formulas for every physical algorithm (paper Section 5).

All formulas are monotone in their uncertain arguments (cardinalities
and selectivities increase cost; memory decreases it), so evaluating
them at the interval endpoints yields exact interval costs — the
paper's construction: "the upper and lower bounds of the cost
intervals are computed using traditional cost formulas supplied with
the appropriate upper and lower bound values for the parameters ...
assuming that cost functions are monotonic in all their arguments".

A single :class:`CostModel` instance evaluates a whole plan DAG with
memoization (each shared subplan is costed once — the sharing
optimization the paper applies at start-up time).  The same class is
used:

* at compile time with a ``bounds`` valuation (interval costs),
* at compile time with an ``expected`` valuation (static optimizer),
* at start-up time with a ``runtime`` valuation (the choose-plan
  decision procedure re-evaluates these very formulas).
"""

import math

from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    Materialized,
    MergeJoin,
    Project,
    Sort,
)
from repro.common.errors import PlanError
from repro.common.intervals import Interval
from repro.common.units import (
    CPU_COST_WEIGHT,
    IO_TIME_PER_PAGE,
    RECORDS_PER_PAGE,
    SEQ_IO_TIME_PER_PAGE,
    pages_for_records,
)
from repro.cost.model import (
    CHOOSE_PLAN_OVERHEAD_SECONDS,
    CostResult,
    choose_plan_cost,
)

#: Leaf capacity assumed by the cost model for B-tree indexes.
BTREE_COST_FANOUT = 32

#: Per-page time for partition spill I/O.  Partition files are written
#: and re-read in runs, so the per-page time sits between the pure
#: sequential and pure random rates; large enough that losing memory at
#: run time genuinely changes which join strategy wins.
SPILL_IO_TIME_PER_PAGE = 0.005


def lru_page_faults(record_count, page_count, buffer_pages):
    """Expected page faults fetching ``record_count`` random records.

    The finite-LRU refinement of Mackert and Lohman ([MaL89], cited by
    the paper): the Cardenas estimate gives the distinct pages touched,
    ``Y = P (1 - (1 - 1/P)^k)``; while they fit in the buffer each
    faults once, afterwards accesses miss with probability
    ``1 - B/P``.  Monotone increasing in ``record_count`` and
    decreasing in ``buffer_pages``, so interval evaluation at the
    corners stays exact.
    """
    if record_count <= 0 or page_count <= 0:
        return 0.0
    per_access_hit = 1.0 / page_count
    distinct = page_count * (1.0 - (1.0 - per_access_hit) ** record_count)
    if distinct <= buffer_pages or buffer_pages >= page_count:
        return distinct
    # Accesses needed to touch ``buffer_pages`` distinct pages:
    fill_accesses = math.log(1.0 - buffer_pages / page_count) / math.log(
        1.0 - per_access_hit
    )
    remaining = max(0.0, record_count - fill_accesses)
    return buffer_pages + remaining * (1.0 - buffer_pages / page_count)


def btree_height(cardinality):
    """Estimated root-to-leaf page count of a B-tree index."""
    if cardinality <= 1:
        return 1
    return 1 + max(1, math.ceil(math.log(cardinality, BTREE_COST_FANOUT)))


def btree_leaf_pages(cardinality):
    """Estimated leaf-page count of a B-tree index."""
    return max(1, math.ceil(cardinality / BTREE_COST_FANOUT))


def hash_join_seconds(build_card, probe_card, join_sel, memory_pages):
    """Local cost of a hash join: CPU plus partition spill I/O."""
    build_pages = pages_for_records(build_card)
    probe_pages = pages_for_records(probe_card)
    output = build_card * probe_card * join_sel
    cpu = (
        build_card * 2.0 * CPU_COST_WEIGHT
        + probe_card * 2.0 * CPU_COST_WEIGHT
        + output * CPU_COST_WEIGHT
    )
    if build_pages <= memory_pages or build_pages == 0:
        spill_fraction = 0.0
    else:
        spill_fraction = 1.0 - memory_pages / build_pages
    io = (
        2.0
        * spill_fraction
        * (build_pages + probe_pages)
        * SPILL_IO_TIME_PER_PAGE
    )
    return cpu + io


def merge_join_seconds(left_card, right_card, join_sel):
    """Local cost of a merge join over sorted inputs (CPU only)."""
    output = left_card * right_card * join_sel
    return (
        (left_card + right_card) * 1.5 * CPU_COST_WEIGHT
        + output * CPU_COST_WEIGHT
    )


def sort_seconds(card, memory_pages):
    """Local cost of sorting ``card`` records in ``memory_pages``."""
    if card <= 1:
        return CPU_COST_WEIGHT
    pages = pages_for_records(card)
    # Floored at the card <= 1 constant: n*log2(n) dips below 1 for
    # n < ~1.56, and corner evaluation requires monotonicity in card.
    cpu = max(card * math.log(card, 2), 1.0) * CPU_COST_WEIGHT
    if pages <= memory_pages:
        return cpu
    # External merge sort: one partition pass plus merge passes.
    run_count = pages / max(memory_pages, 2.0)
    merge_passes = max(
        1, math.ceil(math.log(run_count, max(memory_pages - 1, 2)))
    )
    io = 2.0 * pages * merge_passes * SPILL_IO_TIME_PER_PAGE
    return cpu + io


def index_scan_seconds(height, leaf_pages, fetch_io, records):
    """Cost of a B-tree scan: descent, leaf chain, record fetches, CPU."""
    return (
        height * IO_TIME_PER_PAGE
        + leaf_pages * SEQ_IO_TIME_PER_PAGE
        + fetch_io
        + records * CPU_COST_WEIGHT
    )


def index_join_seconds(outer_card, height, fetched, fetch_io, residual_sel):
    """Local cost of an index join: one descent per outer record plus
    fetching and (residual-)filtering the ``fetched`` inner records."""
    io = outer_card * height * IO_TIME_PER_PAGE + fetch_io
    cpu = (
        outer_card * CPU_COST_WEIGHT
        + fetched * CPU_COST_WEIGHT
        + fetched * residual_sel * CPU_COST_WEIGHT
    )
    return io + cpu


def _per_record_cost(child):
    """An input's cost plus one CPU unit for each record it delivers."""
    return Interval.from_floats(
        child.cost.lower + child.cardinality.lower * CPU_COST_WEIGHT,
        child.cost.upper + child.cardinality.upper * CPU_COST_WEIGHT,
    )


def _corner_cost(inputs_lower, inputs_upper, lower, upper):
    """Cost interval of a node: its inputs' cost bounds plus its own
    formula's values at the lower and upper corners."""
    if upper < lower:  # numeric noise in non-strictly-monotone corners
        lower, upper = upper, lower
    return Interval.from_floats(inputs_lower + lower, inputs_upper + upper)


def _split_attribute(qualified):
    """Split ``R.a`` into ``("R", "a")``."""
    if "." not in qualified:
        raise PlanError("join attributes must be qualified, got %r" % qualified)
    relation, attribute = qualified.split(".", 1)
    return relation, attribute


class CostModel:
    """Evaluates cost, cardinality, and sort order over a plan DAG.

    Every handler evaluates its formula on plain floats at the two
    corners of its arguments — lower bounds of cardinalities and
    selectivities with the upper bound of memory, and the reverse —
    and wraps the two results in intervals once, at the end.
    Cardinalities and selectivities are non-negative, so a product's
    bounds are the products of the bounds.
    """

    def __init__(
        self,
        catalog,
        valuation,
        choose_plan_overhead=CHOOSE_PLAN_OVERHEAD_SECONDS,
        buffer_aware=False,
    ):
        self.catalog = catalog
        self.valuation = valuation
        self.choose_plan_overhead = choose_plan_overhead
        #: apply the [MaL89] finite-LRU refinement to record fetches
        self.buffer_aware = bool(buffer_aware)
        #: Number of cost-function evaluations performed (cache misses).
        self.evaluations = 0
        self.invalidate()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def evaluate(self, plan):
        """The :class:`CostResult` of a plan, memoized per node object.

        Shared subplans of the DAG are evaluated exactly once, which is
        the start-up-time optimization the paper relies on: "the
        dynamic plan is stored as a DAG ... and the cost of shared
        subexpressions is computed only once".
        """
        cached = self._cache.get(id(plan))
        if cached is not None:
            # The cache pins the plan object, so the id cannot have
            # been recycled by the allocator.
            return cached[1]
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise PlanError("no cost formula for operator %r" % plan)
        result = handler(self, plan)
        self._cache[id(plan)] = (plan, result)
        self.evaluations += 1
        return result

    def invalidate(self):
        """Drop everything derived from the valuation (after changing it)."""
        self._cache = {}
        self._join_domains = {}
        memory = self.valuation.memory_pages()
        self._memory_lower = memory.lower
        self._memory_upper = memory.upper

    def join_selectivity(self, predicates):
        """Selectivity of a conjunction of equi-join predicates.

        Per the paper: each predicate contributes one over the larger
        of the two join-attribute domain sizes; known at compile time.
        """
        selectivity = 1.0
        domains = self._join_domains
        for predicate in predicates:
            key = (predicate.left_attribute, predicate.right_attribute)
            domain = domains.get(key)
            if domain is None:
                left_rel, left_attr = _split_attribute(key[0])
                right_rel, right_attr = _split_attribute(key[1])
                domain = domains[key] = max(
                    self.catalog.domain_size(left_rel, left_attr),
                    self.catalog.domain_size(right_rel, right_attr),
                )
            selectivity /= domain
        return selectivity

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def _file_scan(self, plan):
        cardinality = self.catalog.cardinality(plan.relation_name)
        pages = pages_for_records(cardinality)
        cost = pages * SEQ_IO_TIME_PER_PAGE + cardinality * CPU_COST_WEIGHT
        return CostResult(Interval.point(cost), Interval.point(cardinality))

    def _btree_scan(self, plan):
        cardinality = self.catalog.cardinality(plan.relation_name)
        height = btree_height(cardinality)
        leaves = btree_leaf_pages(cardinality)
        # Unclustered: the descent and leaf chain are cheap, but every
        # record costs one random heap-page fetch (a fault, when the
        # buffer-aware refinement is active).
        fetch_lower, fetch_upper = self._fetch_io_bounds(
            plan.relation_name, plan.attribute, cardinality, cardinality
        )
        cost = _corner_cost(
            0.0,
            0.0,
            index_scan_seconds(height, leaves, fetch_lower, cardinality),
            index_scan_seconds(height, leaves, fetch_upper, cardinality),
        )
        order = "%s.%s" % (plan.relation_name, plan.attribute)
        return CostResult(cost, Interval.point(cardinality), frozenset((order,)))

    def _fetch_faults(self, record_count, heap_pages, memory_pages):
        """I/O faults for random record fetches, buffer-aware or not."""
        if not self.buffer_aware:
            return record_count
        return lru_page_faults(record_count, heap_pages, memory_pages)

    def _fetch_io_seconds(self, record_count, heap_pages, memory_pages,
                          clustered):
        """I/O seconds to fetch ``record_count`` index-qualified records.

        Clustered indexes read the matching records' adjacent pages
        sequentially; unclustered indexes pay one random fault per
        record (or the [MaL89] estimate when buffer-aware).
        """
        if clustered:
            pages = record_count / RECORDS_PER_PAGE
            return pages * SEQ_IO_TIME_PER_PAGE
        faults = self._fetch_faults(record_count, heap_pages, memory_pages)
        return faults * IO_TIME_PER_PAGE

    def _fetch_io_bounds(self, relation_name, attribute, fewest, most):
        """:meth:`_fetch_io_seconds` through the index on ``attribute`` at
        the two corners: the fewest records with the most memory, and
        the most records with the least."""
        heap_pages = pages_for_records(self.catalog.cardinality(relation_name))
        index_info = self.catalog.index_on(relation_name, attribute)
        clustered = index_info is not None and index_info.clustered
        return (
            self._fetch_io_seconds(
                fewest, heap_pages, self._memory_upper, clustered
            ),
            self._fetch_io_seconds(
                most, heap_pages, self._memory_lower, clustered
            ),
        )

    def _filter_btree_scan(self, plan):
        cardinality = self.catalog.cardinality(plan.relation_name)
        selectivity = self.valuation.selectivity(plan.predicate)
        height = btree_height(cardinality)
        leaves = btree_leaf_pages(cardinality)
        matches_lower = selectivity.lower * cardinality
        matches_upper = selectivity.upper * cardinality
        fetch_lower, fetch_upper = self._fetch_io_bounds(
            plan.relation_name, plan.attribute, matches_lower, matches_upper
        )
        cost = _corner_cost(
            0.0,
            0.0,
            index_scan_seconds(
                height, selectivity.lower * leaves, fetch_lower, matches_lower
            ),
            index_scan_seconds(
                height, selectivity.upper * leaves, fetch_upper, matches_upper
            ),
        )
        order = "%s.%s" % (plan.relation_name, plan.attribute)
        return CostResult(
            cost,
            Interval.from_floats(matches_lower, matches_upper),
            frozenset((order,)),
        )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def _filter(self, plan):
        child = self.evaluate(plan.input)
        selectivity = self.valuation.selectivity(plan.predicate)
        out_cardinality = Interval.from_floats(
            child.cardinality.lower * selectivity.lower,
            child.cardinality.upper * selectivity.upper,
        )
        return CostResult(
            _per_record_cost(child), out_cardinality, child.sort_orders
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _hash_join(self, plan):
        build = self.evaluate(plan.build)
        probe = self.evaluate(plan.probe)
        join_sel = self.join_selectivity(plan.predicates)
        build_card = build.cardinality
        probe_card = probe.cardinality
        cost = _corner_cost(
            build.cost.lower + probe.cost.lower,
            build.cost.upper + probe.cost.upper,
            hash_join_seconds(
                build_card.lower, probe_card.lower, join_sel,
                self._memory_upper,
            ),
            hash_join_seconds(
                build_card.upper, probe_card.upper, join_sel,
                self._memory_lower,
            ),
        )
        out_cardinality = Interval.from_floats(
            build_card.lower * probe_card.lower * join_sel,
            build_card.upper * probe_card.upper * join_sel,
        )
        # Hash join scrambles any input order.
        return CostResult(cost, out_cardinality)

    def _merge_join(self, plan):
        left = self.evaluate(plan.left)
        right = self.evaluate(plan.right)
        join_sel = self.join_selectivity(plan.predicates)
        left_card = left.cardinality
        right_card = right.cardinality
        cost = _corner_cost(
            left.cost.lower + right.cost.lower,
            left.cost.upper + right.cost.upper,
            merge_join_seconds(left_card.lower, right_card.lower, join_sel),
            merge_join_seconds(left_card.upper, right_card.upper, join_sel),
        )
        out_cardinality = Interval.from_floats(
            left_card.lower * right_card.lower * join_sel,
            left_card.upper * right_card.upper * join_sel,
        )
        primary = plan.predicates[0]
        orders = frozenset((primary.left_attribute, primary.right_attribute))
        return CostResult(cost, out_cardinality, orders)

    def _index_join(self, plan):
        outer = self.evaluate(plan.outer)
        inner_cardinality = self.catalog.cardinality(plan.inner_relation)
        join_sel = self.join_selectivity(plan.predicates)
        height = btree_height(inner_cardinality)
        matches_per_probe = inner_cardinality * join_sel
        if plan.residual_predicate is not None:
            residual = self.valuation.selectivity(plan.residual_predicate)
            residual_lower = residual.lower
            residual_upper = residual.upper
        else:
            residual_lower = residual_upper = 1.0
        outer_card = outer.cardinality
        fetched_lower = outer_card.lower * matches_per_probe
        fetched_upper = outer_card.upper * matches_per_probe
        fetch_lower, fetch_upper = self._fetch_io_bounds(
            plan.inner_relation, plan.inner_attribute, fetched_lower, fetched_upper
        )
        cost = _corner_cost(
            outer.cost.lower,
            outer.cost.upper,
            index_join_seconds(
                outer_card.lower, height, fetched_lower, fetch_lower, residual_lower
            ),
            index_join_seconds(
                outer_card.upper, height, fetched_upper, fetch_upper, residual_upper
            ),
        )
        out_cardinality = Interval.from_floats(
            fetched_lower * residual_lower, fetched_upper * residual_upper
        )
        return CostResult(cost, out_cardinality, outer.sort_orders)

    # ------------------------------------------------------------------
    # Enforcers and decoration
    # ------------------------------------------------------------------

    def _sort(self, plan):
        child = self.evaluate(plan.input)
        cost = _corner_cost(
            child.cost.lower,
            child.cost.upper,
            sort_seconds(child.cardinality.lower, self._memory_upper),
            sort_seconds(child.cardinality.upper, self._memory_lower),
        )
        return CostResult(cost, child.cardinality, frozenset((plan.attribute,)))

    def _project(self, plan):
        child = self.evaluate(plan.input)
        return CostResult(
            _per_record_cost(child), child.cardinality, child.sort_orders
        )

    def _choose_plan(self, plan):
        results = [self.evaluate(alternative) for alternative in plan.alternatives]
        cost = choose_plan_cost(
            [result.cost for result in results], self.choose_plan_overhead
        )
        cardinality = Interval.hull([result.cardinality for result in results])
        orders = frozenset.intersection(
            *[result.sort_orders for result in results]
        )
        return CostResult(cost, cardinality, orders)

    def _materialized(self, plan):
        # A run-time temporary: its production cost is sunk and its
        # cardinality is *observed*, not estimated (paper Section 7).
        return CostResult(
            Interval.zero(), Interval.point(plan.observed_cardinality)
        )

    #: The one dispatch: plan node type -> cost handler.
    _HANDLERS = {
        FileScan: _file_scan,
        BTreeScan: _btree_scan,
        FilterBTreeScan: _filter_btree_scan,
        Filter: _filter,
        HashJoin: _hash_join,
        MergeJoin: _merge_join,
        IndexJoin: _index_join,
        Sort: _sort,
        Project: _project,
        ChoosePlan: _choose_plan,
        Materialized: _materialized,
    }
