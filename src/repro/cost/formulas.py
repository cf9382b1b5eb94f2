"""Cost formulas for every physical algorithm (paper Section 5).

Each operator kind's cost is stated once, as a *kernel*: a module-level
``for`` loop over *rows* with the formula inline.  A row is a plain
tuple — its node's *slot* in the caller's ``costs``/``cards`` work
arrays, its inputs' slots, the indexes of the parameters it reads in
the caller's value list, and its catalog statistics folded in as
constants — built by :class:`RowBuilder`.  Two programs run the
kernels:

* :class:`CostModel` evaluates a plan DAG over intervals, with memo-
  ization (each shared subplan is costed once — the sharing
  optimization the paper applies at start-up time).  It runs each
  node's kernel at the two corners of the parameters and is used at
  compile time with a ``bounds`` valuation (interval costs), by the
  static optimizer with an ``expected`` valuation, and at start-up or
  run time with a ``runtime`` valuation, where both corners coincide;
* :class:`~repro.executor.decision.CompiledDecision` runs the same
  kernels over whole segments of a cached plan at the request's point
  bindings — the start-up decision procedure re-evaluates these very
  formulas, so its costs are the interval model's, bit for bit.

All formulas are monotone in their uncertain arguments (cardinalities
and selectivities increase cost; memory decreases it), so evaluating
them at the interval endpoints yields exact interval costs — the
paper's construction: "the upper and lower bounds of the cost
intervals are computed using traditional cost formulas supplied with
the appropriate upper and lower bound values for the parameters ...
assuming that cost functions are monotonic in all their arguments"
(``tests/test_cost_model.py::TestKernelMonotonicity``).
"""

import math
from math import ceil, log

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
    ``1 - B/P``.  Every distinct page faults at least once, so the
    estimate is floored at ``Y``: without the floor, less than one
    access past the point where the buffer fills, the estimate grew
    with the buffer (25.5 fetches over 25 pages: 16.1703 faults with 16
    buffer pages, 16.1721 with 112).  Monotone increasing in
    ``record_count`` and decreasing in ``buffer_pages``, so interval
    evaluation at the corners stays exact.
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
    return max(
        distinct, buffer_pages + remaining * (1.0 - buffer_pages / page_count)
    )


def btree_height(cardinality):
    """Estimated root-to-leaf page count of a B-tree index."""
    if cardinality <= 1:
        return 1
    return 1 + max(1, math.ceil(math.log(cardinality, BTREE_COST_FANOUT)))


def btree_leaf_pages(cardinality):
    """Estimated leaf-page count of a B-tree index."""
    return max(1, math.ceil(cardinality / BTREE_COST_FANOUT))


# One kernel per operator kind; the choose-plan rule is each caller's
# own (an argmin at a point, an envelope over an interval).  ``values``
# is the caller's parameter list, ``values[0]`` the memory grant, and
# ``decisions`` the choose-plan kernel's output, unused here.  A page
# count is ``pages_for_records`` inlined: ``ceil`` of a positive
# quotient is at least one unless the quotient underflowed to zero,
# hence ``or 1``.  An index-fetching row's ``fetch`` column is its fetch
# mode: ``False``, unclustered (one random fault per record); ``True``,
# clustered (the records' adjacent pages, read sequentially); or,
# buffered, the relation's heap-page count (unclustered, [MaL89] faults
# through the memory grant).  Identity tests keep the branch as cheap as
# a flag's.


def _filter_btree_scan(rows, costs, cards, values, decisions):
    for slot, read, cardinality, descend, leaves, fetch in rows:
        s = values[read]
        matches = s * cardinality
        if fetch is False:
            fetch_io = matches * IO_TIME_PER_PAGE
        elif fetch is True:
            fetch_io = matches / RECORDS_PER_PAGE * SEQ_IO_TIME_PER_PAGE
        else:
            fetch_io = lru_page_faults(matches, fetch, values[0]) * IO_TIME_PER_PAGE
        costs[slot] = (
            descend
            + s * leaves * SEQ_IO_TIME_PER_PAGE
            + fetch_io
            + matches * CPU_COST_WEIGHT
        )
        cards[slot] = matches


def _filter(rows, costs, cards, values, decisions):
    for slot, child, read in rows:
        card = cards[child]
        costs[slot] = costs[child] + card * CPU_COST_WEIGHT
        cards[slot] = card * values[read]


def _hash_join(rows, costs, cards, values, decisions):
    memory = values[0]
    for slot, build, probe, join_sel in rows:
        build_card = cards[build]
        probe_card = cards[probe]
        output = build_card * probe_card * join_sel
        local = (
            build_card * 2.0 * CPU_COST_WEIGHT
            + probe_card * 2.0 * CPU_COST_WEIGHT
            + output * CPU_COST_WEIGHT
        )
        if build_card > 0:
            build_pages = ceil(build_card / RECORDS_PER_PAGE) or 1
            if not build_pages <= memory:
                # Partition spill I/O; only this branch reads the probe
                # side's pages.
                probe_pages = 0
                if probe_card > 0:
                    probe_pages = ceil(probe_card / RECORDS_PER_PAGE) or 1
                local += (
                    2.0
                    * (1.0 - memory / build_pages)
                    * (build_pages + probe_pages)
                    * SPILL_IO_TIME_PER_PAGE
                )
        costs[slot] = costs[build] + costs[probe] + local
        cards[slot] = output


def _merge_join(rows, costs, cards, values, decisions):
    # Over sorted inputs: CPU only.
    for slot, left, right, join_sel in rows:
        left_card = cards[left]
        right_card = cards[right]
        output = left_card * right_card * join_sel
        costs[slot] = (
            costs[left]
            + costs[right]
            + (left_card + right_card) * 1.5 * CPU_COST_WEIGHT
            + output * CPU_COST_WEIGHT
        )
        cards[slot] = output


def _index_join(rows, costs, cards, values, decisions):
    # One descent per outer record plus fetching and (residual-)
    # filtering the fetched inner records.
    for slot, outer, read, height, matches_per_probe, fetch in rows:
        outer_card = cards[outer]
        residual = values[read]
        fetched = outer_card * matches_per_probe
        if fetch is False:
            fetch_io = fetched * IO_TIME_PER_PAGE
        elif fetch is True:
            fetch_io = fetched / RECORDS_PER_PAGE * SEQ_IO_TIME_PER_PAGE
        else:
            fetch_io = lru_page_faults(fetched, fetch, values[0]) * IO_TIME_PER_PAGE
        costs[slot] = costs[outer] + (
            outer_card * height * IO_TIME_PER_PAGE
            + fetch_io
            + outer_card * CPU_COST_WEIGHT
            + fetched * CPU_COST_WEIGHT
            + fetched * residual * CPU_COST_WEIGHT
        )
        cards[slot] = fetched * residual


def _sort(rows, costs, cards, values, decisions):
    memory = values[0]
    run_pages = max(memory, 2.0)
    merge_fan_in = max(memory - 1, 2)
    for slot, child in rows:
        card = cards[child]
        if card <= 1:
            local = CPU_COST_WEIGHT
        else:
            pages = ceil(card / RECORDS_PER_PAGE) or 1
            # Floored at the card <= 1 constant: n*log2(n) dips below 1
            # for n < ~1.56, and corner evaluation requires monotonicity
            # in card.
            local = max(card * log(card, 2), 1.0) * CPU_COST_WEIGHT
            if pages > memory:
                # External merge sort: one partition pass plus merge
                # passes.
                run_count = pages / run_pages
                merge_passes = max(1, ceil(log(run_count, merge_fan_in)))
                local += 2.0 * pages * merge_passes * SPILL_IO_TIME_PER_PAGE
        costs[slot] = costs[child] + local
        cards[slot] = card


def _project(rows, costs, cards, values, decisions):
    for slot, child in rows:
        card = cards[child]
        costs[slot] = costs[child] + card * CPU_COST_WEIGHT
        cards[slot] = card


def _split_attribute(qualified):
    """Split ``R.a`` into ``("R", "a")``."""
    if "." not in qualified:
        raise PlanError("join attributes must be qualified, got %r" % qualified)
    relation, attribute = qualified.split(".", 1)
    return relation, attribute


class RowBuilder:
    """Each plan node as the kernel row that states its cost.

    ``read(predicate)`` is the caller's index of a selection predicate's
    selectivity in its value list; ``read(None)`` that of the constant
    ``1.0`` (an absent index-join residual, a full index scan).  With
    ``buffered``, an unclustered index fetch is priced by
    :func:`lru_page_faults` through the memory grant.  Catalog
    statistics are looked up once per index and join predicate.
    """

    def __init__(self, catalog, read, buffered=False):
        self.catalog = catalog
        self.read = read
        self.buffered = buffered
        self._join_domains = {}
        self._indexes = {}
        self._full_scans = {}

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

    def row(self, node, slot, inputs):
        """``(kernel, row)`` of the node in ``slot`` over its ``inputs``'
        slots, the kinds plans are made of most first; ``(None, (cost,
        cardinality))`` for a node that reads no parameter and no input;
        ``None`` for a choose-plan or an operator without a formula."""
        kind = type(node)
        if kind is HashJoin:
            join_sel = self.join_selectivity(node.predicates)
            return _hash_join, (slot, inputs[0], inputs[1], join_sel)
        if kind is MergeJoin:
            join_sel = self.join_selectivity(node.predicates)
            return _merge_join, (slot, inputs[0], inputs[1], join_sel)
        if kind is Sort:
            return _sort, (slot, inputs[0])
        if kind is IndexJoin:
            cardinality, height, _, fetch = self._index(
                node.inner_relation, node.inner_attribute
            )
            return _index_join, (
                slot,
                inputs[0],
                self.read(node.residual_predicate),
                height,
                cardinality * self.join_selectivity(node.predicates),
                fetch,
            )
        if kind is BTreeScan:
            # The filtered scan at selectivity one.  Unless its fetches
            # read the memory grant it is a constant, run once per index
            # as the one slot of a program whose one value is that 1.0.
            key = (node.relation_name, node.attribute)
            constant = self._full_scans.get(key)
            if constant is None:
                row = self._scan(node, 0, 0)
                if self.buffered and row[5] is not True:
                    return _filter_btree_scan, (slot, self.read(None)) + row[2:]
                cost, cardinality = [0.0], [0.0]
                _filter_btree_scan((row,), cost, cardinality, (1.0,), None)
                constant = self._full_scans[key] = None, (cost[0], cardinality[0])
            return constant
        if kind is Filter:
            return _filter, (slot, inputs[0], self.read(node.predicate))
        if kind is FilterBTreeScan:
            return _filter_btree_scan, self._scan(
                node, slot, self.read(node.predicate)
            )
        if kind is FileScan:
            cardinality = self.catalog.cardinality(node.relation_name)
            cost = (
                pages_for_records(cardinality) * SEQ_IO_TIME_PER_PAGE
                + cardinality * CPU_COST_WEIGHT
            )
            return None, (cost, cardinality)
        if kind is Project:
            return _project, (slot, inputs[0])
        if kind is Materialized:
            return None, (0.0, float(node.observed_cardinality))
        return None

    def _scan(self, node, slot, read):
        cardinality, height, leaves, fetch = self._index(
            node.relation_name, node.attribute
        )
        return slot, read, cardinality, height * IO_TIME_PER_PAGE, leaves, fetch

    def _index(self, relation_name, attribute):
        """``(cardinality, height, leaf pages, fetch mode)`` of the B-tree
        on ``attribute`` of ``relation_name``."""
        key = (relation_name, attribute)
        index = self._indexes.get(key)
        if index is None:
            cardinality = self.catalog.cardinality(relation_name)
            info = self.catalog.index_on(relation_name, attribute)
            if info is not None and info.clustered:
                fetch = True
            elif self.buffered:
                fetch = pages_for_records(cardinality)
            else:
                fetch = False
            index = self._indexes[key] = (
                cardinality,
                btree_height(cardinality),
                btree_leaf_pages(cardinality),
                fetch,
            )
        return index


class CostModel:
    """Evaluates cost, cardinality, and sort order over a plan DAG.

    A two-corner program over the kernels.  The first time the model
    sees a node it gives it a slot in two pairs of ``costs``/``cards``
    work arrays, one per corner — the lower bounds of cardinalities and
    selectivities with the upper bound of memory, and the reverse —
    builds its row once and runs its kernel once per corner.  Each
    corner's value list holds its memory bound first and every
    predicate's selectivity bound, read once per predicate.
    Cardinalities and selectivities are non-negative and the kernels
    monotone, so the lower corner never exceeds the upper one, and a
    slot's two corners wrap into intervals as they are.  What is
    interval-specific stays here: the choose-plan envelope plus
    overhead, sort orders, and the :class:`CostResult` per node.

    One model serves one optimization or resolution pass; it is not
    shared between threads.
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
        slot = self._slots.get(plan)
        if slot is None:
            slot = self._evaluate(plan)
        return self._results[slot]

    def invalidate(self):
        """Drop everything derived from the valuation (after changing it)."""
        memory = self.valuation.memory_pages()
        selectivity = self.valuation.selectivity
        #: node -> slot (plan nodes hash and compare by identity); per
        #: slot, the node's result and its two corners' costs and
        #: cardinalities.
        self._slots = {}
        self._results = []
        self._lower_costs, self._lower_cards = [], []
        self._upper_costs, self._upper_cards = [], []
        lower_values = self._lower_values = [memory.upper]
        upper_values = self._upper_values = [memory.lower]
        #: The one-row segment a node's kernel runs on.
        self._segment = [None]
        reads = {}

        def read(predicate):
            # A closure, not a method: the row builder holding it must
            # not hold the model (no reference cycle).
            known = reads.get(id(predicate))
            if known is not None:
                return known[0]
            index = len(lower_values)
            if predicate is None:
                lower_values.append(1.0)
                upper_values.append(1.0)
            else:
                bounds = selectivity(predicate)
                lower_values.append(bounds.lower)
                upper_values.append(bounds.upper)
            # The predicate rides along so its id cannot be recycled.
            reads[id(predicate)] = (index, predicate)
            return index

        self._rows = RowBuilder(self.catalog, read, self.buffer_aware)
        self._row = self._rows.row

    # ------------------------------------------------------------------
    # The two corners
    # ------------------------------------------------------------------

    def _evaluate(self, plan):
        """Give a node its slot and fill it; returns the slot."""
        slots = self._slots
        results = self._results
        inputs = []
        for child in plan.inputs():
            input_slot = slots.get(child)
            if input_slot is None:
                input_slot = self._evaluate(child)
            inputs.append(input_slot)
        lower_costs = self._lower_costs
        lower_cards = self._lower_cards
        upper_costs = self._upper_costs
        upper_cards = self._upper_cards
        slot = len(results)
        kind = type(plan)
        if kind is ChoosePlan:
            result = self._choose_plan(list(map(results.__getitem__, inputs)))
            cost = result.cost
            cardinality = result.cardinality
            lower_costs.append(cost.lower)
            upper_costs.append(cost.upper)
            lower_cards.append(cardinality.lower)
            upper_cards.append(cardinality.upper)
        else:
            built = self._row(plan, slot, inputs)
            if built is None:
                raise PlanError("no cost formula for operator %r" % plan)
            kernel, row = built
            if kernel is None:
                cost, cardinality = row
                cardinality = float(cardinality)
                lower_costs.append(cost)
                upper_costs.append(cost)
                lower_cards.append(cardinality)
                upper_cards.append(cardinality)
            else:
                lower_costs.append(0.0)
                upper_costs.append(0.0)
                lower_cards.append(0.0)
                upper_cards.append(0.0)
                segment = self._segment
                segment[0] = row
                kernel(segment, lower_costs, lower_cards, self._lower_values, None)
                kernel(segment, upper_costs, upper_cards, self._upper_values, None)
            # Sort orders: file scans, temporaries and hash joins (which
            # scramble any input order) deliver none.
            if kind is HashJoin or kind is FileScan or kind is Materialized:
                orders = frozenset()
            elif kind is MergeJoin:
                primary = plan.predicates[0]
                orders = frozenset((primary.left_attribute, primary.right_attribute))
            elif kind is Sort:
                orders = frozenset((plan.attribute,))
            elif kind is BTreeScan or kind is FilterBTreeScan:
                orders = frozenset(("%s.%s" % (plan.relation_name, plan.attribute),))
            else:  # Filter, Project, IndexJoin
                orders = results[inputs[0]].sort_orders
            result = CostResult(
                Interval.from_floats(lower_costs[slot], upper_costs[slot]),
                Interval.from_floats(lower_cards[slot], upper_cards[slot]),
                orders,
            )
        results.append(result)
        slots[plan] = slot
        self.evaluations += 1
        return slot

    def _choose_plan(self, results):
        cost = choose_plan_cost(
            [result.cost for result in results], self.choose_plan_overhead
        )
        cardinality = Interval.hull([result.cardinality for result in results])
        orders = frozenset.intersection(*[result.sort_orders for result in results])
        return CostResult(cost, cardinality, orders)
