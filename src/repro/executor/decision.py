"""Compiled start-up decision procedures for cached dynamic plans.

The paper's access module embeds each choose-plan's decision procedure
— the alternatives' cost functions — so that start-up only *evaluates*
them under the actual bindings.  The generic path
(:func:`~repro.executor.startup.resolve_dynamic_plan`) interprets the
plan DAG through the interval cost model on every invocation; for a
long-lived service that interpretation overhead dominates the start-up
cost the cache is supposed to make negligible.

:class:`CompiledDecision` performs the interpretation **once**, when a
plan enters the cache: it linearizes the DAG into a topologically
ordered program of scalar cost evaluators with all catalog statistics
(cardinalities, page counts, B-tree heights, join selectivities) baked
in as constants.  Each invocation then runs one linear pass of plain
float arithmetic — no interval objects, no recursion, no isinstance
dispatch, no catalog lookups — makes every choose-plan decision, and
rebuilds only the chosen static plan.

At start-up time every parameter is a point, so interval evaluation
degenerates to scalar evaluation; the compiled formulas replicate the
cost model's arithmetic operation for operation, which makes the
compiled decisions *exactly* the decisions the interpreted path takes
(asserted by the equivalence tests).  Compilation never mutates the
plan, and a compiled procedure keeps no per-invocation state, so one
instance serves any number of threads concurrently.

The same program carries the decision into execution.  A mid-query
checkpoint *pins* a slot — cost ``0.0``, cardinality the observed row
count: the ``Materialized`` step, applied to a slot of the original
program instead of recompiling — and only the slots above the pin are
re-run.  The work arrays of one query, its pins and its dirty slots
are per-query state, so they live in
:class:`~repro.executor.midquery.IncrementalDecider`, never here: the
program stays shared and stateless.  What is the same for every query
(each slot's parents, which steps read which parameter) is derived
here on first request and cached.
"""

import math
import time

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
from repro.common.units import (
    CPU_COST_WEIGHT,
    IO_TIME_PER_PAGE,
    RECORDS_PER_PAGE,
    SEQ_IO_TIME_PER_PAGE,
    access_module_read_seconds,
    pages_for_records,
)
from repro.cost.formulas import (
    SPILL_IO_TIME_PER_PAGE,
    btree_height,
    btree_leaf_pages,
)
from repro.cost.parameters import MEMORY_PARAMETER
from repro.executor.startup import StartupReport, _rebuild


class DecisionCompilationError(PlanError):
    """A plan contains an operator the compiler does not support."""


def _selectivity_resolver(predicate, parameter_space):
    """A ``bindings -> float`` resolver mirroring the runtime valuation.

    A supplied binding always wins; otherwise the parameter's expected
    value applies (the space's when the parameter is registered there,
    the predicate's own compile-time expectation when it is not).
    """
    if not predicate.is_uncertain:
        known = float(predicate.known_selectivity)
        return lambda bindings: known
    name = predicate.selectivity_parameter
    if name in parameter_space:
        expected = parameter_space.get(name).expected
    else:
        expected = predicate.expected_selectivity

    def resolve(bindings):
        if bindings.has_parameter(name):
            return bindings.parameter(name)
        return expected

    return resolve


def _parameter_read(node):
    """The one parameter a node's step reads from the bindings, if any:
    the memory grant (hash join, sort) or an uncertain selectivity."""
    if isinstance(node, (HashJoin, Sort)):
        return MEMORY_PARAMETER
    if isinstance(node, (Filter, FilterBTreeScan)):
        predicate = node.predicate
    elif isinstance(node, IndexJoin):
        predicate = node.residual_predicate
    else:
        return None
    if predicate is not None and predicate.is_uncertain:
        return predicate.selectivity_parameter
    return None


def _fetch_io(record_count, clustered):
    """Scalar twin of ``CostModel._fetch_io_seconds`` (not buffer-aware)."""
    if clustered:
        return record_count / RECORDS_PER_PAGE * SEQ_IO_TIME_PER_PAGE
    return record_count * IO_TIME_PER_PAGE


class CompiledDecision:
    """One dynamic plan compiled into a scalar start-up program.

    ``choose(bindings)`` runs all decision procedures and returns
    ``(static_plan, report)`` with the same semantics as
    :func:`~repro.executor.startup.resolve_dynamic_plan`.
    """

    def __init__(self, plan, catalog, parameter_space):
        self.plan = plan
        self.parameter_space = parameter_space
        self._memory_parameter = parameter_space.get(MEMORY_PARAMETER)
        #: Topological order (children first); pins nodes so the id()
        #: keys of the slot map can never be recycled.
        self._nodes = self._linearize(plan)
        self._slots = {id(node): index for index, node in enumerate(self._nodes)}
        self._program = [self._compile_node(node, catalog) for node in self._nodes]
        self._node_count = plan.node_count()
        self.decision_count = sum(
            1 for node in self._nodes if isinstance(node, ChoosePlan)
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @staticmethod
    def _linearize(plan):
        """Unique DAG nodes in dependency order (children first)."""
        order = []
        visited = set()
        stack = [(plan, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node.inputs():
                stack.append((child, False))
        return order

    def _compile_node(self, node, catalog):
        """One ``fn(costs, cards, bindings, memory, decisions)`` step.

        Each step writes the node's scalar cost and output cardinality
        into its slot of the work arrays.  The arithmetic mirrors the
        corresponding :class:`~repro.cost.formulas.CostModel` formula
        evaluated at a point valuation, operation for operation.
        """
        slot = self._slots[id(node)]

        if isinstance(node, FileScan):
            cardinality = catalog.cardinality(node.relation_name)
            cost = (
                pages_for_records(cardinality) * SEQ_IO_TIME_PER_PAGE
                + cardinality * CPU_COST_WEIGHT
            )

            def file_scan(costs, cards, bindings, memory, decisions):
                costs[slot] = cost
                cards[slot] = cardinality

            return file_scan

        if isinstance(node, BTreeScan):
            cardinality = catalog.cardinality(node.relation_name)
            clustered = self._clustered(catalog, node.relation_name, node.attribute)
            cost = (
                btree_height(cardinality) * IO_TIME_PER_PAGE
                + btree_leaf_pages(cardinality) * SEQ_IO_TIME_PER_PAGE
                + _fetch_io(cardinality, clustered)
                + cardinality * CPU_COST_WEIGHT
            )

            def btree_scan(costs, cards, bindings, memory, decisions):
                costs[slot] = cost
                cards[slot] = cardinality

            return btree_scan

        if isinstance(node, FilterBTreeScan):
            cardinality = catalog.cardinality(node.relation_name)
            clustered = self._clustered(catalog, node.relation_name, node.attribute)
            descend = btree_height(cardinality) * IO_TIME_PER_PAGE
            leaves = btree_leaf_pages(cardinality)
            resolve = _selectivity_resolver(node.predicate, self.parameter_space)

            def filter_btree_scan(costs, cards, bindings, memory, decisions):
                s = resolve(bindings)
                matches = s * cardinality
                costs[slot] = (
                    descend
                    + s * leaves * SEQ_IO_TIME_PER_PAGE
                    + _fetch_io(matches, clustered)
                    + matches * CPU_COST_WEIGHT
                )
                cards[slot] = s * cardinality

            return filter_btree_scan

        if isinstance(node, Filter):
            child = self._slots[id(node.input)]
            resolve = _selectivity_resolver(node.predicate, self.parameter_space)

            def filter_(costs, cards, bindings, memory, decisions):
                card = cards[child]
                costs[slot] = costs[child] + card * CPU_COST_WEIGHT
                cards[slot] = card * resolve(bindings)

            return filter_

        if isinstance(node, HashJoin):
            build = self._slots[id(node.build)]
            probe = self._slots[id(node.probe)]
            join_sel = self._join_selectivity(catalog, node.predicates)

            def hash_join(costs, cards, bindings, memory, decisions):
                build_card = cards[build]
                probe_card = cards[probe]
                build_pages = pages_for_records(build_card)
                probe_pages = pages_for_records(probe_card)
                output = build_card * probe_card * join_sel
                local = (
                    build_card * 2.0 * CPU_COST_WEIGHT
                    + probe_card * 2.0 * CPU_COST_WEIGHT
                    + output * CPU_COST_WEIGHT
                )
                if not (build_pages <= memory or build_pages == 0):
                    local += (
                        2.0
                        * (1.0 - memory / build_pages)
                        * (build_pages + probe_pages)
                        * SPILL_IO_TIME_PER_PAGE
                    )
                costs[slot] = costs[build] + costs[probe] + local
                cards[slot] = build_card * probe_card * join_sel

            return hash_join

        if isinstance(node, MergeJoin):
            left = self._slots[id(node.left)]
            right = self._slots[id(node.right)]
            join_sel = self._join_selectivity(catalog, node.predicates)

            def merge_join(costs, cards, bindings, memory, decisions):
                left_card = cards[left]
                right_card = cards[right]
                output = left_card * right_card * join_sel
                costs[slot] = (
                    costs[left]
                    + costs[right]
                    + (left_card + right_card) * 1.5 * CPU_COST_WEIGHT
                    + output * CPU_COST_WEIGHT
                )
                cards[slot] = left_card * right_card * join_sel

            return merge_join

        if isinstance(node, IndexJoin):
            outer = self._slots[id(node.outer)]
            inner_cardinality = catalog.cardinality(node.inner_relation)
            join_sel = self._join_selectivity(catalog, node.predicates)
            height = btree_height(inner_cardinality)
            matches_per_probe = inner_cardinality * join_sel
            clustered = self._clustered(
                catalog, node.inner_relation, node.inner_attribute
            )
            if node.residual_predicate is not None:
                resolve = _selectivity_resolver(
                    node.residual_predicate, self.parameter_space
                )
            else:
                resolve = None

            def index_join(costs, cards, bindings, memory, decisions):
                outer_card = cards[outer]
                residual = 1.0 if resolve is None else resolve(bindings)
                fetched = outer_card * matches_per_probe
                local = (
                    outer_card * height * IO_TIME_PER_PAGE
                    + _fetch_io(fetched, clustered)
                    + outer_card * CPU_COST_WEIGHT
                    + fetched * CPU_COST_WEIGHT
                    + fetched * residual * CPU_COST_WEIGHT
                )
                costs[slot] = costs[outer] + local
                cards[slot] = outer_card * matches_per_probe * residual

            return index_join

        if isinstance(node, Sort):
            child = self._slots[id(node.input)]

            def sort(costs, cards, bindings, memory, decisions):
                card = cards[child]
                if card <= 1:
                    local = CPU_COST_WEIGHT
                else:
                    pages = pages_for_records(card)
                    # Mirrors CostModel._sort exactly, floor included.
                    local = max(card * math.log(card, 2), 1.0) * CPU_COST_WEIGHT
                    if pages > memory:
                        run_count = pages / max(memory, 2.0)
                        merge_passes = max(
                            1, math.ceil(math.log(run_count, max(memory - 1, 2)))
                        )
                        local += 2.0 * pages * merge_passes * SPILL_IO_TIME_PER_PAGE
                costs[slot] = costs[child] + local
                cards[slot] = card

            return sort

        if isinstance(node, Project):
            child = self._slots[id(node.input)]

            def project(costs, cards, bindings, memory, decisions):
                card = cards[child]
                costs[slot] = costs[child] + card * CPU_COST_WEIGHT
                cards[slot] = card

            return project

        if isinstance(node, Materialized):
            cardinality = float(node.observed_cardinality)

            def materialized(costs, cards, bindings, memory, decisions):
                costs[slot] = 0.0
                cards[slot] = cardinality

            return materialized

        if isinstance(node, ChoosePlan):
            alternatives = [
                (self._slots[id(alternative)], alternative)
                for alternative in node.alternatives
            ]

            def choose_plan(costs, cards, bindings, memory, decisions):
                best_slot = None
                best_alternative = None
                best_cost = None
                for alt_slot, alternative in alternatives:
                    cost = costs[alt_slot]
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_slot = alt_slot
                        best_alternative = alternative
                costs[slot] = best_cost
                cards[slot] = cards[best_slot]
                decisions.append((node, best_alternative))

            return choose_plan

        raise DecisionCompilationError(
            "cannot compile a decision procedure over operator %r" % node
        )

    @staticmethod
    def _clustered(catalog, relation_name, attribute):
        index_info = catalog.index_on(relation_name, attribute)
        return index_info is not None and index_info.clustered

    @staticmethod
    def _join_selectivity(catalog, predicates):
        """Compile-time twin of ``CostModel.join_selectivity``."""
        selectivity = 1.0
        for predicate in predicates:
            left_rel, left_attr = predicate.left_attribute.split(".", 1)
            right_rel, right_attr = predicate.right_attribute.split(".", 1)
            selectivity /= max(
                catalog.domain_size(left_rel, left_attr),
                catalog.domain_size(right_rel, right_attr),
            )
        return selectivity

    # ------------------------------------------------------------------
    # Start-up
    # ------------------------------------------------------------------

    def choose(self, bindings):
        """Run every decision procedure under ``bindings``.

        Returns ``(static_plan, report)`` exactly like
        :func:`~repro.executor.startup.resolve_dynamic_plan`.  All
        working state is local to this call — safe to invoke from any
        number of threads on the same instance.
        """
        return self._choose(bindings, None)

    def choose_memoized(self, bindings, memo):
        """:meth:`choose` with the chosen-plan rebuild memoized.

        ``memo`` maps a decision-outcome key — the tuple of chosen
        alternatives, one per choose-plan in program order — to the
        static plan previously rebuilt for that outcome.  A query
        shape has only a handful of distinct outcomes, so a serving
        tier replaying thousands of bindings rebuilds each chosen plan
        once instead of every invocation.  Decisions themselves are
        always re-evaluated; plans are immutable, so returning the
        memoized object is exact.
        """
        return self._choose(bindings, memo)

    def _choose(self, bindings, memo):
        started = time.perf_counter()
        if bindings.has_parameter(MEMORY_PARAMETER):
            memory = bindings.parameter(MEMORY_PARAMETER)
        else:
            memory = self._memory_parameter.expected
        size = len(self._program)
        costs = [0.0] * size
        cards = [0.0] * size
        decisions = []
        for step in self._program:
            step(costs, cards, bindings, memory, decisions)
        chosen = None
        outcome = None
        if memo is not None:
            outcome = tuple(id(alternative) for _, alternative in decisions)
            chosen = memo.get(outcome)
        if chosen is None:
            chosen_map = {id(node): alternative for node, alternative in decisions}
            chosen = self._rebuild_chosen(self.plan, chosen_map, {})
            if memo is not None:
                memo[outcome] = chosen
        cpu_seconds = time.perf_counter() - started
        report = StartupReport(
            decisions=len(decisions),
            cost_evaluations=size,
            cpu_seconds=cpu_seconds,
            io_seconds=access_module_read_seconds(self._node_count),
            node_count=self._node_count,
            choices=decisions,
        )
        return chosen, report

    def _rebuild_chosen(self, node, chosen_map, memo):
        """The static plan under the decisions, rebuilding only the
        chosen subgraph (losing alternatives are skipped entirely)."""
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, ChoosePlan):
            result = self._rebuild_chosen(chosen_map[id(node)], chosen_map, memo)
        else:
            result = _rebuild(
                node,
                [
                    self._rebuild_chosen(child, chosen_map, memo)
                    for child in node.inputs()
                ],
            )
        memo[id(node)] = result
        return result

    # ------------------------------------------------------------------
    # Mid-query re-decision (the caller owns all per-query state)
    # ------------------------------------------------------------------

    #: Derived on first request, then shared.  Building either twice
    #: yields equal values, so racing threads need no lock.
    _parents = _readers = None

    def __len__(self):
        """Number of slots: one step per distinct plan node."""
        return len(self._program)

    def slot_of(self, node):
        """Slot of a node of the compiled plan (``None`` for any other)."""
        return self._slots.get(id(node))

    def parent_slots(self):
        """``slot -> parent slots``; a choose-plan is its alternatives' parent."""
        if self._parents is None:
            parents = [[] for _ in self._nodes]
            for slot, node in enumerate(self._nodes):
                for child in node.inputs():
                    parents[self._slots[id(child)]].append(slot)
            self._parents = parents
        return self._parents

    def reader_slots(self, parameter):
        """Slots whose step reads ``parameter`` from the bindings."""
        if self._readers is None:
            readers = {}
            for slot, node in enumerate(self._nodes):
                read = _parameter_read(node)
                if read is not None:
                    readers.setdefault(read, []).append(slot)
            self._readers = readers
        return self._readers.get(parameter, ())

    def rerun(self, slots, costs, cards, bindings, pins):
        """Re-run the steps of ``slots`` over the caller's work arrays.

        ``slots`` must ascend (program order is topological) and be
        closed upward, so every step reads current inputs.  A slot in
        ``pins`` (``slot -> Materialized``) takes the checkpoint's values
        and runs no step.  Returns :meth:`choose`'s ``decisions`` for the
        choose-plan steps that ran, and the number of steps run.
        """
        if bindings.has_parameter(MEMORY_PARAMETER):
            memory = bindings.parameter(MEMORY_PARAMETER)
        else:
            memory = self._memory_parameter.expected
        decisions = []
        ran = 0
        for slot in slots:
            checkpoint = pins.get(slot)
            if checkpoint is None:
                self._program[slot](costs, cards, bindings, memory, decisions)
                ran += 1
            else:
                costs[slot] = 0.0
                cards[slot] = float(checkpoint.observed_cardinality)
        return decisions, ran

    def __repr__(self):
        return "CompiledDecision(%d nodes, %d decisions)" % (
            len(self._nodes),
            self.decision_count,
        )
