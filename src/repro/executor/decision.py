"""Compiled start-up decision procedures for cached dynamic plans.

The paper's access module embeds each choose-plan's decision procedure
— the alternatives' cost functions — so that start-up only *evaluates*
them under the actual bindings.  The generic path
(:func:`~repro.executor.startup.resolve_dynamic_plan`) interprets the
plan DAG through the interval cost model on every invocation; for a
long-lived service that interpretation overhead dominates the start-up
cost the cache is supposed to make negligible.

:class:`CompiledDecision` performs the interpretation **once**, when a
plan enters the cache.  It linearizes the DAG (children first; a node's
index is its *slot* in the ``costs``/``cards`` work arrays) and gives
every node a *rank*, one more than the highest rank among its inputs,
so the nodes of one rank are independent.  Each node becomes a *row* —
a plain tuple of its slot, its input slots and its catalog statistics
(cardinalities, B-tree heights, join selectivities) baked in as
constants — and the rows of one (rank, operator kind) form a *segment*,
run by that kind's *kernel*: a module-level ``for`` loop over rows with
the cost formula inline.  Nodes that read neither a parameter nor an
input (scans, temporaries) are filled into template arrays instead.  An
invocation copies the templates, resolves the bindings once into a flat
parameter list that rows index, runs the segments in rank order — plain
float arithmetic, one call per segment rather than per node: no
interval objects, no recursion, no isinstance dispatch, no catalog
lookups — and rebuilds only the chosen static plan.

At start-up time every parameter is a point, so interval evaluation
degenerates to scalar evaluation.  The rows and kernels are
:mod:`repro.cost.formulas`' own — the one statement of each operator's
cost, which :class:`~repro.cost.formulas.CostModel` runs at its two
corners — so a compiled decision is the interpreted path's, bit for
bit (asserted by the equivalence tests).  Only the choose-plan argmin
is this module's.  Compilation never mutates the plan, and a compiled
procedure keeps no per-invocation state, so one instance serves any
number of threads.

The same program carries the decision into execution.  A mid-query
checkpoint *pins* a slot — cost ``0.0``, cardinality the observed row
count: the ``Materialized`` step, applied to a slot of the original
program instead of recompiling — and only the slots above the pin are
re-run, by the same kernels one row at a time.  One query's work
arrays, pins and dirty slots are per-query state, so they live in
:class:`~repro.executor.midquery.IncrementalDecider`, never here: the
program stays shared and stateless.  What is the same for every query
(each slot's parents, which steps read which parameter, the one-row
steps, the selectivities the decisions read) is derived here on first
request and cached.
"""

import time
from operator import itemgetter

from repro.algebra.physical import (
    ChoosePlan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    Sort,
)
from repro.common.errors import PlanError
from repro.common.units import access_module_read_seconds
from repro.cost.formulas import RowBuilder
from repro.cost.parameters import MEMORY_PARAMETER
from repro.executor.startup import StartupReport, _rebuild


class DecisionCompilationError(PlanError):
    """A plan contains an operator the compiler does not support."""


def _uncertain_predicate(node):
    """The uncertain selection predicate a node's step reads, if any."""
    if isinstance(node, (Filter, FilterBTreeScan)):
        predicate = node.predicate
    else:
        predicate = getattr(node, "residual_predicate", None)
    return predicate if predicate is not None and predicate.is_uncertain else None


def _parameter_read(node):
    """The one parameter a node's step reads from the bindings, if any:
    the memory grant (hash join, sort) or an uncertain selectivity."""
    if isinstance(node, (HashJoin, Sort)):
        return MEMORY_PARAMETER
    predicate = _uncertain_predicate(node)
    return None if predicate is None else predicate.selectivity_parameter


# The one kernel of this module: the start-up choose-plan rule.  The
# other kinds' kernels, and the rows they run, are
# :mod:`repro.cost.formulas`'.


def _choose_plan(rows, costs, cards, values, decisions):
    for slot, alternative_slots, pick, node in rows:
        # The first minimal alternative: strict-``<``, first wins.
        if pick is None:
            first, second = alternative_slots
            best = 1 if costs[second] < costs[first] else 0
        else:
            alternative_costs = pick(costs)
            best = alternative_costs.index(min(alternative_costs))
        chosen = alternative_slots[best]
        costs[slot] = costs[chosen]
        cards[slot] = cards[chosen]
        decisions.append((node, node.alternatives[best]))


class CompiledDecision:
    """One dynamic plan compiled into a scalar start-up program.

    ``choose(bindings)`` runs all decision procedures and returns
    ``(static_plan, report)`` with the same semantics as
    :func:`~repro.executor.startup.resolve_dynamic_plan`.
    """

    def __init__(self, plan, catalog, parameter_space):
        self.plan = plan
        self.parameter_space = parameter_space
        #: Topological order (children first); pins nodes so the id()
        #: keys of the slot map can never be recycled.
        self._nodes = self._linearize(plan)
        self._slots = {id(node): index for index, node in enumerate(self._nodes)}
        #: ``(name, default)`` per value of a request's parameter list.
        memory = parameter_space.get(MEMORY_PARAMETER)
        self._reads = [(MEMORY_PARAMETER, memory.expected)]
        #: Work-array templates holding the parameter-free nodes, and
        #: the ``(kernel, rows)`` segments that fill in the rest.
        self._costs = [0.0] * len(self._nodes)
        self._cards = [0.0] * len(self._nodes)
        self._segments = self._build(catalog)
        choices = (rows for kernel, rows in self._segments if kernel is _choose_plan)
        self.decision_count = sum(map(len, choices))

    @classmethod
    def rebound(cls, program, nodes, parameter_space):
        """``program`` moved onto a re-bound copy of its plan.

        ``nodes`` maps each node of ``program.plan`` by ``id()`` to its
        copy (:func:`~repro.executor.startup.rebind_plan`), and
        ``parameter_space`` is the copy's query's, registering every
        parameter the plan reads, as a query's space does.  Segments
        and templates are shared — rows hold only slots, read indices
        and catalog constants — so only the choose-plan rows, which name
        their node, and each read's default, the copy's expected value,
        are made anew.  The result equals a program compiled from the
        copy, at a fraction of the cost.
        """
        self = cls.__new__(cls)
        self.plan = nodes[id(program.plan)]
        self.parameter_space = parameter_space
        self._nodes = [nodes[id(node)] for node in program._nodes]
        self._slots = {id(node): index for index, node in enumerate(self._nodes)}
        self._reads = [
            (name, default if name is None else parameter_space.get(name).expected)
            for name, default in program._reads
        ]
        self._costs = program._costs
        self._cards = program._cards
        self._segments = []
        for kernel, rows in program._segments:
            if kernel is _choose_plan:
                rows = [row[:3] + (nodes[id(row[3])],) for row in rows]
            self._segments.append((kernel, rows))
        self.decision_count = program.decision_count
        return self

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

    def _build(self, catalog):
        """Fill the templates; group every other node's row by (rank,
        kernel).  A node ranks one above its highest input, so segments
        run in rank order read only finished slots."""
        rows = RowBuilder(catalog, self._read)
        ranks = []
        groups = {}
        for slot, node in enumerate(self._nodes):
            inputs = [self._slots[id(child)] for child in node.inputs()]
            rank = 1 + max(map(ranks.__getitem__, inputs), default=0)
            ranks.append(rank)
            if isinstance(node, ChoosePlan):
                pick = itemgetter(*inputs) if len(inputs) > 2 else None
                built = _choose_plan, (slot, tuple(inputs), pick, node)
            else:
                built = rows.row(node, slot, inputs)
                if built is None:
                    raise DecisionCompilationError(
                        "cannot compile a decision procedure over operator %r"
                        % node
                    )
            kernel, row = built
            if kernel is None:
                self._costs[slot], self._cards[slot] = row
            else:
                groups.setdefault((rank, kernel), []).append(row)
        # A stable sort: the kinds of one rank keep first-seen order.
        order = sorted(groups, key=itemgetter(0))
        return [(kernel, groups[rank, kernel]) for rank, kernel in order]

    def _read(self, predicate):
        """Index of a predicate's selectivity in the request's value list.

        Mirrors the runtime valuation: a supplied binding wins; otherwise
        the expected value applies (the space's when the parameter is
        registered there, else the predicate's own).  A known selectivity
        — and the ``1.0`` of an absent index-join residual — is a read
        under no name, which no bindings supply.
        """
        if predicate is None:
            read = (None, 1.0)
        elif not predicate.is_uncertain:
            read = (None, float(predicate.known_selectivity))
        else:
            name = predicate.selectivity_parameter
            if name in self.parameter_space:
                read = (name, self.parameter_space.get(name).expected)
            else:
                read = (name, predicate.expected_selectivity)
        if read not in self._reads:
            self._reads.append(read)
        return self._reads.index(read)

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

        ``memo`` maps a decision-outcome key — the (choose-plan, chosen
        alternative) pairs in rank order, deterministic per program — to
        the static plan rebuilt for that outcome.  A query shape has only a
        handful of distinct outcomes, so a serving tier replaying
        thousands of bindings rebuilds each chosen plan once instead of
        every invocation.  Decisions themselves are always re-evaluated;
        plans are immutable, so returning the memoized object is exact.
        """
        return self._choose(bindings, memo)

    def evaluate(self, bindings):
        """One full pass: every slot's point cost and cardinality under
        ``bindings`` as fresh ``(costs, cards)`` work arrays, plus the
        ``(choose_plan, chosen_alternative)`` decisions in rank order."""
        get = bindings.get_parameter
        values = [get(name, default) for name, default in self._reads]
        costs = self._costs[:]
        cards = self._cards[:]
        decisions = []
        for kernel, rows in self._segments:
            kernel(rows, costs, cards, values, decisions)
        return costs, cards, decisions

    def _choose(self, bindings, memo):
        started = time.perf_counter()
        decisions = self.evaluate(bindings)[2]
        outcome = tuple(decisions)
        chosen = None if memo is None else memo.get(outcome)
        if chosen is None:
            chosen_map = {id(node): alternative for node, alternative in decisions}
            chosen = self._rebuild_chosen(self.plan, chosen_map, {})
            if memo is not None:
                memo[outcome] = chosen
        cpu_seconds = time.perf_counter() - started
        report = StartupReport(
            decisions=len(decisions),
            cost_evaluations=len(self._nodes),
            cpu_seconds=cpu_seconds,
            io_seconds=access_module_read_seconds(len(self._nodes)),
            node_count=len(self._nodes),
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

    #: Derived on first request, then shared.  Building any twice
    #: yields equal values, so racing threads need no lock.
    _parents = _readers = _steps = _read_set = None

    def __len__(self):
        """Number of slots: one step per distinct plan node."""
        return len(self._nodes)

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

    def selectivity_reads(self, slots, pins):
        """``{parameter: predicate}`` of every uncertain selectivity the
        choose-plans among ``slots`` depend on: read at or below one,
        without descending into a slot of ``pins``."""
        nodes = self._nodes
        stack = [nodes[s] for s in slots if isinstance(nodes[s], ChoosePlan)]
        seen = set()
        reads = {}
        while stack:
            node = stack.pop()
            if id(node) in seen or self._slots[id(node)] in pins:
                continue
            seen.add(id(node))
            predicate = _uncertain_predicate(node)
            if predicate is not None:
                reads.setdefault(predicate.selectivity_parameter, predicate)
            stack.extend(node.inputs())
        return reads

    def read_set(self):
        """``{parameter: predicate}`` of every uncertain selectivity some
        choose-plan depends on: once each is exact, so is every decision."""
        if self._read_set is None:
            self._read_set = self.selectivity_reads(range(len(self._nodes)), {})
        return self._read_set

    def rerun(self, slots, costs, cards, bindings, pins):
        """Re-run the steps of ``slots`` over the caller's work arrays.

        ``slots`` must ascend (program order is topological) and be
        closed upward, so every step reads current inputs.  A slot in
        ``pins`` (``slot -> Materialized``) takes the checkpoint's values
        and runs no step.  Returns :meth:`choose`'s ``decisions`` for the
        choose-plan steps that ran, and the number of steps run.
        """
        steps = self._steps
        if steps is None:
            # One-row segments; a template slot keeps ``None``.
            steps = [None] * len(self._nodes)
            for kernel, rows in self._segments:
                for row in rows:
                    steps[row[0]] = (kernel, (row,))
            self._steps = steps
        get = bindings.get_parameter
        values = [get(name, default) for name, default in self._reads]
        decisions = []
        ran = 0
        for slot in slots:
            checkpoint = pins.get(slot)
            if checkpoint is not None:
                costs[slot] = 0.0
                cards[slot] = float(checkpoint.observed_cardinality)
                continue
            step = steps[slot]
            if step is None:
                costs[slot] = self._costs[slot]
                cards[slot] = self._cards[slot]
            else:
                step[0](step[1], costs, cards, values, decisions)
            ran += 1
        return decisions, ran

    def __repr__(self):
        return "CompiledDecision(%d nodes, %d decisions)" % (
            len(self._nodes),
            self.decision_count,
        )
