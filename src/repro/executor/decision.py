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

The same program carries the decision into execution.  Every
re-decision — at a mid-query breaker, at start-up verification, after a
memory drop — is one whole pass of it.  A drained subplan's checkpoint
*pins* its slot: cost ``0.0``, cardinality the observed row count (the
``Materialized`` step, applied to a slot of the original program
instead of recompiling), and the chosen plan is rebuilt with the
checkpoint in the node's place.  Pins and standing choices are the
caller's, passed in per pass, so the program stays shared and
stateless; the selectivities the decisions read (:meth:`read_set`)
are derived here once and cached.
"""

import copy
import time
from operator import itemgetter

from repro.algebra.physical import (
    ChoosePlan,
    Filter,
    FilterBTreeScan,
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


def rebuild_chosen(plan, chosen, built, origins=None):
    """The static plan ``plan`` resolves to under ``chosen``
    (``id(choose_plan) -> alternative``), rebuilding only the chosen
    subgraph: losing alternatives are never visited.

    ``built`` maps ``id(node)`` to the static node built for it and
    fills as the walk goes, children first; an entry placed there
    beforehand (a checkpoint) stands in for its node.  ``origins``, when
    given, maps ``id(static node)`` to the last plan node built into it:
    a choose-plan rather than the alternative it chose.

    The walk recurses on this function rather than on a nested one: a
    nested function that calls itself holds itself in its closure, a
    cycle only the garbage collector frees.
    """
    result = built.get(id(plan))
    if result is None:
        if isinstance(plan, ChoosePlan):
            result = rebuild_chosen(chosen[id(plan)], chosen, built, origins)
        else:
            children = [
                rebuild_chosen(child, chosen, built, origins) for child in plan.inputs()
            ]
            result = _rebuild(plan, children)
        built[id(plan)] = result
        if origins is not None:
            origins[id(result)] = plan
    return result


class CompiledDecision:
    """One dynamic plan compiled into a scalar start-up program.

    ``choose(bindings)`` runs all decision procedures and returns
    ``(static_plan, report)`` with the same semantics as
    :func:`~repro.executor.startup.resolve_dynamic_plan`.  Queries of
    one input signature share one program: :meth:`view` gives each its
    own parameter defaults over the same plan, slots and segments.
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

    def view(self, parameter_space):
        """This program over another query's ``parameter_space``.

        The other query has this plan's input signature, so its
        selections differ from the plan's only in their *expected*
        selectivity, which no compiled row holds: plan, nodes, slots,
        segments and templates are shared, and only the ``(name,
        default)`` reads are made anew, each default the space's
        expected value, as :meth:`_read` takes it.  A request that leaves
        a selectivity unbound decides at the other query's own expected
        value, exactly as a program compiled for it would.
        """
        view = copy.copy(self)
        view.parameter_space = parameter_space
        view._reads = [
            (name, default if name is None else parameter_space.get(name).expected)
            for name, default in self._reads
        ]
        return view

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

    def choose(self, bindings, pins=None):
        """Run every decision procedure under ``bindings``.

        Returns ``(static_plan, report)`` exactly like
        :func:`~repro.executor.startup.resolve_dynamic_plan`.  ``pins``
        are drained nodes (see :meth:`evaluate`); the plan is rebuilt
        with each checkpoint in its node's place.  All working state is
        local to this call — safe to invoke from any number of threads
        on the same instance.
        """
        return self._choose(bindings, None, pins)

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
        return self._choose(bindings, memo, None)

    def evaluate(self, bindings, pins=None):
        """One full pass: every slot's point cost and cardinality under
        ``bindings`` as fresh ``(costs, cards)`` work arrays, plus the
        ``(choose_plan, chosen_alternative)`` decisions in rank order.

        ``pins`` maps a slot to the
        :class:`~repro.algebra.physical.Materialized` checkpoint of its
        drained node.  Once its segment has run, a pinned slot takes cost
        ``0.0`` and the observed row count (the ``Materialized`` step,
        applied to a slot of this program instead of recompiling), and a
        pinned choose-plan decides nothing: its standing choice is kept.
        """
        get = bindings.get_parameter
        values = [get(name, default) for name, default in self._reads]
        costs = self._costs[:]
        cards = self._cards[:]
        decisions = []
        if not pins:
            for kernel, rows in self._segments:
                kernel(rows, costs, cards, values, decisions)
            return costs, cards, decisions
        pinned = [
            (slot, float(checkpoint.observed_cardinality))
            for slot, checkpoint in pins.items()
        ]

        def pin():
            for slot, observed in pinned:
                costs[slot] = 0.0
                cards[slot] = observed

        pin()
        for kernel, rows in self._segments:
            kernel(rows, costs, cards, values, decisions)
            # Before a later rank reads it (one rank's slots never read
            # each other).
            pin()
        slots = self._slots
        decisions = [pair for pair in decisions if slots[id(pair[0])] not in pins]
        return costs, cards, decisions

    def _choose(self, bindings, memo, pins):
        started = time.perf_counter()
        decisions = self.evaluate(bindings, pins)[2]
        outcome = tuple(decisions)
        chosen = None if memo is None else memo.get(outcome)
        if chosen is None:
            built = {id(self._nodes[slot]): pin for slot, pin in (pins or {}).items()}
            chosen_map = {id(node): alternative for node, alternative in decisions}
            chosen = rebuild_chosen(self.plan, chosen_map, built)
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

    #: Derived on first request, then shared.  Building it twice yields
    #: equal values, so racing threads need no lock.
    _read_set = None

    def __len__(self):
        """Number of slots: one step per distinct plan node."""
        return len(self._nodes)

    def slot_of(self, node):
        """Slot of a node of the compiled plan (``None`` for any other)."""
        return self._slots.get(id(node))

    def read_set(self):
        """``{parameter: predicate}`` of every uncertain selectivity some
        choose-plan depends on: once each is exact, so is every decision."""
        if self._read_set is None:
            reads = {}
            below = set()
            # Parents before children: a node is below a choose-plan when
            # it is one or a parent is.
            for node in reversed(self._nodes):
                if id(node) in below or isinstance(node, ChoosePlan):
                    below.update(map(id, node.inputs()))
                    predicate = _uncertain_predicate(node)
                    if predicate is not None:
                        reads.setdefault(predicate.selectivity_parameter, predicate)
            self._read_set = reads
        return self._read_set

    def __repr__(self):
        return "CompiledDecision(%d nodes, %d decisions)" % (
            len(self._nodes),
            self.decision_count,
        )
