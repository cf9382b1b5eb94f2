"""The start-up decision procedure: a dynamic plan compiled into a program.

The paper's access module embeds each choose-plan's decision procedure
— the alternatives' cost functions — so that start-up only *evaluates*
them under the actual bindings.  This module is the library's one
implementation of that step.  A one-shot activation
(:func:`~repro.executor.startup.resolve_dynamic_plan`) compiles a
program and runs one pass; a long-lived service compiles it once, when
a plan enters the cache, and runs a pass per request.

:class:`CompiledDecision` walks the plan DAG **once**, at compile time.
It linearizes the DAG (children first; a node's
index is its *slot* in the ``costs``/``cards`` work arrays) and gives
every node a *rank*, one more than the highest rank among its inputs,
so the nodes of one rank are independent.  Each node becomes a *row* —
a plain tuple of its slot, its input slots and its catalog statistics
(cardinalities, B-tree heights, join selectivities) baked in as
constants — and the rows of one (rank, operator kind) form a *segment*,
run by that kind's *kernel*: a module-level ``for`` loop over rows with
the cost formula inline.  Nodes that read neither a parameter nor an
input (scans, temporaries) are filled into template arrays instead.  A
row that computes exactly what an earlier row of its rank computes — a
sort of an input another sort already costs (a sort's cost does not
read its key) — is not run: it becomes a ``(slot, source)`` pair in one
copy segment at the end of its rank, so every slot still holds its own
value (paper query 5: 948 rows, 904 run and 44 copied).  A merge join's
commuted twin is never in the plan: the optimizer does not build it
(:class:`~repro.optimizer.rules.JoinToMergeJoin`).  An invocation copies the
templates, resolves the bindings once into a flat parameter list that
rows index, runs the segments in rank order — plain float arithmetic,
one call per segment rather than per node: no interval objects, no
recursion, no isinstance dispatch, no catalog lookups — and rebuilds
only the chosen static plan.  A choose-plan row carries its prebuilt
``(choose_plan, alternative)`` pairs and a pass appends the chosen one,
so the decisions of every pass, and the keys of every chosen-plan memo
over one program, refer to the same pair objects.

At start-up time every parameter is a point, so interval evaluation
degenerates to scalar evaluation.  The rows and kernels are
:mod:`repro.cost.formulas`' own — the one statement of each operator's
cost, which :class:`~repro.cost.formulas.CostModel` runs at its two
corners — so a compiled decision is, bit for bit, that of a walk
costing each alternative through ``CostModel`` at the bindings (the
tests' independent oracle).  Only the choose-plan argmin is this
module's.  Compilation never mutates the plan, and a compiled
procedure keeps no per-invocation state, so one instance serves any
number of threads.

The same program carries the decision into execution.  Every
re-decision — at a mid-query breaker, at start-up verification, after a
memory drop — is one whole pass of it.  A drained subplan's checkpoint
*pins* its slot: cost ``0.0``, cardinality the observed row count (the
``Materialized`` step, applied to a slot of the original program
instead of recompiling), and the chosen plan is rebuilt with the
checkpoint in the node's place.  Pins apply once per rank, after the
rank's copies, so a drained row's undrained twin keeps its computed
value.  Pins and standing choices are the caller's, passed in per pass,
so the program stays shared and stateless; the selectivities the
decisions read (:meth:`read_set`) are derived here once and cached.
"""

import copy
import time
from operator import is_, itemgetter

from repro.algebra.physical import (
    ChoosePlan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    MergeJoin,
    Project,
    Sort,
)
from repro.common.errors import PlanError
from repro.common.units import (
    CATALOG_VALIDATION_SECONDS,
    access_module_read_seconds,
)
from repro.cost.formulas import RowBuilder
from repro.cost.parameters import MEMORY_PARAMETER


class StartupReport:
    """Accounting of one plan activation."""

    def __init__(
        self,
        decisions,
        cost_evaluations,
        cpu_seconds,
        io_seconds,
        node_count,
        choices=(),
    ):
        self.decisions = decisions
        #: Cost functions evaluated: one per plan node that is not a
        #: choose-plan (a choose-plan compares, it costs nothing).
        self.cost_evaluations = cost_evaluations
        self.cpu_seconds = cpu_seconds
        self.io_seconds = io_seconds
        self.node_count = node_count
        #: (choose_plan_node, chosen_original_alternative) pairs
        self.choices = list(choices)

    @property
    def total_seconds(self):
        """Catalog validation + module I/O + decision CPU (time ``f``)."""
        return CATALOG_VALIDATION_SECONDS + self.io_seconds + self.cpu_seconds

    def choice_signature(self):
        """Structural fingerprint of the decisions taken.

        Two activations of the same dynamic plan under the same
        bindings must produce equal choice signatures regardless of
        which thread ran them, and equal the signature of a resolution
        that visits choose-plan nodes in another order: the tests'
        independent reference walk decides depth-first, a program in
        rank order.  Hence order-insensitive.  Linear in the plan DAG:
        one digest per distinct node, shared across the choices.
        """
        memo = {}
        return tuple(
            sorted(
                (node.digest(memo), chosen.digest(memo))
                for node, chosen in self.choices
                if chosen is not None
            )
        )

    def __repr__(self):
        return (
            "StartupReport(decisions=%d, evals=%d, cpu=%.4fs, io=%.4fs)"
            % (
                self.decisions,
                self.cost_evaluations,
                self.cpu_seconds,
                self.io_seconds,
            )
        )


def _rebuild(node, new_children):
    """Copy a node onto resolved children (identity when unchanged)."""
    if all(map(is_, new_children, node.inputs())):
        return node
    kind = type(node)
    if kind is HashJoin or kind is MergeJoin:
        return kind(new_children[0], new_children[1], node.predicates)
    if kind is Filter:
        return Filter(new_children[0], node.predicate)
    if kind is IndexJoin:
        return IndexJoin(
            new_children[0],
            node.inner_relation,
            node.inner_attribute,
            node.predicates,
            residual_predicate=node.residual_predicate,
        )
    if kind is Sort:
        return Sort(new_children[0], node.attribute)
    if kind is Project:
        return Project(new_children[0], node.attributes)
    # Leaves have no children and always hit the identity path above.
    return node


class DecisionCompilationError(PlanError):
    """A plan contains an operator the compiler does not support."""


def _uncertain_predicate(node):
    """The uncertain selection predicate a node's step reads, if any."""
    if isinstance(node, (Filter, FilterBTreeScan)):
        predicate = node.predicate
    else:
        predicate = getattr(node, "residual_predicate", None)
    return predicate if predicate is not None and predicate.is_uncertain else None


# The two kernels of this module: the start-up choose-plan rule, and
# the copy of a row's result into the slots of its twins.  The other
# kinds' kernels, and the rows they run, are :mod:`repro.cost.formulas`'.


def _choose_plan(rows, costs, cards, values, decisions):
    for slot, alternative_slots, pick, pairs in rows:
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
        decisions.append(pairs[best])


def _copy(rows, costs, cards, values, decisions):
    for slot, source in rows:
        costs[slot] = costs[source]
        cards[slot] = cards[source]


def _computation(kernel, row):
    """What a row computes: its kernel and every column but its slot.

    Equal numbers compute alike, but the last column is keyed with its
    type too: a ``fetch`` mode of ``True`` (clustered), which kernels
    test by identity, must not equal a page count of ``1``.
    """
    return kernel, row[1:], type(row[-1])


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
    ``(static_plan, report)``;
    :func:`~repro.executor.startup.resolve_dynamic_plan` is a compile
    and one ``choose``.  Queries of
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
        #: the ``(kernel, rows)`` segments that fill in the rest, per
        #: rank (a pinned pass pins between ranks) and run end to end.
        self._costs = [0.0] * len(self._nodes)
        self._cards = [0.0] * len(self._nodes)
        self._ranks = self._build(catalog)
        self._segments = [segment for rank in self._ranks for segment in rank]
        choices = (rows for kernel, rows in self._segments if kernel is _choose_plan)
        self.decision_count = sum(map(len, choices))

    def view(self, parameter_space):
        """This program over another query's ``parameter_space``.

        The other query has this plan's input signature, so its
        selections differ from the plan's only in their *expected*
        selectivity, which no compiled row holds: plan, nodes, slots,
        segments (decision pairs included) and templates are shared,
        and only the ``(name, default)`` reads are made anew, each
        default the space's expected value, as :meth:`_read` takes it.
        A request that leaves a selectivity unbound decides at the other
        query's own expected value, exactly as a program compiled for it
        would.
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
        """Fill the templates and group every other node's row by rank.

        A node ranks one above its highest input, so ranks run in order
        read only finished slots.  A rank is its segments, one per
        kernel, and then one ``_copy`` segment: a row that computes what
        an earlier row of its rank computes (:func:`_computation`, over
        its real input slots, never through a copy) is not run but
        copied from that row's slot.  Returns the segments of each rank.
        """
        rows = RowBuilder(catalog, self._read)
        ranks = []
        groups = {}
        sources = {}
        for slot, node in enumerate(self._nodes):
            inputs = [self._slots[id(child)] for child in node.inputs()]
            rank = 1 + max(map(ranks.__getitem__, inputs), default=0)
            ranks.append(rank)
            if isinstance(node, ChoosePlan):
                pick = itemgetter(*inputs) if len(inputs) > 2 else None
                pairs = tuple((node, alternative) for alternative in node.alternatives)
                kernel, row = _choose_plan, (slot, tuple(inputs), pick, pairs)
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
                    continue
                source = sources.setdefault((rank, _computation(kernel, row)), slot)
                if source != slot:
                    kernel, row = _copy, (slot, source)
            groups.setdefault((rank, kernel), []).append(row)
        # A stable sort: the kinds of one rank keep first-seen order, and
        # its copies run last.
        order = sorted(groups, key=lambda group: (group[0], group[1] is _copy))
        segments = {}
        for rank, kernel in order:
            segments.setdefault(rank, []).append((kernel, groups[rank, kernel]))
        return list(segments.values())

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

        Returns ``(static_plan, report)``, the report's
        ``cost_evaluations`` one per slot that is not a choose-plan.
        ``pins``
        are drained nodes (see :meth:`evaluate`); the plan is rebuilt
        with each checkpoint in its node's place.  All working state is
        local to this call — safe to invoke from any number of threads
        on the same instance.
        """
        return self._choose(bindings, None, pins)

    def choose_memoized(self, bindings, memo):
        """:meth:`choose` with the chosen-plan rebuild memoized.

        ``memo`` maps a decision-outcome key — the (choose-plan, chosen
        alternative) pairs in rank order, deterministic per program and
        the program's own pair objects — to the static plan rebuilt for
        that outcome.  A query shape has only a handful of distinct
        outcomes, so a serving tier replaying thousands of bindings
        rebuilds each chosen plan once instead of every invocation.
        Decisions themselves are always re-evaluated; plans are
        immutable, so returning the memoized object is exact.
        """
        return self._choose(bindings, memo, None)

    def evaluate(self, bindings, pins=None):
        """One full pass: every slot's point cost and cardinality under
        ``bindings`` as fresh ``(costs, cards)`` work arrays, plus the
        ``(choose_plan, chosen_alternative)`` decisions in rank order.

        ``pins`` maps a slot to the
        :class:`~repro.algebra.physical.Materialized` checkpoint of its
        drained node.  Once its rank has run, copies included, a pinned
        slot takes cost ``0.0`` and the observed row count (the
        ``Materialized`` step, applied to a slot of this program instead
        of recompiling), and a pinned choose-plan decides nothing: its
        standing choice is kept.
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
        for segments in self._ranks:
            for kernel, rows in segments:
                kernel(rows, costs, cards, values, decisions)
            # Before a later rank reads it (one rank's slots never read
            # each other), and after the rank's copies: a pinned row's
            # twin keeps the value the row computed.
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
            cost_evaluations=len(self._nodes) - self.decision_count,
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
