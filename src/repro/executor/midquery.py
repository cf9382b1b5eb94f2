"""Mid-query re-optimization at pipeline breakers.

The paper decides between alternative plans only at start-up, and its
Section 7 sketches the generalization: "evaluating subplans as part of
choose-plan decision procedures", so that a temporary result's known
cardinality drives the remaining decisions.  This module is that
mechanism, anchored where later work places it: *pipeline breakers*
(arXiv:2010.00728) are where intermediate results materialize anyway,
so observed cardinalities are free, and *incremental re-costing*
(arXiv:1409.6288) bounds the re-decision overhead by re-running only
the steps of the plan's compiled decision program whose inputs moved.

Three breaker kinds are recognised:

``hash_build``
    A hash join's build input has been fully consumed into the hash
    table; its cardinality is exact.
``sort``
    A sort operator has produced its sorted run.
``btree_scan``
    A B-tree scan (plain or filtering) has been drained.

At each breaker :func:`execute_midquery` drains the breaker subplan,
checkpoints the rows into a
:class:`~repro.algebra.physical.Materialized` node, and — when the
policy triggers — re-runs only the *affected* choose-plan decisions
with the observed cardinality pinned.  The re-decision never restarts
drained work: the checkpoint replaces the subplan in every alternative
that contains it, so switching plans costs only the undrained
remainder.

What one run observed need not be relearned by the next.  A caller
that remembers which declared selectivities a run found false (the
plan cache does) passes them as ``distrusted``.  When they are every
selectivity the decisions read, an ``auto`` run counts them at
start-up, before any decision, and is *settled*: it executes the
decided plan with no breaker visited.  The breakers were also where a
misestimated join cardinality showed; a settled run does not look.

I/O identity is the module's core invariant: operators charge
simulated I/O per record *drained*, regardless of whether the record
came from a live iterator or a checkpoint replay (``Materialized``
replays charge nothing), so a drain-then-replay run produces byte-
identical :class:`~repro.storage.iostats.IOStatistics` totals to a
straight streaming run at every batch size.  The differential
tests in ``tests/test_midquery.py`` enforce exactly this.

The buffer pool is not supported on this path: replaying a checkpoint
changes the page-access *order*, which an LRU pool would translate
into different hit rates.  The query service never combines the two.
"""

import time
from math import ceil, floor

from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    Materialized,
    Sort,
)
from repro.common.errors import ExecutionError
from repro.common.units import access_module_read_seconds
from repro.cost.formulas import CostModel
from repro.cost.parameters import Bindings, ParameterSpace, Valuation
from repro.executor.decision import CompiledDecision, _uncertain_predicate
from repro.executor.engine import ExecutionResult, execute_plan
from repro.executor.startup import StartupReport, _rebuild
from repro.executor.vectorized import sargable_key_range
from repro.resilience.deadline import Deadline
from repro.storage.iostats import IOStatistics

#: Valid re-optimization modes.
REOPT_MODES = ("off", "auto", "always")


class ReoptPolicy:
    """When mid-query re-optimization re-decides.

    ``mode`` is ``"off"`` (never re-decide; plain execution), ``"auto"``
    (re-decide only when an observed cardinality leaves its
    compile-time interval), or ``"always"`` (re-decide at every
    breaker: the paper's Section 7 sketch, and the forcing mode the
    differential tests use).
    """

    def __init__(self, mode="auto"):
        if mode not in REOPT_MODES:
            raise ExecutionError(
                "reopt mode must be one of %r, got %r" % (REOPT_MODES, mode)
            )
        self.mode = mode

    @property
    def active(self):
        """Whether this policy ever visits breakers."""
        return self.mode != "off"

    @classmethod
    def parse(cls, text):
        """Parse a CLI policy spec: one of :data:`REOPT_MODES`; empty or
        ``None`` is ``"off"``."""
        return cls((text or "").strip() or "off")

    def to_dict(self):
        """Plain-data form for reports and metrics."""
        return {"mode": self.mode}

    def __repr__(self):
        return "ReoptPolicy(mode=%r)" % (self.mode,)


class BreakerEvent:
    """One pipeline breaker visited during execution."""

    def __init__(self, kind, operator, observed, estimate, violated):
        self.kind = kind
        #: The drained static subplan (build input / sort / scan).
        self.operator = operator
        self.observed = observed
        #: Compile-time cardinality :class:`Interval` of the subplan.
        self.estimate = estimate
        #: Whether the observation left the compile-time interval.
        self.violated = violated

    def to_dict(self):
        """Plain-data form for reports (deterministic fields only)."""
        return {
            "kind": self.kind,
            "operator": self.operator.operator_name(),
            "observed": self.observed,
            "estimate": [self.estimate.lower, self.estimate.upper],
            "violated": self.violated,
        }

    def __repr__(self):
        return "BreakerEvent(%s, observed=%d, violated=%s)" % (
            self.kind,
            self.observed,
            self.violated,
        )


class Redecision:
    """One choose-plan decision re-made at a breaker."""

    __slots__ = ("node", "chosen", "prior", "incumbent_cost", "candidate_cost")

    def __init__(self, node, chosen, prior, incumbent_cost, candidate_cost):
        self.node = node
        self.chosen = chosen
        self.prior = prior
        #: Re-costed value of the previously chosen alternative, or
        #: ``None`` when this is the first decision for the node.
        self.incumbent_cost = incumbent_cost
        self.candidate_cost = candidate_cost

    @property
    def switched(self):
        """Whether the re-decision picked a different alternative."""
        return self.prior is not None and self.chosen is not self.prior

    def __repr__(self):
        return "Redecision(switched=%s, incumbent=%r, candidate=%r)" % (
            self.switched,
            self.incumbent_cost,
            self.candidate_cost,
        )


class DecisionOutcome:
    """Result of one :meth:`IncrementalDecider.decide` pass."""

    def __init__(self, plan, decided, reused, cost_evaluations, seconds, choices):
        self.plan = plan
        #: :class:`Redecision` entries for choose-plans decided this pass.
        self.decided = decided
        #: Choose-plans whose standing choice was kept without an argmin.
        self.reused = reused
        #: Scalar steps of the decision program re-run this pass.
        self.cost_evaluations = cost_evaluations
        self.seconds = seconds
        #: Every standing (choose_plan, chosen_original) pair.
        self.choices = choices

    @property
    def switched(self):
        """Whether any decision changed relative to the incumbent."""
        return any(entry.switched for entry in self.decided)

    def __repr__(self):
        return "DecisionOutcome(decided=%d, reused=%d, evals=%d)" % (
            len(self.decided),
            self.reused,
            self.cost_evaluations,
        )


class MidQueryReport:
    """Accounting of one mid-query-re-optimized execution."""

    def __init__(self, policy):
        self.policy = policy
        #: :class:`BreakerEvent` list, in drain order.
        self.breakers = []
        self.checkpoints = 0
        self.checkpoint_records = 0
        #: Observations that left their compile-time interval.
        self.violations = 0
        #: Re-decision passes run (each may re-make several choices).
        self.redecisions = 0
        #: Passes that changed at least one choice.
        self.switches = 0
        self.decisions_reused = 0
        self.cost_evaluations = 0
        self.decision_seconds = 0.0
        #: ``parameter -> (declared, observed, "startup" | "drain" |
        #: "probe")``: the selectivities decisions read in place of the
        #: declared ones.
        self.rebound = {}
        #: What the probes charged: the run's I/O less this is drains + tail.
        self.probe_io = IOStatistics().snapshot()
        #: The start-up decision made on counted selectivities, or ``None``
        #: when the run verified nothing (see :func:`execute_midquery`).
        self.startup = None
        #: Whether start-up counted every selectivity a decision reads.
        self.settled = False
        self.final_plan = None
        #: (choose_plan, chosen_original) pairs of the final decisions.
        self.choices = []
        #: Every :class:`Redecision` made, across all passes.
        self.redecision_events = []

    @property
    def probes(self):
        """Index-only range counts run before re-decisions."""
        return self.probe_io["index_probes"]

    def note_outcome(self, outcome):
        """Fold one decision pass into the counters."""
        self.decisions_reused += outcome.reused
        self.cost_evaluations += outcome.cost_evaluations
        self.decision_seconds += outcome.seconds
        self.redecision_events.extend(outcome.decided)

    def to_dict(self):
        """Plain-data form; deterministic (no wall-clock values)."""
        return {
            "policy": self.policy.to_dict(),
            "breakers": [event.to_dict() for event in self.breakers],
            "checkpoints": self.checkpoints,
            "checkpoint_records": self.checkpoint_records,
            "violations": self.violations,
            "redecisions": self.redecisions,
            "switches": self.switches,
            "decisions_reused": self.decisions_reused,
            "cost_evaluations": self.cost_evaluations,
            "probes": self.probes,
            "probe_io": dict(self.probe_io),
            "rebound": {name: list(entry) for name, entry in self.rebound.items()},
            "settled": self.settled,
        }

    def render(self):
        """Human-readable summary."""
        lines = [
            "mid-query re-optimization (%s): "
            "%d checkpoint(s), %d violation(s), %d redecision(s), "
            "%d switch(es)%s"
            % (
                self.policy.mode,
                self.checkpoints,
                self.violations,
                self.redecisions,
                self.switches,
                ", settled at start-up" if self.settled else "",
            )
        ]
        for event in self.breakers:
            lines.append(
                "  breaker %-10s %-18s observed=%-6d "
                "estimate=[%g, %g]%s"
                % (
                    event.kind,
                    event.operator.operator_name(),
                    event.observed,
                    event.estimate.lower,
                    event.estimate.upper,
                    "  VIOLATED" if event.violated else "",
                )
            )
        for name, entry in self.rebound.items():
            lines.append("  rebound %s: declared %g, observed %g (%s)" % (name, *entry))
        if self.probes:
            lines.append(
                "  %(index_probes)d index-only probe(s) read %(pages_read)d page(s)"
                % self.probe_io
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            "MidQueryReport(checkpoints=%d, violations=%d, switches=%d)"
            % (self.checkpoints, self.violations, self.switches)
        )


class IncrementalDecider:
    """Incrementally re-decides a dynamic plan's choose-plan operators.

    One decider owns one dynamic plan for the lifetime of a query and
    runs the plan's :class:`~repro.executor.decision.CompiledDecision`
    — the program start-up runs, so start-up, breaker re-decisions and
    memory-drop degradation are one decision procedure.  The program
    is shared and stateless; what belongs to this query lives here: the
    ``costs``/``cards`` work arrays, the pins, and the *dirty* slots,
    whose inputs moved since they were computed.  :meth:`pin` and
    :meth:`rebind` only mark slots dirty; :meth:`decide` re-runs exactly
    those, in program order.

    ``decision`` is the plan's program when the caller holds one (the
    plan cache does); otherwise the first :meth:`decide` compiles it —
    raising :class:`~repro.executor.decision.DecisionCompilationError`
    for a plan the compiler rejects — and a run that only splices
    compiles nothing.  ``choices`` seeds decisions made at start-up.
    """

    def __init__(
        self, plan, catalog, parameter_space, bindings, decision=None, choices=()
    ):
        if decision is not None and decision.plan is not plan:
            raise ExecutionError("decision program was compiled for another plan")
        self.plan = plan
        self.catalog = catalog
        self.parameter_space = parameter_space
        self.bindings = bindings
        self._program = decision
        #: Filled by the first :meth:`decide`; until then every slot is
        #: dirty and nothing needs marking.
        self._costs = self._cards = None
        self._dirty = set()
        #: id(choose_plan) -> (choose_plan, chosen original alternative)
        self._choices = {
            id(choose): (choose, chosen)
            for choose, chosen in choices
            if chosen is not None
        }
        #: id(dynamic node) -> (dynamic node, Materialized checkpoint)
        self._pinned = {}
        #: id(dynamic node) -> (resolved inputs, resolved static node)
        self._resolved = {}
        #: id(resolved node) -> dynamic node it came from
        self._origin = {}

    def origin_of(self, resolved):
        """The dynamic-plan node a resolved node was built from."""
        return self._origin.get(id(resolved), resolved)

    def pin(self, origin, checkpoint):
        """Pin a dynamic node to a materialized checkpoint.

        Every later pass resolves ``origin`` — in *every* alternative
        that shares it — to the checkpoint, whose cost is zero and
        whose cardinality is the observed row count.  Only the slots
        above the pin become dirty.
        """
        self._pinned[id(origin)] = (origin, checkpoint)
        if self._costs is not None:
            self._mark_dirty((self._program.slot_of(origin),))

    def rebind(self, bindings, changed_parameters):
        """Adopt new bindings.

        ``changed_parameters`` names the parameters whose values moved
        (e.g. ``("memory_pages",)`` after a mid-run memory drop); the
        steps that read one, and the slots above those, become dirty.
        """
        self.bindings = bindings
        if self._costs is not None:
            for parameter in changed_parameters:
                self._mark_dirty(self._program.reader_slots(parameter))

    def _mark_dirty(self, slots):
        """Add the upward closure of ``slots`` (the set stays closed)."""
        parents = self._program.parent_slots()
        stack = list(slots)
        while stack:
            slot = stack.pop()
            if slot is not None and slot not in self._dirty:
                self._dirty.add(slot)
                stack.extend(parents[slot])

    def _compiled(self):
        if self._program is None:
            self._program = CompiledDecision(
                self.plan, self.catalog, self.parameter_space
            )
        return self._program

    def _pins(self):
        slot_of = self._program.slot_of
        return {slot_of(node): pin for node, pin in self._pinned.values()}

    def pending_reads(self):
        """``{parameter: predicate}`` the next :meth:`decide` depends on: the
        uncertain selectivities read under a dirty choose-plan, outside pins."""
        program = self._compiled()
        slots = range(len(program)) if self._costs is None else self._dirty
        return program.selectivity_reads(slots, self._pins())

    def decide(self):
        """One decision pass: re-run the dirty slots, rebuild the plan.

        Each dirty choose-plan takes the argmin over its alternatives'
        slots — the comparison
        :func:`~repro.executor.startup.resolve_dynamic_plan` makes,
        strict-``<`` first-wins tie-break included, so a pass under
        unchanged information re-picks the incumbent.  The outcome's
        ``cost_evaluations`` counts the scalar steps re-run (a pinned
        slot runs none) and ``reused`` the standing choices left alone.
        """
        started = time.perf_counter()
        program = self._compiled()
        if self._costs is None:
            self._costs = [0.0] * len(program)
            self._cards = [0.0] * len(program)
            slots = range(len(program))
        else:
            slots = sorted(self._dirty)
        costs = self._costs
        decisions, evaluations = program.rerun(
            slots, costs, self._cards, self.bindings, self._pins()
        )
        self._dirty.clear()
        decided = []
        for choose, chosen in decisions:
            _, prior = self._choices.get(id(choose), (choose, None))
            incumbent = None if prior is None else costs[program.slot_of(prior)]
            candidate = costs[program.slot_of(chosen)]
            decided.append(Redecision(choose, chosen, prior, incumbent, candidate))
            self._choices[id(choose)] = (choose, chosen)
        return self._outcome(started, decided, evaluations)

    def splice(self):
        """Re-resolve the plan over the pins without re-deciding.

        Runs no step and needs no program: standing choices (seeded or
        decided) are kept verbatim, and dirty slots stay dirty for the
        next :meth:`decide`.
        """
        return self._outcome(time.perf_counter(), [], 0)

    def _outcome(self, started, decided, evaluations):
        return DecisionOutcome(
            self._resolve(self.plan, {}),
            decided,
            len(self._choices) - len(decided),
            evaluations,
            time.perf_counter() - started,
            self.choices(),
        )

    def _resolve(self, node, seen):
        """The static plan below ``node`` under the choices and pins.

        A node whose resolved inputs are the objects they were last
        pass resolves to the object it was last pass, so subtrees no
        pin or switch reached keep their identity across passes
        (``execute_midquery`` tracks drained subplans by it).
        """
        key = id(node)
        result = seen.get(key)
        if result is not None:
            return result
        pinned = self._pinned.get(key)
        if pinned is not None:
            result = pinned[1]
        elif isinstance(node, ChoosePlan):
            result = self._resolve(self._choices[key][1], seen)
        else:
            inputs = [self._resolve(child, seen) for child in node.inputs()]
            cached = self._resolved.get(key)
            if cached is not None and cached[0] == inputs:
                result = cached[1]
            else:
                result = _rebuild(node, inputs)
                self._resolved[key] = (inputs, result)
        seen[key] = result
        self._origin[id(result)] = node
        return result

    def choices(self):
        """Current (choose_plan, chosen_original) pairs, decision order."""
        return list(self._choices.values())


def startup_report_from_outcome(outcome, node_count):
    """Adapt a :class:`DecisionOutcome` to the service's report type.

    Charges the access-module read for ``node_count`` nodes exactly as
    :func:`~repro.executor.startup.activate_plan` would, and carries
    ``reused_decisions`` so callers can observe the incremental saving.
    """
    report = StartupReport(
        decisions=len(outcome.decided),
        cost_evaluations=outcome.cost_evaluations,
        cpu_seconds=outcome.seconds,
        io_seconds=access_module_read_seconds(node_count),
        node_count=node_count,
        choices=outcome.choices,
    )
    report.reused_decisions = outcome.reused
    return report


def _postorder(plan):
    """Unique nodes, children before parents (innermost-first)."""
    seen = set()
    order = []

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.inputs():
            visit(child)
        order.append(node)

    visit(plan)
    return order


def _next_breaker(plan, skipped):
    """The innermost undrained pipeline breaker, or ``None``.

    Returns ``(kind, subplan)`` where ``subplan`` is the static subplan
    that materializes at the breaker: a hash join's build input, a sort
    operator, or a B-tree scan.  The plan root is never a breaker
    (draining it would just execute the query), and ``Materialized``
    nodes — checkpoints from earlier breakers — are already drained.
    """
    for node in _postorder(plan):
        if isinstance(node, (BTreeScan, FilterBTreeScan)):
            kind, subplan = "btree_scan", node
        elif isinstance(node, Sort):
            kind, subplan = "sort", node
        elif isinstance(node, HashJoin) and not isinstance(node.build, Materialized):
            kind, subplan = "hash_build", node.build
        else:
            continue
        if subplan is not plan and id(subplan) not in skipped:
            return kind, subplan
    return None


def _own_predicate(subplan):
    """The uncertain predicate of a drained single-relation selection
    (its row count over the relation's is the selectivity), or ``None``."""
    if isinstance(subplan, Filter):
        source = subplan.input
        if isinstance(source, Materialized):  # a drained B-tree scan
            source = source.original
        if not isinstance(source, (FileScan, BTreeScan)):
            return None
    elif not isinstance(subplan, FilterBTreeScan):
        return None
    return _uncertain_predicate(subplan)


def count_qualifying(database, predicate, bindings):
    """Records a selection predicate admits, counted in the B-tree on its
    attribute over the scan's key range (``<`` and ``>`` leave the bound's
    own entries out); ``None`` when no index can answer."""
    relation, _, attribute = predicate.attribute.partition(".")
    op = predicate.comparison.op.value
    if op == "<>" or not database.has_btree(relation, attribute):
        return None
    btree = database.btree(relation, attribute)
    low, high = sargable_key_range(predicate, bindings)
    return btree.count_range(low, high, inclusive=op not in ("<", ">"))


def strip_checkpoints(plan):
    """Replace every checkpoint by the subplan that produced it: the
    static plan a run's ``final_plan`` executes, costed from scratch."""
    cache = {}

    def strip(node):
        cached = cache.get(id(node))
        if cached is not None:
            return cached[1]
        if isinstance(node, Materialized):
            result = strip(node.original)
        else:
            result = _rebuild(node, [strip(child) for child in node.inputs()])
        cache[id(node)] = (node, result)
        return result

    return strip(plan)


def execute_midquery(
    plan,
    database,
    bindings=None,
    parameter_space=None,
    policy=None,
    batch_size=None,
    tracer=None,
    deadline=None,
    choices=None,
    decision=None,
    distrusted=None,
):
    """Execute a dynamic plan with runtime choose-plan points.

    Returns ``(ExecutionResult, MidQueryReport)``.  The result's
    ``io_snapshot`` covers the *whole* run — start-up counts, breaker
    drains and the final plan — so, less ``report.probe_io``, it is
    directly comparable to a plain
    :func:`~repro.executor.engine.execute_plan` of the same query, and
    the differential tests assert the two are identical.

    ``choices`` optionally seeds the decider with start-up decisions
    already made (a :class:`~repro.executor.startup.StartupReport`'s
    ``choices`` list); the initial pass then splices without re-costing
    instead of repeating the start-up argmin.  ``decision`` is the
    plan's :class:`~repro.executor.decision.CompiledDecision` when the
    caller holds one (a plan-cache entry does); without it the program
    is compiled on the first re-decision, and never for a run that only
    splices.  ``tracer`` attaches to the final plan execution only;
    breaker drains run untraced.

    ``distrusted`` (``{parameter: predicate}``, a plan-cache entry's
    record of declarations an earlier run found false) matters only
    under ``auto`` and only when it covers the program's
    :meth:`~repro.executor.decision.CompiledDecision.read_set`: then
    each is counted index-only before any decision (source
    ``"startup"``) and the program decides on the counts in place of
    ``choices``; ``report.startup`` is that decision.  When every count
    succeeded the run is ``settled``: every selectivity its decisions
    read is exact, so it executes the decided plan plainly, and a join
    cardinality the estimate gets wrong goes unchecked.  Otherwise the
    breakers are visited as usual, from the decided choices.
    """
    if plan is None:
        raise ExecutionError("cannot execute an empty plan")
    policy = policy if policy is not None else ReoptPolicy()
    report = MidQueryReport(policy)
    bindings = bindings if bindings is not None else Bindings()
    parameter_space = (
        parameter_space if parameter_space is not None else ParameterSpace()
    )
    deadline = Deadline.ensure(deadline)

    def run(subplan, tracer=None):
        return execute_plan(
            subplan,
            database,
            bindings=bindings,
            parameter_space=parameter_space,
            tracer=tracer,
            batch_size=batch_size,
            deadline=deadline,
        )

    if not policy.active:
        report.final_plan = plan
        return run(plan, tracer), report

    catalog = database.catalog
    # What decisions read: the caller's bindings, copied at the first
    # observation (the caller's ``bindings`` is never written).
    known = bindings

    def learn(predicate, rows, source):
        """Bind a selectivity to ``rows`` over the relation's stored
        count; returns the parameter's name."""
        nonlocal known
        name = predicate.selectivity_parameter
        declared = Valuation.runtime(parameter_space, known).selectivity(predicate)
        relation = predicate.attribute.partition(".")[0]
        observed = rows / max(1, catalog.cardinality(relation))
        report.rebound[name] = (declared.lower, observed, source)
        if known is bindings:
            known = bindings.copy()
        known.bind(name, observed)
        return name

    def count(predicates, source):
        """Count, index-only, each predicate nothing observed yet; returns
        the names counted."""
        probing = database.io_stats.snapshot()
        counted = []
        for name, predicate in sorted(predicates.items()):
            if name not in report.rebound:
                if deadline is not None:
                    deadline.check()
                rows = count_qualifying(database, predicate, bindings)
                if rows is not None:
                    counted.append(learn(predicate, rows, source))
        for key, value in database.io_stats.snapshot().items():
            report.probe_io[key] += value - probing[key]
        return counted

    def finish(tail, final_plan, final_choices):
        after = database.io_stats.snapshot()
        report.final_plan = final_plan
        report.choices = final_choices
        result = ExecutionResult(
            tail.records,
            {key: after[key] - before[key] for key in after},
            list(final_choices),
            time.perf_counter() - started,
            trace=tail.trace,
            profile=tail.profile,
        )
        return result, report

    started = time.perf_counter()
    before = database.io_stats.snapshot()

    if distrusted and policy.mode == "auto":
        if decision is None:
            decision = CompiledDecision(plan, catalog, parameter_space)
        reads = decision.read_set().keys()
        if distrusted.keys() >= reads:
            count(distrusted, "startup")
            chosen, report.startup = decision.choose(known)
            choices = report.startup.choices
            report.settled = report.rebound.keys() >= reads
            if report.settled:
                return finish(run(chosen, tracer), chosen, choices)

    decider = IncrementalDecider(
        plan, catalog, parameter_space, known, decision, choices or ()
    )
    # A drained subplan's compile-time cardinality is an *interval*.
    bounds_model = CostModel(catalog, Valuation.bounds(parameter_space))

    outcome = decider.splice() if choices else decider.decide()
    report.note_outcome(outcome)
    current = outcome.plan

    skipped = set()
    # Bounded defensively: every iteration pins one more dynamic node
    # (or skips one subplan), so the loop cannot run longer than the
    # plan has nodes.
    node_count = len(decision) if decision is not None else plan.node_count()
    for _ in range(node_count + 1):
        breaker = _next_breaker(current, skipped)
        if breaker is None:
            break
        kind, subplan = breaker
        drained = run(subplan)
        skipped.add(id(subplan))
        checkpoint = Materialized(drained.records, subplan)
        decider.pin(decider.origin_of(subplan), checkpoint)
        observed = checkpoint.observed_cardinality
        estimate = bounds_model.evaluate(subplan).cardinality
        # A row count is an integer: a fractional bound rounds outward.
        violated = not floor(estimate.lower) <= observed <= ceil(estimate.upper)
        own = _own_predicate(subplan)
        if own is not None and own.selectivity_parameter not in report.rebound:
            decider.rebind(known, (learn(own, observed, "drain"),))
        report.breakers.append(
            BreakerEvent(kind, subplan, observed, estimate, violated)
        )
        report.checkpoints += 1
        report.checkpoint_records += observed
        if violated:
            report.violations += 1

        if policy.mode == "always" or violated:
            report.redecisions += 1
            # Verify before deciding: count what the decision reads unobserved.
            counted = count(decider.pending_reads(), "probe")
            if counted:
                decider.rebind(known, counted)
            outcome = decider.decide()
            if outcome.switched:
                report.switches += 1
        else:
            outcome = decider.splice()
        report.note_outcome(outcome)
        current = outcome.plan

    return finish(run(current, tracer), current, decider.choices())
