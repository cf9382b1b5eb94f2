"""Mid-query re-optimization at pipeline breakers.

The paper decides between alternative plans only at start-up, and its
Section 7 sketches the generalization: "evaluating subplans as part of
choose-plan decision procedures", so that a temporary result's known
cardinality drives the remaining decisions.  This module is that
mechanism, anchored where later work places it: *pipeline breakers*
(arXiv:2010.00728) are where intermediate results materialize anyway,
so observed cardinalities are free.  A re-decision is one whole pass
of the plan's compiled decision program, the one start-up runs, with
every drained subplan pinned to its observed row count.

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
policy triggers — first counts, index-only, every selectivity the
decisions read that nothing has observed yet, then re-runs the program
over the pins.  The re-decision never restarts drained work: the
checkpoint replaces the subplan in every alternative that contains
it, so switching plans costs only the undrained remainder.

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
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    Materialized,
    Sort,
)
from repro.common.errors import ExecutionError
from repro.cost.formulas import CostModel
from repro.cost.parameters import Bindings, ParameterSpace, Valuation
from repro.executor.decision import (
    CompiledDecision,
    _rebuild,
    _uncertain_predicate,
    rebuild_chosen,
)
from repro.executor.engine import (
    ExecutionContext,
    ExecutionResult,
    drive,
    execute_plan,
)
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
        #: Decision-program steps run: one whole program per pass.
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
        #: Wall-clock seconds of the counts and the decision on them
        #: (``0.0`` without :attr:`startup`); not in the run's elapsed.
        self.startup_seconds = 0.0
        self.final_plan = None
        #: (choose_plan, chosen_original) pairs of the final decisions.
        self.choices = []

    @property
    def probes(self):
        """Index-only range counts run before re-decisions."""
        return self.probe_io["index_probes"]

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


def _postorder(plan):
    """Unique nodes, children before parents (innermost-first)."""
    order = []
    _append_postorder(plan, set(), order)
    return order


def _append_postorder(node, seen, order):
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in node.inputs():
        _append_postorder(child, seen, order)
    order.append(node)


def _next_breaker(plan):
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
        if subplan is not plan:
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


def verifies_at_startup(policy, distrusted, read_set):
    """Whether a run under ``policy`` handed ``distrusted`` counts at
    start-up and decides on the counts, in place of any decision made on
    the declared bindings: under ``auto``, when the marks cover every
    selectivity the decisions read (``read_set()``, called only then)."""
    return (
        policy.mode == "auto"
        and bool(distrusted)
        and distrusted.keys() >= read_set().keys()
    )


def strip_checkpoints(plan):
    """Replace every checkpoint by the subplan that produced it: the
    static plan a run's ``final_plan`` executes, costed from scratch."""
    return _strip(plan, {})


def _strip(node, cache):
    cached = cache.get(id(node))
    if cached is not None:
        return cached[1]
    if isinstance(node, Materialized):
        result = _strip(node.original, cache)
    else:
        result = _rebuild(node, [_strip(child, cache) for child in node.inputs()])
    cache[id(node)] = (node, result)
    return result


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
    memo=None,
):
    """Execute a dynamic plan with runtime choose-plan points.

    Returns ``(ExecutionResult, MidQueryReport)``.  The result's
    ``io_snapshot`` covers the *whole* run — start-up counts, breaker
    drains and the final plan — so, less ``report.probe_io``, it is
    directly comparable to a plain
    :func:`~repro.executor.engine.execute_plan` of the same query, and
    the differential tests assert the two are identical.

    ``choices`` optionally seeds the standing choices with start-up
    decisions already made (a
    :class:`~repro.executor.decision.StartupReport`'s ``choices`` list);
    the run then starts from them instead of repeating the start-up
    argmin.  Each re-decision is one whole pass of the plan's
    :class:`~repro.executor.decision.CompiledDecision` over the
    checkpoints so far; a pinned choose-plan keeps its standing choice.
    ``decision`` is that program when the caller holds one (a
    plan-cache entry does); without it the program is compiled on the
    first re-decision, and never for a run that does not re-decide.
    ``tracer`` attaches to the final plan execution only; breaker
    drains run untraced.

    ``distrusted`` (``{parameter: predicate}``, a plan-cache entry's
    record of declarations an earlier run found false) matters only
    under ``auto`` and only when it covers the program's
    :meth:`~repro.executor.decision.CompiledDecision.read_set`: then
    each is counted index-only before any decision (source
    ``"startup"``) and the program decides on the counts in place of
    ``choices`` (:func:`verifies_at_startup`; a caller that knows it
    need not decide first, and passes none); ``report.startup`` is that
    decision and ``report.startup_seconds`` its wall-clock time, which
    the result's ``elapsed_seconds`` leaves out.  When every count
    succeeded the run is ``settled``: every selectivity its decisions
    read is exact, so it executes the decided plan plainly, and a join
    cardinality the estimate gets wrong goes unchecked.  Otherwise the
    breakers are visited as usual, from the decided choices.  ``memo``
    is ``decision``'s chosen-plan memo when the caller keeps one (a
    plan-cache entry's ``chosen_memo``, read together with
    ``decision``): the start-up decision then goes through
    :meth:`~repro.executor.decision.CompiledDecision.choose_memoized`,
    which rebuilds each decided plan once, not once a run.
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
    if decision is not None and decision.plan is not plan:
        raise ExecutionError("decision program was compiled for another plan")

    catalog = database.catalog
    # What decisions read: the caller's bindings, copied at the first
    # observation (the caller's ``bindings`` is never written).
    known = bindings

    def learn(predicate, rows, source):
        """Bind a selectivity to ``rows`` over the relation's stored
        count."""
        nonlocal known
        name = predicate.selectivity_parameter
        declared = Valuation.runtime(parameter_space, known).selectivity(predicate)
        relation = predicate.attribute.partition(".")[0]
        observed = rows / max(1, catalog.cardinality(relation))
        report.rebound[name] = (declared.lower, observed, source)
        if known is bindings:
            known = bindings.copy()
        known.bind(name, observed)

    def compiled():
        nonlocal decision
        if decision is None:
            decision = CompiledDecision(plan, catalog, parameter_space)
        return decision

    def count(source):
        """The one probe rule, at start-up and at breakers alike: count,
        index-only, every selectivity the decisions read
        (:meth:`~repro.executor.decision.CompiledDecision.read_set`) that
        nothing has observed yet."""
        probing = database.io_stats.snapshot()
        for name, predicate in sorted(compiled().read_set().items()):
            if name not in report.rebound:
                if deadline is not None:
                    deadline.check()
                rows = count_qualifying(database, predicate, bindings)
                if rows is not None:
                    learn(predicate, rows, source)
        for key, value in database.io_stats.snapshot().items():
            report.probe_io[key] += value - probing[key]

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

    if verifies_at_startup(policy, distrusted, lambda: compiled().read_set()):
        count("startup")
        chosen, report.startup = decision.choose_memoized(
            known, {} if memo is None else memo
        )
        choices = report.startup.choices
        report.settled = report.rebound.keys() >= decision.read_set().keys()
        # The run's own clock starts after the start-up decision.
        report.startup_seconds = time.perf_counter() - started
        started += report.startup_seconds
        if report.settled:
            return finish(run(chosen, tracer), chosen, choices)

    #: id(choose_plan) -> (choose_plan, its standing choice)
    standing = {
        id(choose): (choose, chosen)
        for choose, chosen in choices or ()
        if chosen is not None
    }
    #: id(dynamic node) -> (dynamic node, its checkpoint)
    pinned = {}
    #: id(node of the current plan) -> dynamic node it was built for
    origins = {}

    def settle(redecide):
        """Rebuild the plan over the pins, first re-deciding when asked
        (one whole pass of the program); whether a standing choice moved."""
        begun = time.perf_counter()
        switched = False
        if redecide:
            program = compiled()
            pins = {program.slot_of(node): pin for node, pin in pinned.values()}
            for choose, chosen in program.evaluate(known, pins)[2]:
                prior = standing.get(id(choose))
                switched = switched or (prior is not None and prior[1] is not chosen)
                standing[id(choose)] = (choose, chosen)
            report.cost_evaluations += len(program)
        origins.clear()
        rebuilt = rebuild_chosen(
            plan,
            {key: chosen for key, (_, chosen) in standing.items()},
            {key: pin for key, (_, pin) in pinned.items()},
            origins,
        )
        report.decision_seconds += time.perf_counter() - begun
        return rebuilt, switched

    # A drained subplan's compile-time cardinality is an *interval*.
    bounds_model = CostModel(catalog, Valuation.bounds(parameter_space))

    current, _ = settle(not choices)
    # Bounded defensively: every iteration pins one more dynamic node,
    # so the loop cannot run longer than the plan has nodes.
    node_count = len(decision) if decision is not None else plan.node_count()
    for _ in range(node_count + 1):
        breaker = _next_breaker(current)
        if breaker is None:
            break
        kind, subplan = breaker
        context = ExecutionContext(
            database,
            bindings,
            parameter_space,
            batch_size=batch_size,
            deadline=deadline,
        )
        layout, rows, _ = drive(subplan, context)
        checkpoint = Materialized(rows, subplan, layout)
        origin = origins.get(id(subplan), subplan)
        pinned[id(origin)] = (origin, checkpoint)
        observed = checkpoint.observed_cardinality
        estimate = bounds_model.evaluate(subplan).cardinality
        # A row count is an integer: a fractional bound rounds outward.
        violated = not floor(estimate.lower) <= observed <= ceil(estimate.upper)
        own = _own_predicate(subplan)
        if own is not None and own.selectivity_parameter not in report.rebound:
            learn(own, observed, "drain")
        report.breakers.append(
            BreakerEvent(kind, subplan, observed, estimate, violated)
        )
        report.checkpoints += 1
        report.checkpoint_records += observed
        if violated:
            report.violations += 1

        redecide = policy.mode == "always" or violated
        if redecide:
            report.redecisions += 1
            count("probe")
        current, switched = settle(redecide)
        report.switches += switched

    final_choices = list(standing.values())
    return finish(run(current, tracer), current, final_choices)
