"""Mid-query re-optimization at pipeline breakers.

The paper decides between alternative plans only at start-up; this
module extends the choose-plan idea into execution, following the two
natural anchor points identified by later work: *pipeline breakers*
(arXiv:2010.00728) are where intermediate results materialize anyway,
so observed cardinalities are free, and *incremental re-costing*
(arXiv:1409.6288) keeps the re-decision overhead bounded by re-costing
only the memo groups whose inputs actually moved.

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
remainder.  A ``restart`` switch strategy (re-executing the switched
plan from scratch) exists purely as the baseline the benchmark beats.

I/O identity is the module's core invariant: operators charge
simulated I/O per record *drained*, regardless of whether the record
came from a live iterator or a checkpoint replay (``Materialized``
replays charge nothing), so a drain-then-replay run produces byte-
identical :class:`~repro.storage.iostats.IOStatistics` totals to a
straight streaming run in both execution modes.  The differential
tests in ``tests/test_midquery.py`` enforce exactly this.

The buffer pool is not supported on this path: replaying a checkpoint
changes the page-access *order*, which an LRU pool would translate
into different hit rates.  The query service never combines the two.
"""

import time

from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    Materialized,
    Sort,
)
from repro.common.errors import ExecutionError
from repro.common.units import access_module_read_seconds
from repro.cost.formulas import CostModel
from repro.cost.parameters import (
    Bindings,
    MEMORY_PARAMETER,
    ParameterSpace,
    Valuation,
)
from repro.executor.engine import ExecutionResult, execute_plan
from repro.executor.startup import StartupReport, _rebuild
from repro.resilience.deadline import Deadline

#: Pipeline-breaker kinds a policy may re-decide at.
BREAKER_KINDS = ("hash_build", "sort", "btree_scan")

#: Valid re-optimization modes.
REOPT_MODES = ("off", "auto", "always")

#: Operator kinds whose cost formulas read the memory grant.
_MEMORY_SENSITIVE = (BTreeScan, FilterBTreeScan, HashJoin, IndexJoin, Sort)


class ReoptPolicy:
    """When and where mid-query re-optimization happens.

    ``mode`` is ``"off"`` (never re-decide; plain execution), ``"auto"``
    (re-decide only when an observed cardinality leaves its
    compile-time interval), or ``"always"`` (re-decide at every
    breaker — the forcing mode the differential tests and the
    benchmark use).  ``breakers`` restricts which breaker kinds act as
    decision points.  ``on_switch`` is ``"splice"`` (continue over the
    checkpoints; the paper-faithful strategy) or ``"restart"``
    (re-execute the switched plan from scratch; the benchmark's
    baseline).
    """

    def __init__(self, mode="auto", breakers=BREAKER_KINDS, on_switch="splice"):
        if mode not in REOPT_MODES:
            raise ExecutionError(
                "reopt mode must be one of %r, got %r" % (REOPT_MODES, mode)
            )
        breakers = tuple(breakers)
        for kind in breakers:
            if kind not in BREAKER_KINDS:
                raise ExecutionError(
                    "unknown breaker kind %r (valid: %r)"
                    % (kind, BREAKER_KINDS)
                )
        if on_switch not in ("splice", "restart"):
            raise ExecutionError(
                "on_switch must be 'splice' or 'restart', got %r" % (on_switch,)
            )
        self.mode = mode
        self.breakers = breakers
        self.on_switch = on_switch

    @property
    def active(self):
        """Whether this policy ever visits breakers."""
        return self.mode != "off" and bool(self.breakers)

    @classmethod
    def parse(cls, text):
        """Parse a CLI policy spec.

        Grammar: ``mode[+restart][:breaker,breaker,...]`` — e.g.
        ``"off"``, ``"auto"``, ``"always"``, ``"always:sort,hash_build"``,
        ``"always+restart"``.
        """
        text = (text or "").strip()
        if not text:
            return cls("off")
        if ":" in text:
            head, _, tail = text.partition(":")
            breakers = tuple(
                part.strip() for part in tail.split(",") if part.strip()
            )
        else:
            head, breakers = text, BREAKER_KINDS
        on_switch = "splice"
        if "+" in head:
            head, _, strategy = head.partition("+")
            on_switch = strategy.strip()
        return cls(head.strip(), breakers or BREAKER_KINDS, on_switch)

    def to_dict(self):
        """Plain-data form for reports and metrics."""
        return {
            "mode": self.mode,
            "breakers": list(self.breakers),
            "on_switch": self.on_switch,
        }

    def __repr__(self):
        return "ReoptPolicy(mode=%r, breakers=%r, on_switch=%r)" % (
            self.mode,
            self.breakers,
            self.on_switch,
        )


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
        #: Choose-plan decisions answered from cache (not re-costed).
        self.reused = reused
        self.cost_evaluations = cost_evaluations
        self.seconds = seconds
        #: All (choose_plan, chosen_original) pairs on the resolved path.
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
        #: Whether the ``restart`` strategy re-executed from scratch.
        self.restarted = False
        self.final_plan = None
        #: (choose_plan, chosen_original) pairs of the final decisions.
        self.choices = []
        #: Every :class:`Redecision` made, across all passes.
        self.redecision_events = []

    def note_outcome(self, outcome):
        """Fold one decision pass into the counters."""
        self.decisions_reused += outcome.reused
        self.cost_evaluations += outcome.cost_evaluations
        self.decision_seconds += outcome.seconds
        self.redecision_events.extend(outcome.decided)

    def counters(self):
        """The counter subset the query service mirrors into metrics."""
        return {
            "checkpoints": self.checkpoints,
            "violations": self.violations,
            "redecisions": self.redecisions,
            "switches": self.switches,
        }

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
            "restarted": self.restarted,
        }

    def render(self):
        """Human-readable summary."""
        lines = [
            "mid-query re-optimization (%s, on_switch=%s): "
            "%d checkpoint(s), %d violation(s), %d redecision(s), "
            "%d switch(es)"
            % (
                self.policy.mode,
                self.policy.on_switch,
                self.checkpoints,
                self.violations,
                self.redecisions,
                self.switches,
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
        if self.restarted:
            lines.append("  restarted from scratch after switch")
        return "\n".join(lines)

    def __repr__(self):
        return (
            "MidQueryReport(checkpoints=%d, violations=%d, switches=%d)"
            % (self.checkpoints, self.violations, self.switches)
        )


def _selection_predicates(node):
    """Selection predicates on a node whose selectivity may be uncertain."""
    if isinstance(node, (Filter, FilterBTreeScan)):
        return (node.predicate,)
    if isinstance(node, IndexJoin) and node.residual_predicate is not None:
        return (node.residual_predicate,)
    return ()


class IncrementalDecider:
    """Incrementally re-decides a dynamic plan's choose-plan operators.

    One decider owns one dynamic plan for the lifetime of a query.  Its
    cost model's memo table and its resolved-subplan cache persist
    across decision passes, so a re-decision after :meth:`pin` or
    :meth:`rebind` only re-costs the memo groups the new information
    can actually reach — everything else is answered from cache
    (``DecisionOutcome.reused`` / ``cost_evaluations`` make the saving
    observable, and the regression tests pin it down).
    """

    def __init__(self, plan, catalog, parameter_space, bindings):
        self.plan = plan
        self.catalog = catalog
        self.parameter_space = parameter_space
        self.bindings = bindings
        self._model = CostModel(
            catalog, Valuation.runtime(parameter_space, bindings)
        )
        #: id(dynamic node) -> (dynamic node, resolved static node)
        self._resolved = {}
        #: id(choose_plan) -> (choose_plan, chosen original alternative)
        self._choices = {}
        #: id(dynamic node) -> (dynamic node, Materialized checkpoint)
        self._pinned = {}
        #: id(resolved node) -> dynamic node it came from
        self._origin = {}
        #: id(dynamic node) -> parent dynamic nodes (for upward invalidation)
        self._parents = {}
        for node in plan.walk_unique():
            for child in node.inputs():
                self._parents.setdefault(id(child), []).append(node)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def origin_of(self, resolved):
        """The dynamic-plan node a resolved node was built from."""
        return self._origin.get(id(resolved), resolved)

    def pin(self, origin, checkpoint):
        """Pin a dynamic node to a materialized checkpoint.

        Every later pass resolves ``origin`` — in *every* alternative
        that shares it — to the checkpoint, whose cost is zero and
        whose cardinality is the observed row count.  The resolved
        cache is invalidated upward from the pin, so only ancestors of
        the checkpoint are ever re-costed.
        """
        self._pinned[id(origin)] = (origin, checkpoint)
        self._invalidate_upward(origin)

    def _invalidate_upward(self, node):
        stack = [node]
        seen = set()
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            self._resolved.pop(id(current), None)
            stack.extend(self._parents.get(id(current), ()))

    def rebind(self, bindings, changed_parameters):
        """Adopt new bindings, keeping every unaffected memo entry.

        ``changed_parameters`` names the parameters whose values moved
        (e.g. ``("memory_pages",)`` after a mid-run memory drop).  Memo
        entries and resolved subplans whose subtree neither contains a
        memory-sensitive operator (for a memory change) nor mentions a
        changed selectivity parameter are carried over verbatim — the
        incremental alternative to the old "re-run the whole start-up
        decision" degradation path.
        """
        changed = frozenset(changed_parameters)
        self.bindings = bindings
        old_cache = self._model._cache
        self._model = CostModel(
            self.catalog, Valuation.runtime(self.parameter_space, bindings)
        )
        affected = {}

        def is_affected(node):
            known = affected.get(id(node))
            if known is not None:
                return known
            result = False
            for inner in node.walk_unique():
                if MEMORY_PARAMETER in changed and isinstance(
                    inner, _MEMORY_SENSITIVE
                ):
                    result = True
                    break
                for predicate in _selection_predicates(inner):
                    if (
                        predicate.is_uncertain
                        and predicate.selectivity_parameter in changed
                    ):
                        result = True
                        break
                if result:
                    break
            affected[id(node)] = result
            return result

        for key, entry in old_cache.items():
            if not is_affected(entry[0]):
                self._model._cache[key] = entry
        for key in [
            key
            for key, entry in self._resolved.items()
            if is_affected(entry[0]) and key not in self._pinned
        ]:
            del self._resolved[key]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(self, reuse_all=False):
        """One decision pass over the dynamic plan.

        With ``reuse_all=False`` every choose-plan whose cache entry
        was invalidated is re-decided by the argmin over its resolved
        alternatives' re-costed values — the exact comparison
        :func:`~repro.executor.startup.resolve_dynamic_plan` makes at
        start-up, including its strict-``<`` tie-break, so a pass under
        unchanged information re-picks the incumbent.  With
        ``reuse_all=True`` (see :meth:`splice`) prior choices are kept
        verbatim and only the plan structure is re-resolved, which
        splices pinned checkpoints in without changing any decision.
        """
        started = time.perf_counter()
        evaluations_before = self._model.evaluations
        decided = []
        choices = []
        reused = [0]

        def resolve(node):
            cached = self._resolved.get(id(node))
            if cached is not None:
                if isinstance(node, ChoosePlan):
                    reused[0] += 1
                    prior = self._choices.get(id(node))
                    if prior is not None:
                        choices.append(prior)
                return cached[1]
            pinned = self._pinned.get(id(node))
            if pinned is not None:
                result = pinned[1]
            elif isinstance(node, ChoosePlan):
                prior = self._choices.get(id(node))
                if reuse_all and prior is not None:
                    reused[0] += 1
                    choices.append(prior)
                    result = resolve(prior[1])
                else:
                    best = None
                    best_original = None
                    best_cost = None
                    costs = {}
                    for alternative in node.alternatives:
                        resolved_alternative = resolve(alternative)
                        cost = self._model.evaluate(
                            resolved_alternative
                        ).cost.lower
                        costs[id(alternative)] = cost
                        if best_cost is None or cost < best_cost:
                            best_cost = cost
                            best = resolved_alternative
                            best_original = alternative
                    prior_original = prior[1] if prior is not None else None
                    incumbent_cost = (
                        costs.get(id(prior_original))
                        if prior_original is not None
                        else None
                    )
                    decided.append(
                        Redecision(
                            node,
                            best_original,
                            prior_original,
                            incumbent_cost,
                            best_cost,
                        )
                    )
                    self._choices[id(node)] = (node, best_original)
                    choices.append((node, best_original))
                    result = best
            else:
                result = _rebuild(
                    node, [resolve(child) for child in node.inputs()]
                )
            self._resolved[id(node)] = (node, result)
            self._origin[id(result)] = node
            return result

        plan = resolve(self.plan)
        seconds = time.perf_counter() - started
        return DecisionOutcome(
            plan,
            decided,
            reused[0],
            self._model.evaluations - evaluations_before,
            seconds,
            choices,
        )

    def splice(self):
        """Re-resolve the plan over the pins without re-deciding."""
        return self.decide(reuse_all=True)

    def cost_of(self, plan):
        """Re-costed value of a (resolved) plan under current bindings."""
        return self._model.evaluate(plan).cost.lower

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


def _next_breaker(plan, kinds, skipped):
    """The innermost undrained pipeline breaker, or ``None``.

    Returns ``(kind, subplan)`` where ``subplan`` is the static subplan
    that materializes at the breaker: a hash join's build input, a sort
    operator, or a B-tree scan.  The plan root is never a breaker
    (draining it would just execute the query), and ``Materialized``
    nodes — checkpoints from earlier breakers — are already drained.
    """
    for node in _postorder(plan):
        if (
            isinstance(node, (BTreeScan, FilterBTreeScan))
            and "btree_scan" in kinds
            and node is not plan
            and id(node) not in skipped
        ):
            return ("btree_scan", node)
        if (
            isinstance(node, Sort)
            and "sort" in kinds
            and node is not plan
            and id(node) not in skipped
        ):
            return ("sort", node)
        if isinstance(node, HashJoin) and "hash_build" in kinds:
            build = node.build
            if (
                not isinstance(build, Materialized)
                and build is not plan
                and id(build) not in skipped
            ):
                return ("hash_build", build)
    return None


def _strip_checkpoints(plan):
    """Replace every checkpoint by the subplan that produced it."""
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
    execution_mode="row",
    batch_size=None,
    tracer=None,
    deadline=None,
    choices=None,
):
    """Execute a dynamic plan with runtime choose-plan points.

    Returns ``(ExecutionResult, MidQueryReport)``.  The result's
    ``io_snapshot`` covers the *whole* run — breaker drains plus the
    final plan — so it is directly comparable to a plain
    :func:`~repro.executor.engine.execute_plan` of the same query, and
    the differential tests assert the two are identical.

    ``choices`` optionally seeds the decider with start-up decisions
    already made (a :class:`~repro.executor.startup.StartupReport`'s
    ``choices`` list); the initial pass then splices without re-costing
    instead of repeating the start-up argmin.  ``tracer`` attaches to
    the final plan execution only; breaker drains run untraced.
    """
    if plan is None:
        raise ExecutionError("cannot execute an empty plan")
    policy = policy if policy is not None else ReoptPolicy()
    report = MidQueryReport(policy)
    if not policy.active:
        result = execute_plan(
            plan,
            database,
            bindings=bindings,
            parameter_space=parameter_space,
            tracer=tracer,
            execution_mode=execution_mode,
            batch_size=batch_size,
            deadline=deadline,
        )
        report.final_plan = plan
        return result, report

    bindings = bindings if bindings is not None else Bindings()
    parameter_space = (
        parameter_space if parameter_space is not None else ParameterSpace()
    )
    deadline = Deadline.ensure(deadline)
    catalog = database.catalog
    decider = IncrementalDecider(plan, catalog, parameter_space, bindings)
    bounds_model = CostModel(catalog, Valuation.bounds(parameter_space))

    started = time.perf_counter()
    before = database.io_stats.snapshot()

    if choices:
        for choose, chosen in choices:
            if chosen is not None:
                decider._choices[id(choose)] = (choose, chosen)
        outcome = decider.splice()
    else:
        outcome = decider.decide()
    report.note_outcome(outcome)
    current = outcome.plan

    skipped = set()
    # Bounded defensively: every iteration pins one more dynamic node
    # (or skips one subplan), so the loop cannot run longer than the
    # plan has nodes.
    for _ in range(plan.node_count() + 1):
        breaker = _next_breaker(current, policy.breakers, skipped)
        if breaker is None:
            break
        kind, subplan = breaker
        drained = execute_plan(
            subplan,
            database,
            bindings=bindings,
            parameter_space=parameter_space,
            execution_mode=execution_mode,
            batch_size=batch_size,
            deadline=deadline,
        )
        skipped.add(id(subplan))
        checkpoint = Materialized(drained.records, subplan)
        decider.pin(decider.origin_of(subplan), checkpoint)
        observed = checkpoint.observed_cardinality
        estimate = bounds_model.evaluate(subplan).cardinality
        violated = not estimate.contains(observed)
        report.breakers.append(
            BreakerEvent(kind, subplan, observed, estimate, violated)
        )
        report.checkpoints += 1
        report.checkpoint_records += observed
        if violated:
            report.violations += 1

        if policy.mode == "always" or violated:
            report.redecisions += 1
            outcome = decider.decide()
            if outcome.switched:
                report.switches += 1
        else:
            outcome = decider.splice()
        report.note_outcome(outcome)
        current = outcome.plan

    if policy.on_switch == "restart" and report.switches:
        final = _strip_checkpoints(current)
        report.restarted = True
    else:
        final = current

    tail = execute_plan(
        final,
        database,
        bindings=bindings,
        parameter_space=parameter_space,
        tracer=tracer,
        execution_mode=execution_mode,
        batch_size=batch_size,
        deadline=deadline,
    )
    elapsed = time.perf_counter() - started
    after = database.io_stats.snapshot()
    delta = {key: after[key] - before[key] for key in after}
    report.final_plan = final
    report.choices = decider.choices()
    result = ExecutionResult(
        tail.records,
        delta,
        list(report.choices),
        elapsed,
        trace=tail.trace,
        profile=tail.profile,
    )
    return result, report
