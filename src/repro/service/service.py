"""One plan-cache partition and the request path that serves it.

:class:`QueryService` is the partition core behind the one serving
front end, :class:`~repro.service.sharding.ShardedQueryService`: the
gateway routes each request to a shard, and the shard's
``QueryService.serve`` applies the paper's embedded-SQL amortization.
The *first* invocation of a query pays full dynamic-plan optimization;
every later invocation finds the compiled plan in the LRU cache and
pays only the choose-plan start-up decision under its fresh bindings,
then (optionally) executes the chosen static plan.  A single-partition
deployment is ``ShardedQueryService(database, shards=1)``.

Concurrency model:

* start-up decisions (each cached plan's
  :class:`~repro.executor.decision.CompiledDecision`) keep no state
  between invocations, so any number of caller threads resolve the
  same cached plan simultaneously without locking;
* plan *compilation* and staleness-driven re-optimization mutate the
  cache entry and therefore run under the per-entry lock
  (single-flight: a burst of first requests optimizes once);
* actual data execution mutates the shared database's I/O counters,
  so it is serialized by a database lock — the measured quantity of
  this subsystem is start-up cost, which stays fully concurrent.

Determinism: the service itself draws no randomness.  Workload
generation and replay derive every stream from explicit seeds via
:mod:`repro.common.rng`, and requests are generated *before* they are
served, so thread scheduling cannot perturb any RNG stream (see
:mod:`repro.workloads.traffic`).
"""

import threading
import time
import weakref
from bisect import bisect_left

from repro.common.errors import (
    MemoryDropError,
    OptimizationError,
    PermanentIOError,
    QueryTimeoutError,
    ReproError,
    ServiceExecutionError,
    TransientIOError,
)
from repro.common.stats import percentile  # re-exported
from repro.cost.parameters import MEMORY_PARAMETER
from repro.executor.decision import CompiledDecision
from repro.executor.engine import execute_plan
from repro.executor.midquery import (
    ReoptPolicy,
    execute_midquery,
    verifies_at_startup,
)
from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS
from repro.optimizer.query import input_signature
from repro.resilience.deadline import Deadline
from repro.resilience.policy import ResiliencePolicy
from repro.service.cache import CacheStatistics, PlanCache

__all__ = [
    "LatencyBook",
    "QueryService",
    "ServiceBooks",
    "ServiceRequest",
    "ServiceResult",
    "ServiceStatistics",
    "percentile",
]

def _coerce_reopt(policy):
    """None / spec string / ReoptPolicy -> optional ReoptPolicy."""
    if policy is None or isinstance(policy, ReoptPolicy):
        return policy
    return ReoptPolicy.parse(policy)

#: Resilience outcome counters every shard's books keep.
RESILIENCE_COUNTERS = (
    "transient_retries",
    "permanent_failures",
    "timeouts",
    "degradations",
    "fallback_activations",
    "breaker_trips",
    "breaker_short_circuits",
    "decision_compiles",
    "shared_compiles",
    "midquery_checkpoints",
    "midquery_redecisions",
    "midquery_switches",
    "midquery_probes",
    "startup_verifications",
    "settled_requests",
    "incremental_redecisions",
)


class SharedCompile:
    """One optimizer run a partition shares: the plan and the decision
    program compiled from it.

    Immutable; every cache entry installed from it holds it, which is
    what keeps it in the partition's weak memo.  The entries share the
    plan object itself: their queries differ from the optimized one
    only in uncertain selections' expected values, which the plan's
    costs and choices never read.
    """

    __slots__ = ("plan", "decision", "__weakref__")

    def __init__(self, plan, decision):
        self.plan = plan
        self.decision = decision

    def rebind(self, query):
        """``(plan, decision)`` for ``query``, which has this run's
        input signature: the run's own plan, and a view of its program
        whose unbound parameters default to ``query``'s expected
        values."""
        return self.plan, self.decision.view(query.parameter_space)


class ServiceRequest:
    """One invocation: a query plus its start-up bindings."""

    __slots__ = (
        "query",
        "bindings",
        "execute",
        "tag",
        "deadline_seconds",
        "reopt_policy",
        "tenant",
    )

    def __init__(
        self,
        query,
        bindings,
        execute=None,
        tag=None,
        deadline_seconds=None,
        reopt_policy=None,
        tenant=None,
    ):
        self.query = query
        self.bindings = bindings
        #: None inherits the service default; True/False overrides it.
        self.execute = execute
        self.tag = tag
        #: Per-request deadline in seconds; None inherits the
        #: resilience policy's service-wide default.
        self.deadline_seconds = deadline_seconds
        #: Per-request mid-query re-optimization policy
        #: (:class:`~repro.executor.midquery.ReoptPolicy`; a spec
        #: string is parsed here, at the request boundary, so a
        #: malformed one costs no queue slot, cache entry, or optimizer
        #: call); None means off.
        self.reopt_policy = _coerce_reopt(reopt_policy)
        #: Tenant identity for the sharded gateway's per-tenant quotas
        #: (:mod:`repro.service.sharding`); ``None`` means unattributed
        #: traffic, which is never quota limited.
        self.tenant = tenant

    def __repr__(self):
        return "ServiceRequest(%s, tag=%r)" % (self.query.name, self.tag)


class ServiceResult:
    """Everything one invocation through the service produced."""

    __slots__ = (
        "digest",
        "cache_hit",
        "reoptimized",
        "chosen",
        "startup_report",
        "optimize_seconds",
        "startup_seconds",
        "execution",
        "total_seconds",
        "tag",
    )

    def __init__(
        self,
        digest,
        cache_hit,
        reoptimized,
        chosen,
        startup_report,
        optimize_seconds,
        startup_seconds,
        execution,
        total_seconds,
        tag=None,
    ):
        self.digest = digest
        self.cache_hit = cache_hit
        self.reoptimized = reoptimized
        #: The fully static plan the decision procedures chose.
        self.chosen = chosen
        self.startup_report = startup_report
        #: Wall-clock seconds spent optimizing (0.0 on a cache hit).
        self.optimize_seconds = optimize_seconds
        #: Wall-clock seconds of the start-up decision pass (for a
        #: request verified at start-up: the counts and the pass on them).
        self.startup_seconds = startup_seconds
        self.execution = execution
        self.total_seconds = total_seconds
        self.tag = tag

    @property
    def row_count(self):
        """Rows produced, or ``None`` when execution was skipped."""
        return None if self.execution is None else self.execution.row_count

    def __repr__(self):
        return "ServiceResult(%s, hit=%s, startup=%.6fs, optimize=%.6fs)" % (
            self.digest,
            self.cache_hit,
            self.startup_seconds,
            self.optimize_seconds,
        )


class LatencyBook:
    """One latency's sum and fixed-bucket counts.

    The buckets are :data:`~repro.observability.metrics.DEFAULT_LATENCY_BUCKETS`
    plus a last one for ``+Inf``, so a registry histogram reads them as
    they are; the count is their total, and the mean is exact.
    """

    __slots__ = ("buckets", "sum")

    def __init__(self, buckets=None, total=0.0):
        if buckets is None:
            buckets = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        self.buckets = buckets
        self.sum = total

    def add(self, seconds):
        """Count one observation (books lock held)."""
        self.buckets[bisect_left(DEFAULT_LATENCY_BUCKETS, seconds)] += 1
        self.sum += seconds

    @property
    def count(self):
        """Observations counted."""
        return sum(self.buckets)

    @property
    def mean(self):
        """Exact mean seconds (0.0 before the first observation)."""
        count = self.count
        return self.sum / count if count else 0.0

    def copy(self):
        """An independent snapshot."""
        return LatencyBook(list(self.buckets), self.sum)

    @classmethod
    def merged(cls, books):
        """The bucket-wise sum of several books."""
        merged = cls()
        for book in books:
            merged.buckets = [a + b for a, b in zip(merged.buckets, book.buckets)]
            merged.sum += book.sum
        return merged


class ServiceBooks:
    """One shard's counts, kept once, for the shard's whole life.

    A shard makes its books once and hands them to every partition it
    builds, so a restart keeps what the shard counted; the gateway keeps
    one more for its standby partition.  They hold three things under
    one lock: counts (requests, rows, the supervisor's progress
    heartbeat, :data:`RESILIENCE_COUNTERS` and the partition cache's
    :class:`~repro.service.cache.CacheStatistics`, whose cache lock
    this lock is), latency sums, and fixed-bucket
    latency counts (:class:`LatencyBook`).  ``stats()`` and every
    registry instrument read them; nothing else keeps a copy.
    """

    __slots__ = (
        "lock",
        "cache",
        "requests",
        "rows",
        "resilience",
        "startup",
        "optimize",
        "redecide",
        "inflight",
        "served",
        "stalls",
    )

    def __init__(self):
        self.cache = CacheStatistics()
        #: The cache counters' lock, so the partition cache's lock too.
        self.lock = self.cache.lock
        self.requests = 0
        self.rows = 0
        self.resilience = dict.fromkeys(RESILIENCE_COUNTERS, 0)
        #: Start-up decision seconds, one per served request.
        self.startup = LatencyBook()
        #: Optimizer seconds, one per request that optimized.
        self.optimize = LatencyBook()
        #: Mid-query decision seconds, one per request that re-decided.
        self.redecide = LatencyBook()
        #: One token per request inside ``serve``; list append/pop are
        #: atomic under the GIL, so ``len`` is an exact lock-free gauge.
        self.inflight = []
        #: The shard's progress heartbeat: serves finished, failed ones
        #: too, and injected slow-serve marks (the supervisor's signals).
        self.served = 0
        self.stalls = 0

    def statistics(self, cache):
        """A :class:`ServiceStatistics` of these books, read under one
        lock acquisition, with ``cache`` (a cache's ``stats_snapshot``)."""
        with self.lock:
            return ServiceStatistics(
                self.requests,
                cache,
                dict(self.resilience),
                self.rows,
                self.startup.copy(),
                self.optimize.copy(),
                self.redecide.copy(),
            )


def _summed(counts):
    """Key-by-key sum of several count dicts."""
    total = {}
    for part in counts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


class ServiceStatistics:
    """Point-in-time counts and latency sums of one set of books.

    Each source is read under one lock acquisition — the cache counters
    and sizes under the cache lock, the rest under the books lock — so
    ``hits + misses == lookups`` and ``startup.count == requests`` hold
    in every snapshot, and snapshots of several shards aggregate
    exactly, by summing.
    """

    __slots__ = (
        "requests",
        "cache",
        "resilience",
        "rows",
        "startup",
        "optimize",
        "redecide",
    )

    def __init__(self, requests, cache, resilience, rows, startup, optimize, redecide):
        self.requests = requests
        #: Snapshot dict of the plan cache's counters and sizes.
        self.cache = cache
        #: Snapshot dict of the resilience outcome counters
        #: (see :data:`RESILIENCE_COUNTERS`).
        self.resilience = resilience
        #: Result rows produced.
        self.rows = rows
        #: :class:`LatencyBook` copies, as :class:`ServiceBooks` keeps them.
        self.startup = startup
        self.optimize = optimize
        self.redecide = redecide

    @property
    def startup_mean(self):
        """Mean start-up decision seconds per request."""
        return self.startup.mean

    @property
    def optimize_mean(self):
        """Mean optimizer seconds per request that optimized."""
        return self.optimize.mean

    @property
    def optimize_count(self):
        """Requests that ran the optimizer (or shared a run)."""
        return self.optimize.count

    @property
    def amortization(self):
        """Mean optimization cost over mean start-up cost: how many
        times cheaper a cached invocation is than re-optimizing."""
        if self.startup_mean > 0.0 and self.optimize_mean > 0.0:
            return self.optimize_mean / self.startup_mean
        return 0.0

    @classmethod
    def aggregate(cls, parts):
        """Exact sum of several snapshots (e.g. one per shard), with the
        hit rate recomputed from the summed counts."""
        parts = list(parts)
        cache = _summed(
            {key: value for key, value in part.cache.items() if key != "hit_rate"}
            for part in parts
        )
        cache["hit_rate"] = (
            cache["hits"] / cache["lookups"] if cache.get("lookups") else 0.0
        )
        return cls(
            sum(part.requests for part in parts),
            cache,
            _summed(part.resilience for part in parts),
            sum(part.rows for part in parts),
            LatencyBook.merged(part.startup for part in parts),
            LatencyBook.merged(part.optimize for part in parts),
            LatencyBook.merged(part.redecide for part in parts),
        )

    @property
    def hit_rate(self):
        """Fraction of requests served from the plan cache."""
        return self.cache["hit_rate"]

    def __repr__(self):
        return (
            "ServiceStatistics(requests=%d, hit_rate=%.2f, "
            "startup_mean=%.6fs, amortization=%.1fx)"
            % (
                self.requests,
                self.hit_rate,
                self.startup_mean,
                self.amortization,
            )
        )


class QueryService:
    """One plan-cache partition: the request path the gateway routes to.

    Constructed only by :class:`~repro.service.sharding.ShardedQueryService`,
    one per shard; callers serve through the gateway's ``run`` /
    ``submit`` / ``run_batch``.

    Parameters
    ----------
    database:
        The :class:`~repro.storage.database.Database` served; its
        catalog is the compilation context for every cached plan (one
        service instance per catalog — the cache key assumes it).
    db_lock:
        The lock serializing data execution against ``database``; the
        gateway passes one lock to every partition, so all executions
        serialize against the same database.
    books:
        The :class:`ServiceBooks` the partition counts into, owned by
        its shard (or, for the standby, the gateway); the plan cache
        keeps its counters there, under the books lock.
    capacity:
        LRU plan-cache capacity, in *live* entries (see ``PlanCache``).
    optimize:
        Optimizer entry point, ``optimize_dynamic`` by default.
    execute:
        Default for running the chosen plan against the database after
        the start-up decision.
    tracer:
        Optional :class:`~repro.observability.trace.Tracer` forwarded
        to plan execution, recording per-operator spans.  ``None``
        costs one ``is None`` test per iterator open.
    resilience:
        A :class:`~repro.resilience.policy.ResiliencePolicy` bundling
        the transient-fault retry policy, the optional per-signature
        circuit breaker on staleness-driven re-optimization, the
        mid-run degradation budget, and the default query deadline.
        ``None`` uses the policy defaults (retries on, breaker off, no
        deadline), which leave fault-free behaviour untouched.

    Execution runs at the engine's default batch size
    (:data:`~repro.executor.vectorized.DEFAULT_BATCH_SIZE`), so a query
    deadline is checked once per batch; mid-query re-optimization is
    per request (``ServiceRequest.reopt_policy``).
    """

    def __init__(
        self,
        database,
        db_lock,
        books,
        capacity=64,
        optimize=None,
        execute=True,
        tracer=None,
        resilience=None,
    ):
        if optimize is None:
            from repro.optimizer.optimizer import optimize_dynamic

            optimize = optimize_dynamic
        self.database = database
        self.catalog = database.catalog
        self.books = books
        self.cache = PlanCache(capacity, books.cache)
        self.default_execute = bool(execute)
        self.tracer = tracer
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self._optimize = optimize
        #: input signature -> SharedCompile of the first bounds-only
        #: optimizer run over it, alive while an entry holds it.
        self._shared = weakref.WeakValueDictionary()
        self._shared_lock = threading.Lock()
        self._db_lock = db_lock

    def _count(self, name, amount=1):
        """Bump one resilience counter in the books."""
        books = self.books
        with books.lock:
            books.resilience[name] += amount

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(self, signature, request):
        """The request path: plan-cache lookup, refresh, decide, execute.

        Every entry point of the serving tier ends here — the gateway's
        ``run``, ``submit`` and ``run_batch`` through the owning shard
        (:mod:`repro.service.sharding`), and the gateway's failover
        legs — with the canonical ``signature`` already computed by the
        gateway's router.  The start-up decision runs the entry's
        compiled program and reuses its decision-outcome memo, so the
        chosen static plan is *rebuilt* once per distinct outcome
        instead of once per invocation.  A request that executes under
        ``auto`` while its entry distrusts every selectivity the
        decisions read makes no decision here: its run counts them and
        decides once, on the counts
        (:func:`~repro.executor.midquery.verifies_at_startup`), and its
        ``startup_seconds`` times that decision.

        Library errors (:class:`~repro.common.errors.ReproError`) that
        survive the resilience machinery are wrapped in
        :class:`~repro.common.errors.ServiceExecutionError` carrying
        the request tag, query name, signature, cache-hit state, and
        attempt count, with the original error chained as
        ``__cause__``.
        """
        started = time.perf_counter()
        bindings = request.bindings
        cache_hit = None
        info = {"attempts": 0}
        inflight = self.books.inflight
        inflight.append(None)
        try:
            entry, cache_hit = self.cache.entry_for_signature(
                signature, request.query
            )
            optimize_seconds, reoptimized = self._refresh(entry, cache_hit, bindings)

            # One lock acquisition: ``install`` replaces the memo with
            # the plan, so a memo read apart from its decision program
            # could hand back a plan rebuilt for the previous one.
            decision_started = time.perf_counter()
            with entry.lock:
                if entry.demoted:
                    # Promoted and not re-optimized since: the program it
                    # kept through demotion serves as it is.
                    entry.demoted = False
                    if self.tracer is not None:
                        self.tracer.event(
                            "plan_promoted", level="info", digest=entry.digest
                        )
                plan = entry.plan
                parameter_space = entry.parameter_space
                decision = entry.decision
                memo = entry.chosen_memo
                distrusted = entry.distrusted
            executing = (
                self.default_execute if request.execute is None else request.execute
            )
            reopt = request.reopt_policy
            # A settled request: execute_midquery counts what the entry
            # distrusts and decides on the counts, replacing any decision
            # on the declared bindings, so none is made here.
            verifies = (
                executing
                and reopt is not None
                and verifies_at_startup(reopt, distrusted, decision.read_set)
            )
            chosen = report = None
            if not verifies:
                chosen, report = decision.choose_memoized(bindings, memo)
            startup_seconds = time.perf_counter() - decision_started

            execution = midquery = None
            if executing:
                deadline_seconds = request.deadline_seconds
                if deadline_seconds is None:
                    deadline_seconds = self.resilience.deadline_seconds
                execution, chosen, report, midquery = self._execute_with_resilience(
                    entry,
                    chosen,
                    report,
                    decision,
                    memo,
                    distrusted,
                    plan,
                    parameter_space,
                    bindings,
                    Deadline.ensure(deadline_seconds),
                    reopt,
                    info,
                )
                if verifies and report is not None:  # not the static fallback
                    startup_seconds = midquery.startup_seconds
        except BaseException as error:
            # A failed serve is progress too: the heartbeat advances.
            with self.books.lock:
                self.books.served += 1
            if not isinstance(error, ReproError):
                raise
            raise ServiceExecutionError(
                "request tag=%r query=%r failed: %s"
                % (request.tag, request.query.name, error),
                tag=request.tag,
                query_name=request.query.name,
                cache_hit=cache_hit,
                attempts=info["attempts"],
                cause=error,
                signature=signature,
            ) from error
        finally:
            inflight.pop()

        total_seconds = time.perf_counter() - started
        self._record(startup_seconds, optimize_seconds, execution, midquery)
        return ServiceResult(
            entry.digest,
            cache_hit and not reoptimized,
            reoptimized,
            chosen,
            report,
            optimize_seconds,
            startup_seconds,
            execution,
            total_seconds,
            tag=request.tag,
        )

    def _refresh(self, entry, cache_hit, bindings):
        """Make ``entry`` servable for ``bindings``; record the sight.

        Compiles a missing plan (single-flight under the entry lock),
        re-optimizes a stale one over bounds widened to the domain edge
        (:meth:`PlanCacheEntry.widened_query`) — subject to the
        staleness circuit breaker — and folds the bindings into the
        entry's observed ranges.  Returns ``(optimize_seconds,
        reoptimized)``.
        """
        optimize_seconds = 0.0
        if not cache_hit:
            with entry.lock:
                if entry.plan is None:
                    optimize_seconds += self._compile(entry, entry.query)

        reoptimized = False
        breaker = self.resilience.breaker
        stale = entry.check_and_observe(bindings)
        if stale and breaker is not None and not breaker.allow(entry.digest):
            # Breaker open: serve the cached plan (still correct, its
            # choose-plans simply were not optimized for these bounds)
            # instead of paying yet another re-optimization.
            self._count("breaker_short_circuits")
            if self.tracer is not None:
                self.tracer.event(
                    "breaker_short_circuit", level="warn", digest=entry.digest
                )
            stale = []
        if stale:
            with entry.lock:
                stale = entry.stale_parameters(bindings)
                if stale:
                    widened = entry.widened_query(stale)
                    optimize_seconds += self._compile(entry, widened)
                    entry.reoptimizations += 1
                    self.cache.record_reoptimization()
                    reoptimized = True
            if reoptimized and breaker is not None:
                if breaker.record_reoptimization(entry.digest):
                    self._count("breaker_trips")
                    if self.tracer is not None:
                        self.tracer.event(
                            "breaker_trip", level="warn", digest=entry.digest
                        )
        elif breaker is not None:
            breaker.record_success(entry.digest)
        return optimize_seconds, reoptimized

    def _record(self, startup_seconds, optimize_seconds, execution, midquery):
        """Fold one served invocation into the books: one lock acquisition."""
        books = self.books
        rows = 0 if execution is None else execution.row_count
        probes = 0 if midquery is None else midquery.probes
        with books.lock:
            books.served += 1
            books.requests += 1
            books.rows += rows
            books.startup.add(startup_seconds)
            if optimize_seconds > 0.0:
                books.optimize.add(optimize_seconds)
            if midquery is not None:
                counts = books.resilience
                counts["startup_verifications"] += midquery.startup is not None
                counts["settled_requests"] += midquery.settled
                counts["midquery_checkpoints"] += midquery.checkpoints
                counts["midquery_redecisions"] += midquery.redecisions
                counts["midquery_probes"] += probes
                counts["midquery_switches"] += midquery.switches
                if midquery.redecisions:
                    books.redecide.add(midquery.decision_seconds)

    def _compile(self, entry, query):
        """Install ``query``'s plan and decision program into ``entry``
        (entry lock held); seconds.

        A query whose input signature a live or retained entry's
        optimizer run already covered shares that run's plan and a view
        of its program (:meth:`SharedCompile.rebind`); any other runs
        the optimizer and compiles a program, and a bounds-only run
        becomes shareable.  The memo lock is never
        held across the optimizer, so two misses on one input signature
        may both optimize; both results are correct.
        """
        compile_started = time.perf_counter()
        key = input_signature(query)
        with self._shared_lock:
            shared = self._shared.get(key)
        if shared is not None:
            plan, decision = shared.rebind(query)
            self._count("shared_compiles")
        else:
            result = self._optimize(self.catalog, query)
            plan = result.plan
            # A plan the program cannot compile is one the cost model
            # cannot cost: the DecisionCompilationError fails the
            # request, typed.
            decision = CompiledDecision(plan, self.catalog, query.parameter_space)
            self._count("decision_compiles")
            if result.bounds_only:
                shared = SharedCompile(plan, decision)
                with self._shared_lock:
                    self._shared.setdefault(key, shared)
        entry.install(plan, query.parameter_space, decision, compiled_from=shared)
        return time.perf_counter() - compile_started

    def _note_midquery(self, entry, decision, mid_report):
        """Fold what a mid-query run observed of the decisions'
        selectivities into the entry's distrusted set (its counts go
        into the books with the request, in :meth:`_record`)."""
        if mid_report.switches and self.tracer is not None:
            self.tracer.event(
                "midquery_switch",
                level="info",
                digest=entry.digest,
                switches=mid_report.switches,
            )
        if mid_report.rebound:
            reads = decision.read_set()
            entry.distrust(
                {
                    name: (reads[name], observed)
                    for name, (_, observed, _) in mid_report.rebound.items()
                    if name in reads
                }
            )

    def _execute_with_resilience(
        self,
        entry,
        chosen,
        report,
        decision,
        memo,
        distrusted,
        plan,
        parameter_space,
        bindings,
        deadline,
        reopt,
        info,
    ):
        """Run the chosen plan, retrying and degrading per the policy.

        * transient faults retry with exponential backoff (sleeping
          outside the database lock) up to the retry budget;
        * with an active ``reopt`` policy the run goes through
          :func:`~repro.executor.midquery.execute_midquery`: pipeline
          breakers checkpoint their results and may splice in a
          cheaper alternative mid-flight (the mid-query report rides
          on ``execution.midquery``); when ``distrusted`` (the
          entry's marks, read with ``decision``) covers every
          selectivity the decisions read, the run counts them and
          makes the start-up decision (``report``, ``None`` until
          then) itself;
        * a mid-run memory drop re-decides the choose-plans under the
          shrunk grant with one whole pass of the decision program
          start-up ran, and restarts on the re-decided alternative; past
          ``max_degradations`` restarts the service activates the
          conservative static fallback plan instead;
        * permanent faults and deadline expiry fail fast, typed.

        Returns ``(execution, chosen, report, midquery)`` reflecting the
        plan that actually completed; ``midquery`` is its mid-query
        report, or ``None`` for a plain run.
        """
        retry = self.resilience.retry
        transient_retries = 0
        degradations = 0
        use_midquery = reopt is not None and reopt.active
        while True:
            info["attempts"] += 1
            try:
                mid_report = None
                with self._db_lock:
                    if use_midquery:
                        execution, mid_report = execute_midquery(
                            plan,
                            self.database,
                            bindings,
                            parameter_space,
                            policy=reopt,
                            tracer=self.tracer,
                            deadline=deadline,
                            choices=None if report is None else report.choices,
                            decision=decision,
                            distrusted=distrusted,
                            memo=memo,
                        )
                    else:
                        execution = execute_plan(
                            chosen,
                            self.database,
                            bindings,
                            parameter_space,
                            tracer=self.tracer,
                            deadline=deadline,
                        )
                if mid_report is not None:
                    execution.midquery = mid_report
                    chosen = mid_report.final_plan
                    if mid_report.startup is not None:
                        report = mid_report.startup
                    self._note_midquery(entry, decision, mid_report)
                return execution, chosen, report, mid_report
            except TransientIOError as error:
                if transient_retries >= retry.max_retries:
                    raise
                transient_retries += 1
                self._count("transient_retries")
                if self.tracer is not None:
                    self.tracer.event(
                        "transient_retry",
                        level="warn",
                        site=error.site,
                        operation_index=error.operation_index,
                        attempt=transient_retries,
                    )
                self.resilience.sleep(
                    retry.delay(transient_retries, key=entry.digest)
                )
            except MemoryDropError as error:
                degradations += 1
                self._count("degradations")
                bindings = bindings.copy().bind(
                    MEMORY_PARAMETER, error.new_memory_pages
                )
                if self.tracer is not None:
                    self.tracer.event(
                        "memory_drop_degradation",
                        level="warn",
                        new_memory_pages=error.new_memory_pages,
                        operation_index=error.operation_index,
                        degradations=degradations,
                    )
                fallback = None
                if degradations > self.resilience.max_degradations:
                    fallback = self._fallback_plan(entry)
                if fallback is not None:
                    chosen, report = fallback, None
                    use_midquery = False
                    self._count("fallback_activations")
                    if self.tracer is not None:
                        self.tracer.event(
                            "static_fallback",
                            level="warn",
                            digest=entry.digest,
                        )
                else:
                    chosen, report = decision.choose(bindings)
                    self._count("incremental_redecisions")
            except PermanentIOError as error:
                self._count("permanent_failures")
                if self.tracer is not None:
                    self.tracer.event(
                        "permanent_failure",
                        level="warn",
                        site=error.site,
                        operation_index=error.operation_index,
                    )
                raise
            except QueryTimeoutError as error:
                self._count("timeouts")
                if self.tracer is not None:
                    self.tracer.event(
                        "query_timeout",
                        level="warn",
                        deadline_seconds=error.deadline_seconds,
                        rows_produced=error.rows_produced,
                    )
                raise

    def _fallback_plan(self, entry):
        """The entry's conservative static plan, compiled once.

        Returns ``None`` when static optimization cannot produce one
        (the caller then keeps re-deciding the dynamic plan instead).
        """
        with entry.lock:
            # Read once: demotion clears the field without the entry lock.
            fallback = entry.fallback_plan
            if fallback is None:
                from repro.optimizer.optimizer import optimize_static

                try:
                    fallback = optimize_static(self.catalog, entry.query).plan
                except OptimizationError:
                    return None
                entry.fallback_plan = fallback
            return fallback

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """A :class:`ServiceStatistics` snapshot of the shard's books,
        with this partition's cache sizes."""
        return self.books.statistics(self.cache.stats_snapshot())

    def __repr__(self):
        return "QueryService(%d cached plans, %d requests)" % (
            len(self.cache),
            self.books.requests,
        )
