"""The serving front end: one gateway over partitioned plan caches.

:class:`ShardedQueryService` (the **gateway**) is the only class with
``run`` / ``submit`` / ``run_batch``; a single-partition deployment is
``ShardedQueryService(database, shards=1)``.  Partitioning changes
where a request is served, never what it observes:

* the gateway canonicalizes each query once, hashes its signature
  digest, and routes the request to one of N shards, each a
  :class:`~repro.service.service.ServiceShard`.  Routing is a pure
  function of the canonical signature, so every invocation of one
  query shape lands on the same shard and the
  optimize-once/execute-many amortization is preserved per partition.
  A shard has its own :class:`~repro.service.cache.PlanCache`, lock,
  staleness/circuit-breaker state and worker thread, so requests for
  *different* signatures never serialize on a shared cache lock.
  Shards share one database lock, so data execution is serialized
  exactly as in one partition.
* **admit once, settle once**: each shard's queue is bounded, and so
  is each tenant's in-flight count.  Whether a request enters and how
  it ended are decided under the gateway's one books lock, taken once
  by :meth:`ShardedQueryService._admit` (count it submitted, then
  reserve its queue and tenant slots, or count the rejection and raise
  a typed :class:`~repro.common.errors.ServiceOverloadError`) and once
  by :meth:`ShardedQueryService._dispatch` (count its outcome, release
  its slots, advance the snapshot trigger).
* **one set of books**: each count is kept once.  Each shard, the
  standby included, owns a :class:`~repro.service.service.ServiceBooks`
  that a restart keeps; the gateway keeps its own (admission, request
  outcomes, rejections, snapshot activity) under its books lock.
  :meth:`ShardedQueryService.stats` sums the books exactly, and a
  metrics registry only reads them.

There is one request path.  The gateway routes each query once per
query object, admits the request, and hands the owning shard's
``(signature, request)`` pairs to :meth:`ShardedQueryService._dispatch`,
which runs on the caller's thread for ``run``, on the shard's worker
for ``submit``, and there once per chunk for ``run_batch``.  Dispatch
calls :meth:`ServiceShard.serve() <repro.service.service.ServiceShard.serve>`,
the function the failover leg runs on a sibling or the standby, so
neither the entry point nor the shard count can change what a request
observes; the entry-point equivalence suite asserts exactly that.
"""

import logging
import threading
from concurrent.futures import CancelledError, Future

from repro.common.errors import (
    ServiceOverloadError,
    ShardDownError,
    SnapshotError,
)
from repro.optimizer.query import canonical_signature, signature_digest
from repro.resilience.policy import backoff_hint
from repro.service.durability import (
    DurabilityConfig,
    build_snapshot,
    read_snapshot,
    restore_gateway,
    write_snapshot,
)
from repro.service.service import (
    RESILIENCE_COUNTERS,
    ServiceRequest,
    ServiceShard,
    ServiceStatistics,
)
from repro.service.supervision import ShardSupervisor

logger = logging.getLogger(__name__)

__all__ = [
    "REQUEST_OUTCOMES",
    "ShardedQueryService",
    "ShardedServiceStatistics",
    "shard_index_for",
]

#: Overload rejection reasons (keys of the gateway's rejection counters).
OVERLOAD_REASONS = ("shard_queue_full", "tenant_quota")

#: Terminal outcomes of an accepted request.  Conservation invariant:
#: every submitted request ends in exactly one of these (or was
#: fast-rejected), so ``submitted == completed + failed_over + failed
#: + rejected`` at quiescence — the chaos harness asserts the equality
#: exactly.
REQUEST_OUTCOMES = ("completed", "failed_over", "failed")

#: Plan-cache metrics: ``(name, stats_snapshot key, kind, help)``.
_PLAN_CACHE_METRICS = (
    ("plan_cache_lookups_total", "lookups", "counter", "Plan-cache lookups"),
    ("plan_cache_hits_total", "hits", "counter", "Lookups that found a compiled plan"),
    ("plan_cache_misses_total", "misses", "counter", "Lookups without a compiled plan"),
    ("plan_cache_evictions_total", "evictions", "counter", "LRU evictions"),
    (
        "plan_cache_invalidations_total",
        "invalidations",
        "counter",
        "Explicit invalidations plus staleness re-optimizations",
    ),
    (
        "plan_cache_promotions_total",
        "promotions",
        "counter",
        "Hits that promoted a retained plan back into the live tier",
    ),
    ("plan_cache_entries", "entries", "gauge", "Entries currently cached"),
    (
        "plan_cache_retained_entries",
        "retained",
        "gauge",
        "Demoted plans kept behind the live entries",
    ),
)

#: Counters over the gateway's ``stats().total``: ``(name, help, read)``.
_TOTAL_COUNTERS = (
    ("service_requests_total", "Invocations served", lambda t: t.requests),
    ("service_execution_rows_total", "Result rows produced", lambda t: t.rows),
    (
        "service_reoptimizations_total",
        "Staleness-driven in-place re-optimizations",
        lambda t: t.cache["invalidations"],
    ),
)

#: Latency histograms: ``(ServiceStatistics field, help)``, each named
#: ``service_<field>_seconds``.
_LATENCY_METRICS = (
    ("startup", "Start-up decision latency per invocation"),
    ("optimize", "Plan compilation latency (misses and re-optimizations)"),
    ("redecide", "Mid-query decision latency per invocation that re-decided"),
)

#: Routing-memo size bound: the gateway caches (signature, shard) per
#: query *object*; past this many distinct objects the memo is cleared
#: (workloads reuse a handful of query objects, so this never triggers
#: in practice — it only bounds pathological callers).
_ROUTE_MEMO_LIMIT = 4096


def shard_index_for(signature, shard_count):
    """The shard owning ``signature``: digest hash modulo shard count.

    Deterministic across processes (the digest is SHA-256-derived, not
    ``hash()``), so replaying a workload always routes identically.
    """
    return int(signature_digest(signature), 16) % shard_count


class ShardedServiceStatistics:
    """Gateway statistics: exact aggregate plus the per-shard parts.

    ``total`` is :meth:`ServiceStatistics.aggregate` over the shards'
    snapshots and the standby's — counters and latency sums summed, the
    hit rate recomputed, nothing approximated — and ``per_shard`` keeps
    one snapshot per shard for skew inspection.  ``overload`` counts
    gateway fast-rejections by reason; rejected requests never reach a
    shard, so they appear *only* here (total requests served plus
    rejections equals requests submitted).
    """

    __slots__ = ("total", "per_shard", "overload")

    def __init__(self, per_shard, overload, standby):
        self.per_shard = tuple(per_shard)
        self.total = ServiceStatistics.aggregate(self.per_shard + (standby,))
        self.overload = dict(overload)

    @property
    def requests(self):
        return self.total.requests

    @property
    def hit_rate(self):
        return self.total.hit_rate

    @property
    def rejections(self):
        """Total overload fast-rejections across all reasons."""
        return sum(self.overload.values())

    def __repr__(self):
        return (
            "ShardedServiceStatistics(%d shards, requests=%d, "
            "hit_rate=%.2f, rejections=%d)"
            % (
                len(self.per_shard),
                self.total.requests,
                self.total.hit_rate,
                self.rejections,
            )
        )


class ShardedQueryService:
    """Gateway over N service shards partitioning the plan cache.

    Parameters
    ----------
    database:
        The shared :class:`~repro.storage.database.Database`.  All
        shards execute against it under one shared lock, so I/O
        accounting does not depend on the shard count.
    shards:
        Number of partitions.  Each shard is one
        :class:`~repro.service.service.ServiceShard` (its own cache,
        cache lock, breaker state and worker thread).
    capacity:
        Plan-cache capacity *per shard*, in live entries.
    max_pending:
        Admission bound per shard: a :meth:`run` or :meth:`submit`
        arriving with this many requests in flight on its shard is
        fast-rejected with
        :class:`~repro.common.errors.ServiceOverloadError`
        (``reason="shard_queue_full"``).  :meth:`run_batch` reserves
        its slots without the bound.
    tenant_quota:
        Default per-tenant in-flight quota, or ``None`` for no tenant
        limiting.  Requests carrying ``tenant=None`` are never quota
        limited.
    tenant_quotas:
        Optional dict of per-tenant overrides of ``tenant_quota``.
    resilience_factory:
        Zero-argument callable producing one
        :class:`~repro.resilience.policy.ResiliencePolicy` *per shard*
        — policies hold mutable circuit-breaker state, so shards must
        not share one instance.  ``None`` gives each shard the policy
        defaults.
    metrics:
        Optional registry.  The gateway registers read-only instruments
        over the books (:meth:`_register_metrics`): every count, latency
        histogram and resilience counter reads what :meth:`stats` reads,
        plus the overload, failover, restart and snapshot counters and
        per-shard gauges (``service_shard<i>_pending``,
        ``service_shard<i>_cache_entries``).  A request runs the same
        code with a registry attached as without one.
    execute, optimize, tracer:
        Forwarded to every :class:`~repro.service.service.ServiceShard`
        unchanged.
    """

    def __init__(
        self,
        database,
        shards=8,
        capacity=64,
        max_pending=256,
        tenant_quota=None,
        tenant_quotas=None,
        resilience_factory=None,
        metrics=None,
        durability=None,
        execute=True,
        optimize=None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        self.database = database
        self.max_pending = int(max_pending)
        self.tenant_quota = tenant_quota
        self.tenant_quotas = dict(tenant_quotas or {})
        #: One lock serializing all shards' data execution against the
        #: shared database — identical serialization to one service.
        self._db_lock = threading.Lock()

        def shard(index):
            return ServiceShard(
                index,
                database,
                self._db_lock,
                capacity,
                resilience_factory,
                optimize,
                execute,
                tracer,
            )

        self.shards = [shard(index) for index in range(shards)]
        #: The degraded path's last resort, built like the shards but
        #: never routed to or supervised: :meth:`_failover` serves on it
        #: when no sibling can.  Its books count into ``stats().total``,
        #: not ``per_shard``.
        self.standby = shard(None)
        #: The gateway's books, all under ``_books_lock``, which a
        #: request takes once to enter (:meth:`_admit`) and once to
        #: settle (:meth:`_dispatch`).  Admission: each shard's
        #: ``pending`` and the tenants' in-flight counts.  Terminal
        #: request accounting: every accepted request ends in exactly
        #: one of REQUEST_OUTCOMES; with the rejection counts this
        #: gives the conservation equality the chaos suite checks.
        #: Snapshot activity is counted here too, since periodic
        #: snapshots run on the shard workers.
        self._books_lock = threading.Lock()
        self._tenant_inflight = {}
        self._submitted = 0
        self._outcomes = dict.fromkeys(REQUEST_OUTCOMES, 0)
        self._failover_reasons = {}
        self._overload_counts = dict.fromkeys(OVERLOAD_REASONS, 0)
        self._snapshot_counts = {"written": 0, "failures": 0}
        self._completed_since_snapshot = 0
        self.supervisor = ShardSupervisor(self)
        self.durability = DurabilityConfig.coerce(durability)
        self.restore_stats = None
        if self.durability is not None:
            self.restore_stats = self._restore_from_disk()
        #: id(query) -> (query, signature, shard index).  The strong
        #: query reference keeps the id stable for the memo's lifetime.
        self._route_memo = {}
        if metrics is not None:
            self._register_metrics(metrics)

    def _register_metrics(self, metrics):
        """Read-only instruments over the books, read at scrape time.

        Each count reads :meth:`stats` (or the gateway's own books), so
        one scrape at quiescence equals ``stats()``, and no count drops
        when a shard restarts: its books outlive the restart.
        """

        def total(read):
            return lambda: read(self.stats().total)

        def latency(name):
            def read():
                book = getattr(self.stats().total, name)
                return book.buckets, book.sum

            return read

        for name, key, kind, help_text in _PLAN_CACHE_METRICS:
            getattr(metrics, kind)(
                name, help_text, callback=total(lambda t, key=key: t.cache[key])
            )
        for name, help_text in _LATENCY_METRICS:
            metrics.histogram(
                "service_%s_seconds" % name, help_text, callback=latency(name)
            )
        for name in RESILIENCE_COUNTERS:
            metrics.counter(
                "service_%s_total" % name,
                "Resilience outcome: %s" % name.replace("_", " "),
                callback=total(lambda t, name=name: t.resilience[name]),
            )
        for reason in OVERLOAD_REASONS:
            metrics.counter(
                "service_overload_%s_total" % reason,
                "Admission fast-rejections: %s" % reason.replace("_", " "),
                callback=lambda reason=reason: self.overload_counts()[reason],
            )
        for name, help_text, read in _TOTAL_COUNTERS:
            metrics.counter(name, help_text, callback=total(read))
        for name, help_text, callback in (
            (
                "service_overload_rejections_total",
                "Admission fast-rejections, all reasons",
                lambda: sum(self.overload_counts().values()),
            ),
            (
                "service_failovers_total",
                "Requests served on the degraded path after shard loss",
                lambda: self.request_outcomes()["failed_over"],
            ),
            (
                "service_shard_restarts_total",
                "Shard workers rebuilt by the supervisor",
                lambda: self.supervisor.counts()["restarts"],
            ),
            (
                "service_snapshots_written_total",
                "Plan-cache snapshots persisted to disk",
                lambda: self.snapshot_counts()["written"],
            ),
        ):
            metrics.counter(name, help_text, callback=callback)
        metrics.gauge(
            "service_inflight_requests",
            "Invocations currently running",
            callback=lambda: sum(
                len(shard.books.inflight) for shard in self.shards + [self.standby]
            ),
        )
        for shard in self.shards:
            metrics.gauge(
                "service_shard%d_pending" % shard.index,
                "Requests in flight on shard %d" % shard.index,
                callback=lambda s=shard: s.pending,
            )
            metrics.gauge(
                "service_shard%d_cache_entries" % shard.index,
                "Plans cached on shard %d" % shard.index,
                callback=lambda s=shard: len(s.cache),
            )

    # ------------------------------------------------------------------
    # Shard construction and recovery
    # ------------------------------------------------------------------

    def _rebuild_shard(self, shard):
        """Supervisor callback: rebuild one shard's partition and worker.

        :meth:`ServiceShard.restart` rebuilds it in place — fresh cache,
        fresh resilience policy from the factory (breaker state is never
        carried over from a dead worker), same shared database lock, same
        books — and, when durable snapshots are enabled, the partition is
        re-warmed from the last snapshot on disk so recovery skips
        re-optimizing the hot signatures the dead shard owned.
        """
        shard.restart()
        if self.durability is not None:
            try:
                restore_gateway(
                    self, read_snapshot(self.durability.path), only_shard=shard.index
                )
            except SnapshotError as error:
                # Recovery must prefer a cold shard to no shard.
                self._note_snapshot_failure("restart-restore", error)

    def _restore_from_disk(self):
        """Warm-restore at gateway startup; cold start on any refusal."""
        try:
            return restore_gateway(self, read_snapshot(self.durability.path))
        except SnapshotError as error:
            if error.reason != "unreadable":
                self._note_snapshot_failure("startup-restore", error)
            return None

    def _note_snapshot_failure(self, stage, error):
        with self._books_lock:
            self._snapshot_counts["failures"] += 1
        logger.warning("plan-cache snapshot %s failed: %s", stage, error)

    # ------------------------------------------------------------------
    # Durable snapshots
    # ------------------------------------------------------------------

    def save_snapshot(self, path=None):
        """Persist the current plan-cache state; returns the path.

        With no explicit ``path`` the gateway's durability config
        supplies one (it is an error to call this with neither).
        """
        if path is None:
            if self.durability is None:
                raise SnapshotError(
                    "no snapshot path: gateway has no durability config",
                    reason="bad_config",
                )
            path = self.durability.path
        written = write_snapshot(path, build_snapshot(self))
        with self._books_lock:
            self._snapshot_counts["written"] += 1
        return written

    def _snapshot_due(self, completed):
        """Count ``completed`` toward the periodic snapshot (gateway
        books lock held); whether one is due now.

        A ``run_batch`` chunk counts when it ends, so it triggers at
        most one snapshot however many periods it spans.
        """
        config = self.durability
        if config is None or config.snapshot_every is None:
            return False
        self._completed_since_snapshot += completed
        if self._completed_since_snapshot < config.snapshot_every:
            return False
        self._completed_since_snapshot = 0
        return True

    def snapshot_counts(self):
        """``{written, failures}`` snapshot-activity counters."""
        with self._books_lock:
            return dict(self._snapshot_counts)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, query):
        """The ``(signature, shard)`` owning ``query``.

        Memoized by query object identity: a serving workload reuses a
        handful of query objects across thousands of requests, so the
        canonical signature is computed once per object, not once per
        request.  The memo holds strong references (id stability) and
        is cleared past :data:`_ROUTE_MEMO_LIMIT` objects.
        """
        memoized = self._route_memo.get(id(query))
        if memoized is not None and memoized[0] is query:
            return memoized[1], self.shards[memoized[2]]
        signature = canonical_signature(query)
        index = shard_index_for(signature, len(self.shards))
        if len(self._route_memo) >= _ROUTE_MEMO_LIMIT:
            self._route_memo.clear()
        self._route_memo[id(query)] = (query, signature, index)
        return signature, self.shards[index]

    def shard_for(self, query):
        """The :class:`ServiceShard` that owns ``query``."""
        return self.route(query)[1]

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _quota_for(self, tenant):
        """``tenant``'s in-flight quota, or None (never for ``None``)."""
        if tenant is None:
            return None
        return self.tenant_quotas.get(tenant, self.tenant_quota)

    def _admit(self, requests, bounded=True):
        """Route ``requests`` and admit them; ``[(signature, shard), ...]``.

        Every request is routed first, so one that cannot be routed
        raises having counted nothing.  Then one books acquisition
        counts them submitted and either reserves every slot they hold
        or counts one rejection with nothing reserved.  ``bounded`` is
        one request from :meth:`run` or :meth:`submit`: it needs a slot
        in its shard's queue under ``max_pending`` and, when its tenant
        has a quota, a tenant slot, or it raises typed.  Unbounded is a
        :meth:`run_batch`, whose caller already holds every request: it
        reserves queue slots only, so the pending gauge shows it.
        """
        routed = [self.route(request.query) for request in requests]
        refusal = None
        with self._books_lock:
            self._submitted += len(routed)
            if bounded:
                ((signature, shard),) = routed
                (request,) = requests
                quota = self._quota_for(request.tenant)
                inflight = self._tenant_inflight.get(request.tenant, 0)
                if shard.pending >= self.max_pending:
                    refusal = ServiceOverloadError(
                        "shard %d queue full (%d pending, limit %d)"
                        % (shard.index, shard.pending, self.max_pending),
                        reason="shard_queue_full",
                        shard=shard.index,
                        pending=shard.pending,
                        limit=self.max_pending,
                    )
                elif quota is not None and inflight >= quota:
                    refusal = ServiceOverloadError(
                        "tenant %r at quota (%d in flight, limit %d)"
                        % (request.tenant, inflight, quota),
                        reason="tenant_quota",
                        shard=shard.index,
                        tenant=request.tenant,
                        pending=inflight,
                        limit=quota,
                    )
                elif quota is not None:
                    self._tenant_inflight[request.tenant] = inflight + 1
            if refusal is None:
                for _, shard in routed:
                    shard.pending += 1
                return routed
            self._overload_counts[refusal.reason] += 1
            rejections = self._overload_counts[refusal.reason]
        refusal.signature = signature
        # A deterministic client backoff hint: pure function of how often
        # this reason has rejected, so test clients can assert (and
        # replay) their backoff schedule.
        refusal.retry_after_hint = backoff_hint(0, refusal.reason, rejections)
        raise refusal

    def tenant_inflight(self, tenant):
        """Current in-flight count for ``tenant`` (exact gauge)."""
        with self._books_lock:
            return self._tenant_inflight.get(tenant, 0)

    def overload_counts(self):
        """Snapshot dict of fast-rejections by reason."""
        with self._books_lock:
            return dict(self._overload_counts)

    # ------------------------------------------------------------------
    # Request conservation accounting
    # ------------------------------------------------------------------

    def request_outcomes(self):
        """Terminal accounting of every request this gateway saw.

        Returns ``{submitted, completed, failed_over, failed,
        rejected, failover_reasons}``.  At quiescence the conservation
        equality holds exactly: ``submitted == completed + failed_over
        + failed + rejected`` — no request is silently lost (a
        completed or failed-over request produced a result; a failed
        one raised typed; a rejected one never entered) and none is
        double-counted (each increments exactly one terminal counter).
        """
        with self._books_lock:
            outcomes = dict(self._outcomes)
            outcomes["submitted"] = self._submitted
            outcomes["failover_reasons"] = dict(self._failover_reasons)
            outcomes["rejected"] = sum(self._overload_counts.values())
        return outcomes

    # ------------------------------------------------------------------
    # Degraded path
    # ------------------------------------------------------------------

    def _failover(self, signature, request, origin):
        """Serve a request whose owning shard is down; typed, counted.

        Tries the servable siblings in ``(origin + k) mod N`` order and
        then the standby, which is never routed to, so it re-optimizes
        fresh; each runs the same :meth:`ServiceShard.serve`, so the
        result rows match what the dead shard would have produced.  A
        sibling that dies under the request passes it on; the standby's
        failure is the request's.  :meth:`_dispatch` counts a returned
        result ``failed_over`` under the originating shard-loss reason
        and a failure on the degraded path ``failed`` — either way the
        request reaches exactly one terminal counter.
        """
        standby = self.standby
        siblings = self.shards[origin.index + 1 :] + self.shards[: origin.index]
        for shard in siblings + [standby]:
            if shard is standby or self.supervisor.is_servable(shard):
                try:
                    return shard.serve(signature, request)
                except ShardDownError:
                    if shard is standby:
                        raise

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _dispatch(self, shard, chunk, reason=None, tenant=None):
        """Serve accepted requests, each to exactly one terminal outcome.

        ``chunk`` is ``[(signature, request), ...]``, all owned by
        ``shard``; the returned list aligns with it and holds each
        request's result or the exception it failed with, which the
        entry point re-raises.  The one place a request meets its
        shard, on whichever thread the entry point chose: a shard the
        supervisor routes around (asked once per chunk; the shard's
        own liveness check runs per serve), or one that dies under a
        serve, sends the request to :meth:`_failover`, so the caller
        sees a result either way, never a silently dropped request.
        ``reason`` names a shard loss the caller already knows of — the
        worker pool cancelled the queued work or refused it — and sends
        the whole chunk straight to the degraded path.

        The chunk settles in one books acquisition, however it ended:
        exactly one of :data:`REQUEST_OUTCOMES` per request (failovers
        with their reasons), the chunk's queue slots and ``tenant``'s
        in-flight slot (the tenant :meth:`_admit` reserved one for, if
        any) released, and the periodic snapshot trigger advanced by
        the requests the owning shard completed.  This is the only
        place a slot is released.
        """
        if reason is None and not self.supervisor.is_servable(shard):
            reason = self.supervisor.down_error(shard).reason
        outcomes = []
        completed = failed = 0
        failovers = []
        try:
            for signature, request in chunk:
                lost = reason
                try:
                    if lost is None:
                        try:
                            outcomes.append(shard.serve(signature, request))
                            completed += 1
                            continue
                        except ShardDownError as error:
                            lost = error.reason or "crashed"
                    outcomes.append(self._failover(signature, request, shard))
                    failovers.append(lost)
                except Exception as error:  # noqa: BLE001 — the entry point's to raise
                    outcomes.append(error)
                    failed += 1
        finally:
            with self._books_lock:
                shard.pending -= len(chunk)
                if self._quota_for(tenant) is not None:
                    remaining = self._tenant_inflight.get(tenant, 0) - 1
                    if remaining > 0:
                        self._tenant_inflight[tenant] = remaining
                    else:
                        self._tenant_inflight.pop(tenant, None)
                self._outcomes["completed"] += completed
                self._outcomes["failed"] += failed
                self._outcomes["failed_over"] += len(failovers)
                for lost in failovers:
                    self._failover_reasons[lost] = (
                        self._failover_reasons.get(lost, 0) + 1
                    )
                due = self._snapshot_due(completed)
        if due:
            try:
                self.save_snapshot()
            except (OSError, SnapshotError) as error:
                self._note_snapshot_failure("periodic", error)
        return outcomes

    def _on_worker(self, shard, work):
        """Queue ``work()`` on the shard's worker; the pool future, or None.

        ``work`` takes an optional shard-loss reason for
        :meth:`_dispatch` and must not raise.  A shard that is not
        servable gets nothing queued (the work would wait behind a
        wedged worker), and the pool may refuse the work — it shut
        down between the health check and the enqueue, the kill race:
        either way the work runs here, on the calling thread, with the
        reason, and None is returned.  A returned future that ends
        *cancelled* — a kill with the work still queued — never ran
        ``work``; the entry point runs it with reason ``"killed"`` on
        the thread that finds out, so nothing admitted is left
        dangling however the shard died.
        """
        if not self.supervisor.is_servable(shard):
            reason = self.supervisor.down_error(shard).reason
        else:
            try:
                return shard.submit(work)
            except RuntimeError:
                reason = "killed"
        work(reason)
        return None

    def submit(
        self,
        query,
        bindings,
        execute=None,
        tag=None,
        deadline_seconds=None,
        reopt_policy=None,
        tenant=None,
    ):
        """Route, admit, and queue one invocation; returns a Future.

        Raises :class:`~repro.common.errors.ServiceOverloadError`
        *synchronously* — before any optimizer or executor work — when
        the owning shard's queue is at its bound or the tenant is at
        its quota.  The backpressure contract: callers that see the
        typed rejection slow down; callers holding a future know their
        request was admitted and will complete (or fail typed).  The
        completion contract survives shard loss: when the owning
        shard's worker dies under the request, the returned future
        resolves with the failed-over result (or the degraded path's
        typed error) instead of dangling, and admission slots and
        quota reservations are released exactly once — before the
        future resolves — no matter how the shard died.
        """
        request = ServiceRequest(
            query, bindings, execute, tag, deadline_seconds, reopt_policy, tenant
        )
        ((signature, shard),) = self._admit((request,))
        future = Future()
        future.set_running_or_notify_cancel()

        def settle(reason=None):
            (outcome,) = self._dispatch(shard, ((signature, request),), reason, tenant)
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

        queued = self._on_worker(shard, settle)
        if queued is not None:
            # Nobody waits on the pool future, so a kill that cancels
            # it fails the request over on the killer's thread.
            queued.add_done_callback(
                lambda inner: settle("killed") if inner.cancelled() else None
            )
        return future

    def run(
        self,
        query,
        bindings,
        execute=None,
        tag=None,
        deadline_seconds=None,
        reopt_policy=None,
        tenant=None,
    ):
        """Serve one invocation synchronously (admission still applies)."""
        request = ServiceRequest(
            query, bindings, execute, tag, deadline_seconds, reopt_policy, tenant
        )
        ((signature, shard),) = self._admit((request,))
        (outcome,) = self._dispatch(shard, ((signature, request),), tenant=tenant)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def run_batch(self, requests):
        """Serve many requests, results aligned with request order.

        The closed-loop replay path: requests are partitioned by
        owning shard and each shard worker runs its chunk in one tight
        loop, so the pool overhead — and the settlement — is once per
        *shard* rather than once per request.  Replay is bounded by
        construction (the caller holds the whole batch), so admission
        reserves queue slots without the bound and no tenant slots;
        the pending gauge still reflects each chunk in flight.  A
        batch with a request that cannot be routed raises before any
        is counted or served.  The first failure in request order is
        re-raised once every chunk has finished.
        """
        requests = list(requests)
        chunks = [([], []) for _ in self.shards]
        routed = self._admit(requests, bounded=False)
        for index, (request, (signature, shard)) in enumerate(zip(requests, routed)):
            indexes, chunk = chunks[shard.index]
            indexes.append(index)
            chunk.append((signature, request))

        outcomes = [None] * len(requests)
        waiting = []
        for shard, (indexes, chunk) in zip(self.shards, chunks):
            if not chunk:
                continue

            def serve_chunk(reason=None, shard=shard, indexes=indexes, chunk=chunk):
                served = self._dispatch(shard, chunk, reason)
                for index, outcome in zip(indexes, served):
                    outcomes[index] = outcome

            waiting.append((serve_chunk, self._on_worker(shard, serve_chunk)))
        for serve_chunk, queued in waiting:
            if queued is None:
                continue
            try:
                queued.result()
            except CancelledError:
                # Killed with the chunk still queued: fail it over
                # here, on the thread that waits for it.
                serve_chunk("killed")
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def stats(self):
        """A :class:`ShardedServiceStatistics` snapshot (exact aggregate)."""
        return ShardedServiceStatistics(
            [shard.stats() for shard in self.shards],
            self.overload_counts(),
            self.standby.stats(),
        )

    def shutdown(self, wait=True):
        """Stop every shard's worker.

        With durability enabled, a final snapshot is written first —
        quiescing before persisting — so a clean shutdown always
        leaves a warm-restorable image behind.
        """
        config = self.durability
        if config is not None and config.snapshot_on_shutdown:
            try:
                self.save_snapshot()
            except (OSError, SnapshotError) as error:
                self._note_snapshot_failure("shutdown", error)
        for shard in self.shards:
            shard.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False

    def __repr__(self):
        return "ShardedQueryService(%d shards, %d cached plans)" % (
            len(self.shards),
            sum(len(shard.cache) for shard in self.shards),
        )
