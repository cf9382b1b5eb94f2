"""The serving front end: one gateway over partitioned plan caches.

:class:`ShardedQueryService` (the **gateway**) is the only class with
``run`` / ``submit`` / ``run_batch``; a single-partition deployment is
``ShardedQueryService(database, shards=1)``.  Partitioning changes
where a request is served, never what it observes:

* the gateway canonicalizes each query once, hashes its signature
  digest, and routes the request to one of N :class:`ServiceShard`\\ s.
  Routing is pure function of the canonical signature, so every
  invocation of one query shape lands on the same shard and the
  optimize-once/execute-many amortization is preserved per partition.
* each **shard** owns one :class:`~repro.service.service.QueryService`
  partition — its own :class:`~repro.service.cache.PlanCache` with its
  own lock and its own staleness/circuit-breaker state — plus its own
  worker thread, so requests for *different* signatures never
  serialize on a shared cache lock.  Shards share one database lock,
  so data execution is serialized exactly as in one partition.
* **admission control**: each shard's queue is bounded; when it is
  full — or the requesting tenant is at its in-flight quota — the
  gateway fast-rejects at submit time with a typed
  :class:`~repro.common.errors.ServiceOverloadError` instead of
  letting queues grow without bound.  Rejections are counted per
  reason.
* **admit once, settle once**: whether a request enters and how it
  ended are decided under the gateway's one books lock, taken once
  by :meth:`ShardedQueryService._admit` (count it submitted, then
  reserve its queue and tenant slots or count the rejection) and
  once by :meth:`ShardedQueryService._dispatch` (count its outcome,
  release its slots, advance the snapshot trigger).  A shard keeps
  no admission state of its own.
* **one set of books**: each count is kept once.  Each shard owns a
  :class:`~repro.service.service.ServiceBooks` for its whole life and
  hands it to every partition it builds, so a restart keeps what the
  shard counted, its progress heartbeat included; the gateway keeps
  the standby partition's books and its own (admission, request
  outcomes, rejections, snapshot activity) under its books lock.
  :meth:`ShardedQueryService.stats` sums the books exactly, and a
  metrics registry only reads them.

There is one request path.  The gateway canonicalizes and routes each
query once (memoized per query object), admits the request, and hands
the owning shard's ``(signature, request)`` pairs to
:meth:`ShardedQueryService._dispatch`, which differs between entry
points only in *where* it runs: the caller's thread for ``run``, the
owning shard's worker for ``submit``, and that worker once per chunk
for ``run_batch`` (one pool future and one settlement per shard
instead of one per request).  Dispatch calls
:meth:`ServiceShard.serve`, which adds only a shard's own business —
liveness and injected faults — to
:meth:`QueryService.serve() <repro.service.service.QueryService.serve>`,
the same function both failover legs run.  Neither the entry point nor
the shard count can change what a request observes; the entry-point
equivalence suite asserts exactly that.
"""

import functools
import logging
import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

from repro.common.errors import (
    ServiceExecutionError,
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
    QueryService,
    ServiceBooks,
    ServiceRequest,
    ServiceStatistics,
)
from repro.service.supervision import ShardSupervisor

logger = logging.getLogger(__name__)

__all__ = [
    "REQUEST_OUTCOMES",
    "ServiceShard",
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

#: Deterministic shard fault kinds accepted by
#: :meth:`ServiceShard.inject_fault` (the service-tier chaos hooks).
SHARD_FAULT_KINDS = ("crash", "hang", "slow")

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


def _partition(books, database, db_lock, capacity, resilience_factory, **kwargs):
    """A :class:`~repro.service.service.QueryService` counting into
    ``books``: the recipe a gateway builds each shard's partitions and
    its standby from.

    A module function over the gateway's settings, not a gateway
    method, so a shard holds no reference back to its gateway.
    """
    resilience = resilience_factory() if resilience_factory is not None else None
    return QueryService(
        database, db_lock, books, capacity=capacity, resilience=resilience, **kwargs
    )


def shard_index_for(signature, shard_count):
    """The shard owning ``signature``: digest hash modulo shard count.

    Deterministic across processes (the digest is SHA-256-derived, not
    ``hash()``), so replaying a workload always routes identically.
    """
    return int(signature_digest(signature), 16) % shard_count


class ServiceShard:
    """One partition: a private plan cache, worker, and breaker state.

    Wraps a dedicated :class:`~repro.service.service.QueryService` (its
    cache *is* the partition) plus a single-thread executor.  The shard
    never sees a query whose signature hashes elsewhere, so its cache
    lock is contended only by requests for signatures it owns.
    ``make_service(books)`` builds a partition; the shard's
    :class:`~repro.service.service.ServiceBooks` are made once and
    handed to every partition it builds, and they keep its progress
    heartbeat (``served``, ``stalls``) too.  Admission is not the
    shard's: its ``pending`` count is written only by the gateway,
    under the gateway's books lock.
    """

    def __init__(self, index, make_service):
        self.index = index
        self.books = ServiceBooks()
        self._make_service = make_service
        self.service = make_service(self.books)
        #: False once the worker crashed or was killed; flipped back by
        #: :meth:`restart`.  Reads are racy by design (a health check
        #: may see a just-killed shard as alive for one sweep) — the
        #: serve path re-checks and raises typed.
        self.alive = True
        #: Bumped by every :meth:`restart`; lets tests assert a shard
        #: was actually rebuilt rather than merely marked healthy.
        self.generation = 0
        #: Requests admitted to this shard and not yet settled (exact
        #: gauge): the gateway reserves and releases it under its books
        #: lock, and nothing else writes it.
        self.pending = 0
        self._fault_lock = threading.Lock()
        #: Pending injected faults, ``[kind, remaining_serves]`` —
        #: deterministic chaos hooks, empty in production.
        self._injected = []
        #: Set while the worker is wedged inside an injected hang; the
        #: supervisor reads it as a no-progress signal and the chaos
        #: harness waits on it to synchronize deterministically.
        self._hanging = threading.Event()
        self._resume = threading.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-%d" % index
        )

    @property
    def hanging(self):
        """Whether the worker is currently wedged in an injected hang."""
        return self._hanging.is_set()

    # ------------------------------------------------------------------
    # Deterministic fault hooks (chaos harness / supervision tests)
    # ------------------------------------------------------------------

    def inject_fault(self, kind, after=0, count=1):
        """Arm a deterministic fault on this shard's serve path.

        ``kind`` is ``"crash"`` (the serve raises
        :class:`ShardDownError` and the shard marks itself dead),
        ``"hang"`` (the serving thread blocks until :meth:`restart` or
        :meth:`kill` releases it, then fails over), or ``"slow"``
        (the serve completes normally but bumps the stall gauge the
        supervisor reads as a slow-shard signal).  The fault fires on
        the ``after``-th next serve (0 = the very next), ``count``
        times for ``"slow"``.
        """
        if kind not in SHARD_FAULT_KINDS:
            raise ShardDownError(
                "unknown shard fault kind %r" % kind,
                shard=self.index,
                reason="bad_fault",
            )
        with self._fault_lock:
            for _ in range(count if kind == "slow" else 1):
                self._injected.append([kind, int(after)])

    def _check_faults(self):
        # Nothing armed — always, outside the chaos harness — so look
        # before taking the lock on every serve.  A fault armed this
        # instant fires on this serve or the next, exactly as it would
        # have racing this serve for the lock.
        if not self._injected:
            return
        fired = None
        with self._fault_lock:
            for fault in self._injected:
                if fault[1] > 0:
                    fault[1] -= 1
                elif fired is None:
                    fired = fault[0]
            if fired is not None:
                self._injected.remove([fired, 0])
        if fired == "slow":
            with self.books.lock:
                self.books.stalls += 1
        elif fired == "crash":
            self.alive = False
            raise ShardDownError(
                "shard %d worker crashed (injected)" % self.index,
                shard=self.index,
                reason="crashed",
            )
        elif fired == "hang":
            self._resume.clear()
            self._hanging.set()
            self._resume.wait()
            self._hanging.clear()
            raise ShardDownError(
                "shard %d worker hung and was recovered" % self.index,
                shard=self.index,
                reason="hung",
            )

    def kill(self):
        """Abruptly lose the worker (chaos hook / operator action).

        Marks the shard dead, releases any wedged serve, and cancels
        queued work.  Queued work resolves cancelled and in-flight
        serves raise :class:`ShardDownError`; the gateway's dispatch
        fails every one of them over — the kill loses capacity, never
        requests.
        """
        self.alive = False
        self._resume.set()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def restart(self):
        """Install a rebuilt service and a fresh worker.

        The old executor is shut down (releasing a wedged serve, which
        then fails typed and is failed over), and the shard comes back
        alive with a cold cache partition and fresh breaker state —
        per-shard state is *rebuilt*, never resurrected from a worker
        whose history is suspect.  What survives is what was counted:
        the new partition counts into the shard's books, and slots held
        by in-flight requests are released when their dispatch settles,
        so the pending gauge converges to exact without a reset.
        """
        self._resume.set()
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._fault_lock:
            self._injected.clear()
        self.service = self._make_service(self.books)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-%d" % self.index
        )
        self.generation += 1
        self.alive = True

    def serve(self, signature, request):
        """Serve one routed request on the calling thread.

        :meth:`QueryService.serve() <repro.service.service.QueryService.serve>`
        behind what only a shard knows: a dead worker or an injected
        fault raises :class:`ShardDownError` before the request touches
        the cache, and a typed execution failure is stamped with this
        shard's index.  The partition advances the progress heartbeat
        (``books.served``) on every serve it finishes, failed ones too.
        """
        if not self.alive:
            raise ShardDownError(
                "shard %d worker is dead" % self.index,
                shard=self.index,
                signature=signature,
                reason="crashed",
            )
        self._check_faults()
        try:
            return self.service.serve(signature, request)
        except ServiceExecutionError as error:
            error.shard = self.index
            raise

    def submit(self, work):
        """Queue ``work`` (a zero-argument callable) on the shard worker.

        Raises ``RuntimeError`` once the worker pool has shut down.
        """
        return self._executor.submit(work)

    def shutdown(self, wait=True):
        """Stop the shard worker; the partition stays readable.

        Releases a wedged serve first so a hung worker cannot block
        shutdown forever.
        """
        self._resume.set()
        self._executor.shutdown(wait=wait)

    def __repr__(self):
        return "ServiceShard(%d, pending=%d, %d cached plans)" % (
            self.index,
            self.pending,
            len(self.service.cache),
        )


class ShardedServiceStatistics:
    """Gateway statistics: exact aggregate plus the per-shard parts.

    ``total`` is :meth:`ServiceStatistics.aggregate` over the shards'
    snapshots and the standby partition's, if one ever served —
    counters and latency sums summed, the hit rate recomputed, nothing
    approximated — and ``per_shard`` keeps one snapshot per shard for
    skew inspection.  ``overload`` counts gateway fast-rejections by
    reason; rejected requests never reach a shard, so they appear
    *only* here (total requests served plus rejections equals requests
    submitted).
    """

    __slots__ = ("total", "per_shard", "overload")

    def __init__(self, per_shard, overload, standby=None):
        self.per_shard = tuple(per_shard)
        parts = self.per_shard if standby is None else self.per_shard + (standby,)
        self.total = ServiceStatistics.aggregate(parts)
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
        :class:`~repro.service.service.QueryService` (its own cache,
        cache lock and breaker state) plus a worker thread.
    capacity:
        Plan-cache capacity *per shard*, in live entries.
    max_pending:
        Admission bound per shard: requests admitted (via
        :meth:`submit`) beyond this many in flight on one shard are
        fast-rejected with
        :class:`~repro.common.errors.ServiceOverloadError`
        (``reason="shard_queue_full"``).
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
        Forwarded to every shard's ``QueryService`` unchanged.
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
        #: The partition recipe, kept so the supervisor can rebuild a
        #: crashed shard bit-identically to its original.
        self._make_service = functools.partial(
            _partition,
            database=database,
            db_lock=self._db_lock,
            capacity=capacity,
            resilience_factory=resilience_factory,
            optimize=optimize,
            execute=execute,
            tracer=tracer,
        )
        self.shards = [
            ServiceShard(index, self._make_service) for index in range(shards)
        ]
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
        #: Lazily created unsharded fallback service — the "re-optimize
        #: fresh" degraded path when no sibling shard is servable — and
        #: the books it counts into, which :meth:`stats` adds to the total.
        self._standby = None
        self._standby_books = ServiceBooks()
        self._standby_lock = threading.Lock()
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
        when a shard restarts: its books outlive its partitions.
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
                self._rejection_count,
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
            callback=lambda: sum(len(books.inflight) for books in self._books()),
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
                callback=lambda s=shard: len(s.service.cache),
            )

    # ------------------------------------------------------------------
    # Shard construction and recovery
    # ------------------------------------------------------------------

    def _rebuild_shard(self, shard):
        """Supervisor callback: rebuild one shard's service and worker.

        The replacement service comes from the same recipe as the
        original — fresh cache partition, fresh resilience policy from
        the factory (breaker state is never carried over from a dead
        worker), same shared database lock, same books — and, when durable
        snapshots are enabled, the partition is re-warmed from the
        last snapshot on disk so recovery skips re-optimizing the hot
        signatures the dead shard owned.
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

    def _rejection_count(self):
        with self._books_lock:
            return sum(self._overload_counts.values())

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

    def _standby_service(self):
        """The gateway-owned fallback service, created on first need."""
        with self._standby_lock:
            if self._standby is None:
                self._standby = self._make_service(self._standby_books)
            return self._standby

    def _failover(self, signature, request, origin, reason):
        """Serve a request whose owning shard is down; typed, counted.

        Prefers the next servable sibling shard (it runs the same
        ``QueryService.serve``, so the result rows match what the dead
        shard would have produced); when no sibling is servable the
        gateway's standby service re-optimizes fresh.  :meth:`_dispatch`
        counts a returned result ``failed_over`` under the originating
        shard-loss reason and a failure on the degraded path ``failed``
        — either way the request reaches exactly one terminal counter.
        """
        for offset in range(1, len(self.shards)):
            sibling = self.shards[(origin.index + offset) % len(self.shards)]
            if not self.supervisor.is_servable(sibling):
                continue
            try:
                result = sibling.serve(signature, request)
            except ShardDownError:
                continue
            break
        else:
            result = self._standby_service().serve(signature, request)
        return result

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
                    outcomes.append(self._failover(signature, request, shard, lost))
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
            query,
            bindings,
            execute=execute,
            tag=tag,
            deadline_seconds=deadline_seconds,
            reopt_policy=reopt_policy,
            tenant=tenant,
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
            query,
            bindings,
            execute=execute,
            tag=tag,
            deadline_seconds=deadline_seconds,
            reopt_policy=reopt_policy,
            tenant=tenant,
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

    def _books(self):
        """Every set of books the gateway's partitions count into."""
        return [shard.books for shard in self.shards] + [self._standby_books]

    def stats(self):
        """A :class:`ShardedServiceStatistics` snapshot (exact aggregate)."""
        standby = self._standby
        return ShardedServiceStatistics(
            [shard.service.stats() for shard in self.shards],
            self.overload_counts(),
            None if standby is None else standby.stats(),
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
            sum(len(shard.service.cache) for shard in self.shards),
        )
