"""A sharded serving tier: partitioned plan cache behind one gateway.

The single :class:`~repro.service.service.QueryService` of PR 2 puts
every request through one plan cache guarded by one lock and one
thread pool — fine for a benchmark harness, a bottleneck for the
ROADMAP's "heavy traffic from millions of users" regime.  This module
scales that front end out without changing what any single request
observes:

* :class:`ShardedQueryService` (the **gateway**) canonicalizes each
  query once, hashes its signature digest, and routes the request to
  one of N :class:`ServiceShard`\\ s.  Routing is pure function of the
  canonical signature, so every invocation of one query shape lands on
  the same shard and the optimize-once/execute-many amortization is
  preserved per partition.
* each **shard** owns a full :class:`~repro.service.service.QueryService`
  — its own :class:`~repro.service.cache.PlanCache` partition with its
  own lock, its own worker thread, and its own staleness/circuit-
  breaker state — so requests for *different* signatures never
  serialize on a shared cache lock.  Shards share one database lock,
  so data execution is serialized exactly as in a single service.
* **admission control**: each shard's queue is bounded; when it is
  full — or the requesting tenant is at its in-flight quota — the
  gateway fast-rejects at submit time with a typed
  :class:`~repro.common.errors.ServiceOverloadError` instead of
  letting queues grow without bound.  Rejections are counted per
  reason and mirrored into metrics.
* **exact statistics**: :meth:`ShardedQueryService.stats` aggregates
  the per-shard :class:`~repro.service.service.ServiceStatistics`
  snapshots with :meth:`ServiceStatistics.aggregate` — counters
  summed, percentiles recomputed over the union of raw samples — so
  the gateway view loses no counts, and per-shard pending/cache-size
  gauges are exported when a metrics registry is attached.

The serving fast path (:meth:`ServiceShard.serve`) is the perf story:
compared with ``QueryService.run`` it skips the per-request canonical-
signature recomputation (the gateway routes with it, then hands it
down), reuses the entry's decision-outcome memo so the chosen static
plan is *rebuilt* once per distinct outcome instead of once per
invocation (:meth:`~repro.executor.decision.CompiledDecision.choose_memoized`),
and processes batched traffic in per-shard chunks so the pool pays one
future per shard instead of one per request.  Freshness handling —
plan compilation, staleness re-optimization, circuit breaking, bounds
observation — is the *same code* (``QueryService._refresh``), so the
fast path makes bit-identical decisions to the single-lock service;
the differential test suite asserts exactly that.
"""

import logging
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

from repro.common.errors import (
    ReproError,
    ServiceExecutionError,
    ServiceOverloadError,
    ShardDownError,
    SnapshotError,
)
from repro.executor.startup import activate_plan
from repro.optimizer.query import canonical_signature, signature_digest
from repro.resilience.deadline import Deadline
from repro.resilience.policy import backoff_hint
from repro.service.durability import (
    DurabilityConfig,
    build_snapshot,
    read_snapshot,
    restore_gateway,
    write_snapshot,
)
from repro.service.service import (
    QueryService,
    ServiceRequest,
    ServiceResult,
    ServiceStatistics,
    _coerce_reopt,
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


class ServiceShard:
    """One partition: a private plan cache, worker, and breaker state.

    Wraps a dedicated :class:`~repro.service.service.QueryService` (its
    cache *is* the partition) plus a single-thread executor and a
    bounded pending-queue counter.  The shard never sees a query whose
    signature hashes elsewhere, so its cache lock is contended only by
    requests for signatures it owns.
    """

    def __init__(self, index, service, max_pending):
        self.index = index
        self.service = service
        self.max_pending = int(max_pending)
        #: False once the worker crashed or was killed; flipped back by
        #: :meth:`restart`.  Reads are racy by design (a health check
        #: may see a just-killed shard as alive for one sweep) — the
        #: serve path re-checks and raises typed.
        self.alive = True
        #: Bumped by every :meth:`restart`; lets tests assert a shard
        #: was actually rebuilt rather than merely marked healthy.
        self.generation = 0
        self._pending = 0
        self._served = 0
        self._stalls = 0
        self._pending_lock = threading.Lock()
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
    def pending(self):
        """Requests admitted but not yet completed (exact gauge)."""
        with self._pending_lock:
            return self._pending

    @property
    def served(self):
        """Requests this shard finished serving (progress heartbeat).

        Counts typed failures too — a shard that fails requests
        quickly is unhealthy in a way admission control sees, but it
        is *making progress*, which is what supervision watches.
        """
        with self._pending_lock:
            return self._served

    @property
    def stalls(self):
        """Injected slow-serve marks seen so far (chaos hook gauge)."""
        with self._pending_lock:
            return self._stalls

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
            with self._pending_lock:
                self._stalls += 1
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
        queued work.  Queued futures resolve cancelled and in-flight
        serves resolve with :class:`ShardDownError`; the gateway's
        completion callbacks fail every one of them over — the kill
        loses capacity, never requests.
        """
        self.alive = False
        self._resume.set()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def restart(self, service):
        """Install a rebuilt service and a fresh worker.

        The old executor is shut down (releasing a wedged serve, which
        then fails typed and is failed over), the old service's pool
        stops, and the shard comes back alive with a cold cache
        partition and fresh breaker state — per-shard state is
        *rebuilt*, never resurrected from a worker whose history is
        suspect.  Pending-slot accounting survives: slots held by
        in-flight requests are released by their completion callbacks,
        so the gauge converges to exact without a reset.
        """
        old_service = self.service
        self._resume.set()
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._fault_lock:
            self._injected.clear()
        self.service = service
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-%d" % self.index
        )
        self.generation += 1
        self.alive = True
        old_service.shutdown(wait=False)

    def try_admit(self, amount=1):
        """Reserve queue slots or fast-reject; never blocks.

        Raises :class:`ServiceOverloadError` (``reason=
        "shard_queue_full"``) when the reservation would push the
        pending count past ``max_pending``.
        """
        with self._pending_lock:
            if self._pending + amount > self.max_pending:
                raise ServiceOverloadError(
                    "shard %d queue full (%d pending, limit %d)"
                    % (self.index, self._pending, self.max_pending),
                    reason="shard_queue_full",
                    shard=self.index,
                    pending=self._pending,
                    limit=self.max_pending,
                )
            self._pending += amount

    def reserve(self, amount):
        """Reserve queue slots *without* the admission bound.

        The batched-replay path: the caller already holds the whole
        batch, so the queue cannot grow unboundedly — the reservation
        only keeps the pending gauge honest while the chunk runs.
        """
        with self._pending_lock:
            self._pending += amount

    def release(self, amount=1):
        """Return queue slots reserved by :meth:`try_admit`/:meth:`reserve`."""
        with self._pending_lock:
            self._pending -= amount

    def serve(self, signature, request):
        """Serve one routed request on the calling thread (fast path).

        Semantically :meth:`QueryService.run` with the signature
        precomputed: identical cache accounting
        (:meth:`~repro.service.cache.PlanCache.entry_for_signature`),
        identical freshness/breaker handling (``_refresh``), identical
        execution resilience, identical error wrapping — minus the
        per-request signature canonicalization and, via the entry's
        decision-outcome memo, minus the per-request chosen-plan
        rebuild.
        """
        if not self.alive:
            raise ShardDownError(
                "shard %d worker is dead" % self.index,
                shard=self.index,
                signature=signature,
                reason="crashed",
            )
        self._check_faults()
        svc = self.service
        svc._inflight_tokens.append(None)
        info = {"cache_hit": None, "attempts": 0}
        try:
            result = self._serve(signature, request, info)
        except ShardDownError:
            raise
        except ReproError as error:
            raise ServiceExecutionError(
                "request tag=%r query=%r failed: %s"
                % (request.tag, request.query.name, error),
                tag=request.tag,
                query_name=request.query.name,
                cache_hit=info["cache_hit"],
                attempts=info["attempts"],
                cause=error,
                shard=self.index,
                signature=signature,
            ) from error
        else:
            return result
        finally:
            svc._inflight_tokens.pop()
            with self._pending_lock:
                self._served += 1

    def _serve(self, signature, request, info):
        svc = self.service
        started = time.perf_counter()
        entry, cache_hit = svc.cache.entry_for_signature(signature, request.query)
        info["cache_hit"] = cache_hit
        optimize_seconds, reoptimized = svc._refresh(
            entry, cache_hit, request.bindings
        )

        with entry.lock:
            plan = entry.plan
            parameter_space = entry.parameter_space
            decision = entry.decision
            memo = entry.chosen_memo
        decision_started = time.perf_counter()
        if decision is not None:
            chosen, report = decision.choose_memoized(request.bindings, memo)
        else:
            chosen, report = activate_plan(
                plan,
                svc.catalog,
                parameter_space,
                request.bindings,
                branch_and_bound=svc.branch_and_bound,
                validate=False,
            )
        startup_seconds = time.perf_counter() - decision_started

        execution = None
        do_execute = (
            svc.default_execute if request.execute is None else request.execute
        )
        if do_execute:
            mode = (
                svc.execution_mode
                if request.execution_mode is None
                else request.execution_mode
            )
            deadline_seconds = request.deadline_seconds
            if deadline_seconds is None:
                deadline_seconds = svc.resilience.deadline_seconds
            reopt = (
                svc.reopt_policy
                if request.reopt_policy is None
                else _coerce_reopt(request.reopt_policy)
            )
            execution, chosen, report = svc._execute_with_resilience(
                entry,
                chosen,
                report,
                decision,
                plan,
                parameter_space,
                request.bindings,
                mode,
                Deadline.ensure(deadline_seconds),
                reopt,
                info,
            )

        total_seconds = time.perf_counter() - started
        svc._record(startup_seconds, optimize_seconds, reoptimized, execution)
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

    def submit(self, signature, request, on_done):
        """Queue one admitted request on the shard worker."""

        def task():
            try:
                return self.serve(signature, request)
            finally:
                on_done()

        return self._executor.submit(task)

    def serve_chunk(self, chunk):
        """Serve ``[(index, signature, request), ...]`` on the worker.

        The batched-replay path: one pool future covers the whole
        chunk, and the tight loop keeps each request's cost at the
        fast-path floor.  Returns ``[(index, outcome, is_error)]`` so
        the gateway can reassemble results in request order and
        re-raise the earliest failure exactly like
        :meth:`QueryService.run_batch` does.
        """
        outcomes = []
        serve = self.serve
        for index, signature, request in chunk:
            try:
                outcomes.append((index, serve(signature, request), False))
            except Exception as error:  # re-raised in request order
                outcomes.append((index, error, True))
        return outcomes

    def shutdown(self, wait=True):
        """Stop the shard worker and its wrapped service.

        Releases a wedged serve first so a hung worker cannot block
        shutdown forever.
        """
        self._resume.set()
        self._executor.shutdown(wait=wait)
        self.service.shutdown(wait=wait)

    def __repr__(self):
        return "ServiceShard(%d, pending=%d, %d cached plans)" % (
            self.index,
            self.pending,
            len(self.service.cache),
        )


class ShardedServiceStatistics:
    """Gateway statistics: exact aggregate plus the per-shard parts.

    ``total`` is :meth:`ServiceStatistics.aggregate` over the shard
    snapshots — counters summed, hit rate and percentiles recomputed
    from merged raw state, nothing approximated — and ``per_shard``
    keeps the individual snapshots for skew inspection.  ``overload``
    counts gateway fast-rejections by reason; rejected requests never
    reach a shard, so they appear *only* here (total requests served
    plus rejections equals requests submitted).
    """

    __slots__ = ("total", "per_shard", "overload")

    def __init__(self, per_shard, overload):
        self.per_shard = tuple(per_shard)
        self.total = ServiceStatistics.aggregate(self.per_shard)
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
        accounting matches a single-lock service exactly.
    shards:
        Number of partitions.  Each shard is a full
        :class:`~repro.service.service.QueryService` with its own
        cache, lock, worker thread, and breaker state.
    capacity:
        Plan-cache capacity *per shard*, in entries.
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
        Optional registry.  The gateway registers its own overload
        counters and per-shard gauges (``service_shard<i>_pending``,
        ``service_shard<i>_cache_entries``); shards are created
        *without* a registry — their exact counters are aggregated by
        :meth:`stats` instead, which avoids N-way metric-name
        collisions in a registry that has no label dimension.

    Remaining keyword arguments (``execute``, ``execution_mode``,
    ``batch_size``, ``compiled``, ``branch_and_bound``, ``validate``,
    ``optimize``, ``tracer``, ``reopt_policy``) are forwarded to every
    shard's ``QueryService`` unchanged.
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
        backoff_seed=0,
        supervisor_down_after=2,
        supervisor_auto_restart=True,
        **service_kwargs,
    ):
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        self.database = database
        self.metrics = metrics
        self.tenant_quota = tenant_quota
        self.tenant_quotas = dict(tenant_quotas or {})
        #: One lock serializing all shards' data execution against the
        #: shared database — identical serialization to one service.
        self._db_lock = threading.Lock()
        #: The shard construction recipe, kept so the supervisor can
        #: rebuild a crashed shard bit-identically to its original.
        self._capacity = capacity
        self._max_pending = max_pending
        self._resilience_factory = resilience_factory
        self._service_kwargs = dict(service_kwargs)
        self.shards = []
        for index in range(shards):
            self.shards.append(
                ServiceShard(index, self._make_service(), max_pending)
            )
        self._tenant_lock = threading.Lock()
        self._tenant_inflight = {}
        self._overload_lock = threading.Lock()
        self._overload_counts = {reason: 0 for reason in OVERLOAD_REASONS}
        self._backoff_seed = backoff_seed
        #: Terminal request accounting: every accepted request ends in
        #: exactly one of REQUEST_OUTCOMES; with the rejection counts
        #: this gives the conservation equality the chaos suite checks.
        self._outcome_lock = threading.Lock()
        self._outcomes = {name: 0 for name in REQUEST_OUTCOMES}
        self._submitted = 0
        self._failover_reasons = {}
        #: Lazily created unsharded fallback service — the "re-optimize
        #: fresh" degraded path when no sibling shard is servable.
        self._standby = None
        self._standby_lock = threading.Lock()
        self.supervisor = ShardSupervisor(
            self,
            down_after=supervisor_down_after,
            auto_restart=supervisor_auto_restart,
        )
        self.durability = DurabilityConfig.coerce(durability)
        self._snapshot_lock = threading.Lock()
        self._completed_since_snapshot = 0
        self._snapshots_written = 0
        self._snapshot_failures = 0
        self.restore_stats = None
        if self.durability is not None and self.durability.restore_on_start:
            self.restore_stats = self._restore_from_disk()
        #: id(query) -> (query, signature, shard index).  The strong
        #: query reference keeps the id stable for the memo's lifetime.
        self._route_memo = {}
        if metrics is not None:
            self._m_overload = {
                reason: metrics.counter(
                    "service_overload_%s_total" % reason,
                    "Admission fast-rejections: %s" % reason.replace("_", " "),
                )
                for reason in OVERLOAD_REASONS
            }
            metrics.counter(
                "service_overload_rejections_total",
                "Admission fast-rejections, all reasons",
                callback=self._rejection_count,
            )
            metrics.counter(
                "service_failovers_total",
                "Requests served on the degraded path after shard loss",
                callback=lambda: self.request_outcomes()["failed_over"],
            )
            metrics.counter(
                "service_shard_restarts_total",
                "Shard workers rebuilt by the supervisor",
                callback=lambda: self.supervisor.counts()["restarts"],
            )
            metrics.counter(
                "service_snapshots_written_total",
                "Plan-cache snapshots persisted to disk",
                callback=lambda: self._snapshots_written,
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
        else:
            self._m_overload = None

    # ------------------------------------------------------------------
    # Shard construction and recovery
    # ------------------------------------------------------------------

    def _make_service(self):
        """One shard's QueryService, from the gateway's stored recipe."""
        resilience = (
            self._resilience_factory()
            if self._resilience_factory is not None
            else None
        )
        return QueryService(
            self.database,
            capacity=self._capacity,
            max_workers=1,
            metrics=None,
            resilience=resilience,
            db_lock=self._db_lock,
            **self._service_kwargs,
        )

    def _rebuild_shard(self, shard):
        """Supervisor callback: rebuild one shard's service and worker.

        The replacement service comes from the same recipe as the
        original — fresh cache partition, fresh resilience policy from
        the factory (breaker state is never carried over from a dead
        worker), same shared database lock — and, when durable
        snapshots are enabled, the partition is re-warmed from the
        last snapshot on disk so recovery skips re-optimizing the hot
        signatures the dead shard owned.
        """
        shard.restart(self._make_service())
        config = self.durability
        if config is not None and config.restore_on_restart:
            try:
                restore_gateway(
                    self, read_snapshot(config.path), only_shard=shard.index
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
        self._snapshot_failures += 1
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
        self._snapshots_written += 1
        return written

    def _maybe_snapshot(self):
        """Periodic snapshot trigger, counted in completed requests."""
        config = self.durability
        if config is None or config.snapshot_every is None:
            return
        with self._snapshot_lock:
            self._completed_since_snapshot += 1
            if self._completed_since_snapshot < config.snapshot_every:
                return
            self._completed_since_snapshot = 0
        try:
            self.save_snapshot()
        except (OSError, SnapshotError) as error:
            self._note_snapshot_failure("periodic", error)

    def snapshot_counts(self):
        """``{written, failures}`` snapshot-activity counters."""
        return {
            "written": self._snapshots_written,
            "failures": self._snapshot_failures,
        }

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

    def _reject(self, error):
        with self._overload_lock:
            self._overload_counts[error.reason] += 1
            rejections = self._overload_counts[error.reason]
        # A deterministic client backoff hint: pure function of the
        # gateway seed and how often this reason has rejected, so test
        # clients can assert (and replay) their backoff schedule.
        error.retry_after_hint = backoff_hint(
            self._backoff_seed, error.reason, rejections
        )
        if self._m_overload is not None:
            self._m_overload[error.reason].inc()
        raise error

    def _rejection_count(self):
        with self._overload_lock:
            return sum(self._overload_counts.values())

    def _quota_for(self, tenant):
        return self.tenant_quotas.get(tenant, self.tenant_quota)

    def _admit_tenant(self, tenant, shard_index):
        """Reserve one tenant in-flight slot or raise (counted by caller)."""
        quota = self._quota_for(tenant)
        if tenant is None or quota is None:
            return
        with self._tenant_lock:
            inflight = self._tenant_inflight.get(tenant, 0)
            if inflight >= quota:
                raise ServiceOverloadError(
                    "tenant %r at quota (%d in flight, limit %d)"
                    % (tenant, inflight, quota),
                    reason="tenant_quota",
                    shard=shard_index,
                    tenant=tenant,
                    pending=inflight,
                    limit=quota,
                )
            self._tenant_inflight[tenant] = inflight + 1

    def _release_tenant(self, tenant):
        if tenant is None or self._quota_for(tenant) is None:
            return
        with self._tenant_lock:
            remaining = self._tenant_inflight.get(tenant, 0) - 1
            if remaining > 0:
                self._tenant_inflight[tenant] = remaining
            else:
                self._tenant_inflight.pop(tenant, None)

    def _admit(self, shard, tenant, signature=None):
        """Shard-queue then tenant-quota admission; all-or-nothing."""
        try:
            shard.try_admit()
        except ServiceOverloadError as error:
            error.signature = signature
            self._reject(error)
        try:
            self._admit_tenant(tenant, shard.index)
        except ServiceOverloadError as error:
            shard.release()
            error.signature = signature
            self._reject(error)

    def tenant_inflight(self, tenant):
        """Current in-flight count for ``tenant`` (exact gauge)."""
        with self._tenant_lock:
            return self._tenant_inflight.get(tenant, 0)

    def overload_counts(self):
        """Snapshot dict of fast-rejections by reason."""
        with self._overload_lock:
            return dict(self._overload_counts)

    # ------------------------------------------------------------------
    # Request conservation accounting
    # ------------------------------------------------------------------

    def _record_submitted(self, amount=1):
        with self._outcome_lock:
            self._submitted += amount

    def _record_outcome(self, name):
        with self._outcome_lock:
            self._outcomes[name] += 1

    def _record_failover(self, reason):
        with self._outcome_lock:
            self._outcomes["failed_over"] += 1
            self._failover_reasons[reason] = (
                self._failover_reasons.get(reason, 0) + 1
            )

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
        with self._outcome_lock:
            outcomes = dict(self._outcomes)
            outcomes["submitted"] = self._submitted
            outcomes["failover_reasons"] = dict(self._failover_reasons)
        outcomes["rejected"] = self._rejection_count()
        return outcomes

    # ------------------------------------------------------------------
    # Degraded path
    # ------------------------------------------------------------------

    def _standby_service(self):
        """The gateway-owned fallback service, created on first need."""
        with self._standby_lock:
            if self._standby is None:
                self._standby = self._make_service()
            return self._standby

    def _failover(self, signature, request, origin, reason):
        """Serve a request whose owning shard is down; typed, counted.

        Prefers the next servable sibling shard (its service makes
        bit-identical decisions — ``_refresh`` is shared code — so the
        result rows match what the dead shard would have produced);
        when no sibling is servable the gateway's standby service
        re-optimizes fresh.  The successful serve is counted as a
        ``failed_over`` outcome under the originating ``reason``; a
        failure on the degraded path propagates to the caller and is
        counted ``failed`` there — either way the request reaches
        exactly one terminal counter.
        """
        for offset in range(1, len(self.shards)):
            sibling = self.shards[(origin.index + offset) % len(self.shards)]
            if not self.supervisor.is_servable(sibling):
                continue
            try:
                result = sibling.serve(signature, request)
            except ShardDownError:
                continue
            self._record_failover(reason)
            return result
        result = self._standby_service().run(
            request.query,
            request.bindings,
            execute=request.execute,
            tag=request.tag,
            execution_mode=request.execution_mode,
            deadline_seconds=request.deadline_seconds,
            reopt_policy=request.reopt_policy,
        )
        self._record_failover(reason)
        return result

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def submit(
        self,
        query,
        bindings,
        execute=None,
        tag=None,
        execution_mode=None,
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
        typed error) instead of dangling — the queued work is drained
        through completion callbacks, which fire for cancelled futures
        too, so admission slots and quota reservations are released
        exactly once no matter how the shard died.
        """
        request = ServiceRequest(
            query,
            bindings,
            execute=execute,
            tag=tag,
            execution_mode=execution_mode,
            deadline_seconds=deadline_seconds,
            reopt_policy=reopt_policy,
            tenant=tenant,
        )
        signature, shard = self.route(query)
        self._record_submitted()
        self._admit(shard, tenant, signature)
        outer = Future()
        outer.set_running_or_notify_cancel()

        def settle_failover(reason):
            try:
                result = self._failover(signature, request, shard, reason)
            except Exception as error:  # noqa: BLE001 — routed to caller
                self._record_outcome("failed")
                outer.set_exception(error)
            else:
                outer.set_result(result)

        def finish(inner):
            shard.release()
            self._release_tenant(tenant)
            if inner.cancelled():
                settle_failover("killed")
                return
            error = inner.exception()
            if error is None:
                self._record_outcome("completed")
                outer.set_result(inner.result())
                self._maybe_snapshot()
            elif isinstance(error, ShardDownError):
                settle_failover(error.reason or "crashed")
            else:
                self._record_outcome("failed")
                outer.set_exception(error)

        if not self.supervisor.is_servable(shard):
            shard.release()
            self._release_tenant(tenant)
            settle_failover("crashed" if not shard.alive else "restarting")
            return outer
        try:
            inner = shard.submit(signature, request, on_done=lambda: None)
        except RuntimeError:
            # The worker pool shut down between the health check and
            # the enqueue — the kill race.  Serve degraded instead.
            shard.release()
            self._release_tenant(tenant)
            settle_failover("killed")
            return outer
        inner.add_done_callback(finish)
        return outer

    def run(
        self,
        query,
        bindings,
        execute=None,
        tag=None,
        execution_mode=None,
        deadline_seconds=None,
        reopt_policy=None,
        tenant=None,
    ):
        """Serve one invocation synchronously (admission still applies).

        A request whose owning shard is down — or dies under the serve
        — is routed to the degraded path and completes there; the
        caller sees a result either way, never a silently dropped
        request.
        """
        request = ServiceRequest(
            query,
            bindings,
            execute=execute,
            tag=tag,
            execution_mode=execution_mode,
            deadline_seconds=deadline_seconds,
            reopt_policy=reopt_policy,
            tenant=tenant,
        )
        signature, shard = self.route(query)
        self._record_submitted()
        self._admit(shard, tenant, signature)
        try:
            try:
                if not self.supervisor.is_servable(shard):
                    return self._failover(
                        signature,
                        request,
                        shard,
                        "crashed" if not shard.alive else "restarting",
                    )
                try:
                    result = shard.serve(signature, request)
                except ShardDownError as error:
                    return self._failover(
                        signature, request, shard, error.reason or "crashed"
                    )
                self._record_outcome("completed")
                self._maybe_snapshot()
                return result
            except Exception:
                self._record_outcome("failed")
                raise
        finally:
            shard.release()
            self._release_tenant(tenant)

    def run_batch(self, requests):
        """Serve many requests, results aligned with request order.

        The closed-loop replay path: requests are partitioned by
        owning shard and each shard worker runs its chunk in one tight
        loop, so the pool overhead is one future per *shard* rather
        than one per request.  Replay is bounded by construction (the
        caller holds the whole batch), so per-request admission is
        skipped; the pending gauge still reflects each chunk in
        flight.  Failures re-raise in request order, matching
        :meth:`QueryService.run_batch`.
        """
        requests = list(requests)
        self._record_submitted(len(requests))
        chunks = [[] for _ in self.shards]
        for index, request in enumerate(requests):
            signature, shard = self.route(request.query)
            chunks[shard.index].append((index, signature, request))

        dispatched = []
        for shard, chunk in zip(self.shards, chunks):
            if not chunk:
                continue
            if not self.supervisor.is_servable(shard):
                dispatched.append((None, shard, chunk))
                continue
            shard.reserve(len(chunk))

            def task(shard=shard, chunk=chunk):
                try:
                    return shard.serve_chunk(chunk)
                finally:
                    shard.release(len(chunk))

            try:
                future = shard._executor.submit(task)
            except RuntimeError:  # worker pool died under us (kill race)
                shard.release(len(chunk))
                dispatched.append((None, shard, chunk))
                continue
            # A cancelled future never ran the task's finally — the
            # callback returns its chunk's slots so the pending gauge
            # stays exact across a kill.
            future.add_done_callback(
                lambda f, s=shard, n=len(chunk): (
                    s.release(n) if f.cancelled() else None
                )
            )
            dispatched.append((future, shard, chunk))

        outcomes = [None] * len(requests)
        for future, shard, chunk in dispatched:
            if future is None:
                chunk_outcomes = [
                    (index, self.supervisor.down_error(shard, signature), True)
                    for index, signature, request in chunk
                ]
            else:
                try:
                    chunk_outcomes = future.result()
                except CancelledError:
                    chunk_outcomes = [
                        (
                            index,
                            self.supervisor.down_error(shard, signature),
                            True,
                        )
                        for index, signature, request in chunk
                    ]
            by_index = {
                index: (signature, request)
                for index, signature, request in chunk
            }
            for index, outcome, is_error in chunk_outcomes:
                if is_error and isinstance(outcome, ShardDownError):
                    signature, request = by_index[index]
                    try:
                        outcome = self._failover(
                            signature,
                            request,
                            shard,
                            outcome.reason or "crashed",
                        )
                        is_error = False
                    except Exception as error:  # noqa: BLE001 — re-raised
                        # below in request order, like any serve failure
                        self._record_outcome("failed")
                        outcome = error
                elif is_error:
                    self._record_outcome("failed")
                else:
                    self._record_outcome("completed")
                    self._maybe_snapshot()
                outcomes[index] = (outcome, is_error)
        results = []
        for outcome, is_error in outcomes:
            if is_error:
                raise outcome
            results.append(outcome)
        return results

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def stats(self):
        """A :class:`ShardedServiceStatistics` snapshot (exact aggregate)."""
        return ShardedServiceStatistics(
            [shard.service.stats() for shard in self.shards],
            self.overload_counts(),
        )

    def shutdown(self, wait=True):
        """Stop every shard's worker and wrapped service.

        With durability enabled, a final snapshot is written first —
        quiescing before persisting — so a clean shutdown always
        leaves a warm-restorable image behind.
        """
        self.supervisor.stop()
        config = self.durability
        if config is not None and config.snapshot_on_shutdown:
            try:
                self.save_snapshot()
            except (OSError, SnapshotError) as error:
                self._note_snapshot_failure("shutdown", error)
        for shard in self.shards:
            shard.shutdown(wait=wait)
        with self._standby_lock:
            if self._standby is not None:
                self._standby.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False

    def __len__(self):
        return len(self.shards)

    def __repr__(self):
        return "ShardedQueryService(%d shards, %d cached plans)" % (
            len(self.shards),
            sum(len(shard.service.cache) for shard in self.shards),
        )
