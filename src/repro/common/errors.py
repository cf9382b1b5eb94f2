"""Exception hierarchy for the repro library.

A single root exception (:class:`ReproError`) lets callers catch
anything raised by the library, while the subclasses distinguish the
major subsystems (catalog, optimizer, plan handling, execution).
"""


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class CatalogError(ReproError):
    """Raised for unknown relations/attributes or inconsistent statistics."""


class OptimizationError(ReproError):
    """Raised when the optimizer cannot produce a plan for a query."""


class PlanError(ReproError):
    """Raised for malformed plans (bad DAG structure, missing inputs, ...)."""


class ExecutionError(ReproError):
    """Raised when plan execution fails (unbound variables, missing index)."""


class InfeasiblePlanError(ExecutionError):
    """Raised when a stored plan no longer matches the catalogs.

    System R re-optimized queries whose compile-time plans had become
    infeasible, e.g. because an index was dropped ([CAK81], paper
    Section 2).  Activation validates access modules against the
    current catalogs; a static plan using a dropped index is
    infeasible, while a dynamic plan survives as long as each
    choose-plan retains at least one feasible alternative.
    """


class InjectedFaultError(ExecutionError):
    """Base of all faults raised by the fault-injection harness.

    ``site`` names the storage operation that faulted (``heap_read``,
    ``heap_write``, ``index_probe``, ``buffer_access``);
    ``operation_index`` is the injector's global operation counter at
    the moment of injection, which makes every fault reproducible from
    the profile and seed alone.
    """

    def __init__(self, message, site=None, operation_index=None):
        super().__init__(message)
        self.site = site
        self.operation_index = operation_index


class TransientIOError(InjectedFaultError):
    """A simulated I/O error that a retry may not see again.

    The run-time analogue of a lost disk request or a failed-over
    replica read: the service's retry policy treats these as
    recoverable and re-executes with exponential backoff.
    """


class PermanentIOError(InjectedFaultError):
    """A simulated I/O error that no retry will cure.

    Models a corrupted page or a dead device: the service fails the
    request fast with this typed error instead of burning retries.
    """


class MemoryDropError(InjectedFaultError):
    """The run-time memory grant shrank below the activated plan's.

    Raised once per configured drop stage when the injector's
    operation counter crosses the stage threshold.  Carries
    ``new_memory_pages``, the grant the rest of the query must live
    with; the service responds by re-invoking the choose-plan decision
    procedure under the updated bindings (the paper's start-up
    decision, re-run mid-flight) and restarting on the re-decided
    alternative.
    """

    def __init__(self, message, new_memory_pages, site=None,
                 operation_index=None):
        super().__init__(message, site=site, operation_index=operation_index)
        self.new_memory_pages = int(new_memory_pages)


class QueryTimeoutError(ExecutionError):
    """A query deadline expired at a cooperative cancellation point.

    The executor checks deadlines at iterator open and at every
    row/batch boundary of the drive loop, so cancellation is prompt
    (within one batch) without preemption.  The error carries the
    partial accounting of the cancelled run: ``elapsed_seconds``,
    ``rows_produced``, the ``io_snapshot`` delta charged before the
    cut, and the partial ``trace`` when the run was traced.
    """

    def __init__(self, message, deadline_seconds=None, elapsed_seconds=None):
        super().__init__(message)
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        self.rows_produced = 0
        self.io_snapshot = None
        self.trace = None


class ServiceError(ExecutionError):
    """Base of the serving-tier taxonomy: typed, attributable faults.

    Every serving-tier error carries the same three attribution
    fields, so callers (and the chaos harness) can count and route
    outcomes without isinstance ladders: ``shard`` is the index of the
    service shard involved (``None`` outside a sharded deployment),
    ``signature`` the canonical query signature of the affected
    request (``None`` when the fault is not request-scoped), and
    ``reason`` a short machine-readable cause tag.
    """

    def __init__(self, message, shard=None, signature=None, reason=None):
        super().__init__(message)
        self.shard = shard
        self.signature = signature
        self.reason = reason


class ServiceOverloadError(ServiceError):
    """A request was fast-rejected by serving-tier admission control.

    Raised *synchronously* at submit time — before any optimizer or
    executor work — when a service shard's pending queue is at its
    bound or the requesting tenant is at its in-flight quota.  Typed
    and cheap by design: under overload the gateway sheds load in
    microseconds instead of letting queues grow without bound, and the
    caller can distinguish "the system is full" (retry later,
    backpressure upstream) from a request that actually failed.

    ``reason`` is ``"shard_queue_full"`` or ``"tenant_quota"``;
    ``shard`` is the target shard index; ``tenant`` the requesting
    tenant (when any); ``pending`` and ``limit`` describe the queue or
    quota that rejected the request.  ``retry_after_hint`` — when the
    gateway attaches one — is a seeded-backoff delay (seconds) the
    client should wait before resubmitting; it is a pure function of
    the rejection reason and count, so client backoff is reproducible
    in tests.
    """

    def __init__(self, message, reason=None, shard=None, tenant=None,
                 pending=None, limit=None, signature=None,
                 retry_after_hint=None):
        super().__init__(message, shard=shard, signature=signature,
                         reason=reason)
        self.tenant = tenant
        self.pending = pending
        self.limit = limit
        self.retry_after_hint = retry_after_hint


class ServiceExecutionError(ServiceError):
    """A service invocation failed after resilience was exhausted.

    Wraps the underlying fault so callers holding only a future still
    learn *which* request died: the request ``tag``, ``query_name``,
    whether the plan came from the cache (``cache_hit``), and how many
    execution ``attempts`` were made.  The original error is chained
    as ``__cause__`` and kept as ``cause``; ``reason`` defaults to the
    cause's class name.
    """

    def __init__(self, message, tag=None, query_name=None, cache_hit=None,
                 attempts=None, cause=None, shard=None, signature=None,
                 reason=None):
        if reason is None and cause is not None:
            reason = type(cause).__name__
        super().__init__(message, shard=shard, signature=signature,
                         reason=reason)
        self.tag = tag
        self.query_name = query_name
        self.cache_hit = cache_hit
        self.attempts = attempts
        self.cause = cause


class ShardDownError(ServiceError):
    """A service shard cannot serve: its worker crashed, hung, or is
    restarting.

    Raised at the shard boundary so the gateway can route the affected
    request to its degraded path (fail over to a sibling shard or
    re-optimize fresh) instead of losing it.  ``reason`` is
    ``"crashed"``, ``"hung"``, ``"killed"``, or ``"restarting"``.
    Requests failing with this error are never silently dropped: the
    gateway counts every one as either ``failed_over`` or ``failed``.
    """


class SnapshotError(ServiceError):
    """Base of plan-cache snapshot persistence failures."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file failed validation (bad JSON, checksum mismatch,
    or malformed entries) and was not restored."""


class SnapshotVersionError(SnapshotError):
    """A snapshot file's format/version is not one this build reads.

    Carries ``found`` (the file's format/version pair) and
    ``supported`` (this build's) so operators can tell a stale snapshot
    from a corrupt one.
    """

    def __init__(self, message, found=None, supported=None, **kwargs):
        super().__init__(message, **kwargs)
        self.found = found
        self.supported = supported
