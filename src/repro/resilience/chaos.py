"""The chaos harness: replay workloads under a named fault profile.

For each paper query the harness runs one invocation twice, from
identically seeded databases: once fault-free (the baseline) and once
through a one-shard :class:`~repro.service.sharding.ShardedQueryService`
with a :class:`~repro.resilience.faults.FaultInjector` installed.  A
*recoverable* profile must complete — via retries and mid-run plan
degradation — with the same result multiset as the baseline; a
profile containing permanent faults must fail fast with the typed
error after at most one execution attempt.

Determinism is the contract the CI chaos-smoke job enforces: the
report (:meth:`ChaosReport.to_json`) contains no wall-clock values,
backoff sleeps are disabled, and every random draw is seeded, so two
runs with the same profile and seed produce byte-identical reports.
"""

import hashlib
import json

from repro.catalog import populate_database
from repro.common.errors import ServiceExecutionError
from repro.resilience.faults import FaultInjector, fault_profile
from repro.resilience.policy import ResiliencePolicy, RetryPolicy
from repro.storage.database import Database
from repro.workloads import paper_workload, random_bindings, skewed_bindings

#: Queries the harness replays when none are named.
DEFAULT_QUERIES = (1, 2, 3, 4, 5)


def rows_digest(records):
    """Order-insensitive SHA-256 digest of a result's rows.

    Degradation may finish a query on a *different* (re-decided or
    fallback) plan whose join order emits the same rows in a different
    sequence, so equivalence is over the result multiset: each row is
    serialized from its sorted field items, the serializations are
    sorted, and the concatenation is hashed.
    """
    serialized = sorted(
        repr(sorted(record.as_dict().items())) for record in records
    )
    digest = hashlib.sha256()
    for row in serialized:
        digest.update(row.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class QueryOutcome:
    """What one query did under the profile, versus its baseline."""

    def __init__(self, number, name, expected, baseline_rows, baseline_digest):
        self.number = number
        self.name = name
        #: ``"complete"`` or ``"fail-fast"``.
        self.expected = expected
        self.baseline_rows = baseline_rows
        self.baseline_digest = baseline_digest
        self.outcome = None
        self.rows = None
        self.digest = None
        self.rows_match = None
        self.failure = None
        self.attempts = None
        self.injector = None
        self.resilience = None

    @property
    def passed(self):
        """Whether the query met the profile's expectation."""
        if self.expected == "complete":
            return self.outcome == "completed" and bool(self.rows_match)
        return (
            self.outcome == "failed"
            and self.failure is not None
            and self.failure["type"] == "PermanentIOError"
            and self.attempts == 1
        )

    def to_dict(self):
        """Plain-data form, deterministic for a given profile and seed."""
        return {
            "number": self.number,
            "query": self.name,
            "expected": self.expected,
            "outcome": self.outcome,
            "baseline_rows": self.baseline_rows,
            "baseline_digest": self.baseline_digest,
            "rows": self.rows,
            "digest": self.digest,
            "rows_match": self.rows_match,
            "failure": self.failure,
            "attempts": self.attempts,
            "injector": self.injector,
            "resilience": self.resilience,
            "passed": self.passed,
        }


class ChaosReport:
    """The harness's verdict over a whole workload."""

    def __init__(self, profile, seed, outcomes, reopt=None, skew=None):
        self.profile = profile
        self.seed = seed
        self.outcomes = list(outcomes)
        #: Mid-query re-optimization policy dict, or None when off.
        self.reopt = reopt
        #: ``(declared, actual)`` selectivity skew, or None.
        self.skew = skew

    @property
    def passed(self):
        """Whether every query met the profile's expectation."""
        return all(outcome.passed for outcome in self.outcomes)

    def to_dict(self):
        """Plain-data form (no wall-clock values anywhere)."""
        return {
            "profile": self.profile.to_dict(),
            "seed": self.seed,
            "reopt": self.reopt,
            "skew": list(self.skew) if self.skew is not None else None,
            "queries": [outcome.to_dict() for outcome in self.outcomes],
            "passed": self.passed,
        }

    def to_json(self):
        """Canonical JSON: sorted keys, so equal reports are equal bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self):
        """Human-readable summary table."""
        lines = [
            "chaos profile %r (seed %d): %s"
            % (
                self.profile.name,
                self.seed,
                "PASS" if self.passed else "FAIL",
            )
        ]
        for outcome in self.outcomes:
            if outcome.outcome == "completed":
                detail = "%d rows, match=%s" % (
                    outcome.rows,
                    outcome.rows_match,
                )
            else:
                detail = "failed: %s after %r attempt(s)" % (
                    outcome.failure["type"],
                    outcome.attempts,
                )
            counts = outcome.resilience or {}
            lines.append(
                "  %-12s %-9s [%s]  %s  "
                "(retries=%d degradations=%d fallbacks=%d timeouts=%d)"
                % (
                    outcome.name,
                    "pass" if outcome.passed else "FAIL",
                    outcome.expected,
                    detail,
                    counts.get("transient_retries", 0),
                    counts.get("degradations", 0),
                    counts.get("fallback_activations", 0),
                    counts.get("timeouts", 0),
                )
            )
        return "\n".join(lines)

    def __repr__(self):
        return "ChaosReport(%r, %d queries, passed=%s)" % (
            self.profile.name,
            len(self.outcomes),
            self.passed,
        )


def _fresh_service(workload, data_seed, resilience):
    """A single-use one-shard gateway over a freshly populated database."""
    from repro.service.sharding import ShardedQueryService

    database = Database(workload.catalog)
    populate_database(database, seed=data_seed)
    gateway = ShardedQueryService(
        database, shards=1, resilience_factory=lambda: resilience
    )
    return database, gateway


def run_chaos(profile_name, query_numbers=DEFAULT_QUERIES, seed=0,
              data_seed=11, max_retries=3, max_degradations=2, reopt=None,
              skew=None):
    """Replay the paper queries under a named profile; a ChaosReport.

    Each query gets its own baseline and faulty databases (identically
    seeded) and its own injector, so faults in one query cannot leak
    operations into another.  Backoff delays are zeroed and sleeps are
    no-ops: the harness tests *outcomes*, not schedules.

    ``reopt`` (a :class:`~repro.executor.midquery.ReoptPolicy` or spec
    string) routes the *faulty* service's executions through mid-query
    re-optimization, so injected faults land during checkpoint drains
    and re-decision passes; the baseline stays plain, which keeps
    ``rows_match`` meaningful — re-optimization must never change the
    result multiset.  ``skew`` is an optional ``(declared, actual)``
    selectivity pair replacing the random bindings with lying ones
    (see :func:`~repro.workloads.bindings.skewed_bindings`), forcing
    observed cardinalities away from their estimates so re-decisions
    actually switch plans under fault pressure.
    """
    from repro.executor.midquery import ReoptPolicy

    profile = fault_profile(profile_name)
    if reopt is not None and not isinstance(reopt, ReoptPolicy):
        reopt = ReoptPolicy.parse(reopt)
    expects_failure = any(rule.kind == "permanent" for rule in profile.rules)
    expected = "fail-fast" if expects_failure else "complete"
    outcomes = []
    for number in query_numbers:
        workload = paper_workload(number, memory_uncertain=True)
        if skew is not None:
            declared, actual = skew
            bindings = skewed_bindings(workload, declared=declared, actual=actual)
        else:
            bindings = random_bindings(workload, seed=seed, run_index=0)

        baseline_db, baseline_service = _fresh_service(
            workload, data_seed, ResiliencePolicy()
        )
        try:
            baseline = baseline_service.run(workload.query, bindings)
        finally:
            baseline_service.shutdown()
        outcome = QueryOutcome(
            number,
            workload.name,
            expected,
            baseline.execution.row_count,
            rows_digest(baseline.execution.records),
        )

        resilience = ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=max_retries, base_delay=0.0, jitter=0.0, seed=seed
            ),
            max_degradations=max_degradations,
            sleep=lambda _seconds: None,
        )
        faulty_db, faulty_service = _fresh_service(
            workload, data_seed, resilience
        )
        injector = faulty_db.install_fault_injector(
            FaultInjector(profile, seed=seed)
        )
        try:
            try:
                result = faulty_service.run(
                    workload.query,
                    bindings.copy(),
                    reopt_policy=reopt,
                )
            except ServiceExecutionError as error:
                outcome.outcome = "failed"
                outcome.failure = {
                    "type": type(error.cause).__name__,
                    "message": str(error.cause),
                }
                outcome.attempts = error.attempts
            else:
                outcome.outcome = "completed"
                outcome.rows = result.execution.row_count
                outcome.digest = rows_digest(result.execution.records)
                outcome.rows_match = outcome.digest == outcome.baseline_digest
            outcome.injector = injector.snapshot()
            outcome.resilience = faulty_service.stats().total.resilience
        finally:
            faulty_service.shutdown()
        outcomes.append(outcome)
    return ChaosReport(
        profile,
        seed,
        outcomes,
        reopt=reopt.to_dict() if reopt is not None and reopt.active else None,
        skew=tuple(skew) if skew is not None else None,
    )


# ----------------------------------------------------------------------
# Service-tier chaos: shard kill / hang / slow scenarios
# ----------------------------------------------------------------------

#: Deterministic shard-fault scenarios the service harness can inject.
SERVICE_SCENARIOS = ("kill-shard", "hang-shard", "slow-shard")


def rows_sequence_digest(records):
    """Order-*sensitive* SHA-256 digest of a result's rows.

    The service-tier contract is stronger than the storage-fault one:
    a failed-over request re-runs the same optimizer over the same
    catalog, so it must produce byte-identical rows in byte-identical
    order — not merely the same multiset.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(sorted(record.as_dict().items())).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class ServiceChaosReport:
    """Verdict of one shard-fault scenario versus its unfaulted run."""

    def __init__(self, scenario, seed, shards, inject_at, heal_at,
                 target_shard, outcomes, conservation, supervision,
                 transitions):
        self.scenario = scenario
        self.seed = seed
        self.shards = shards
        self.inject_at = inject_at
        self.heal_at = heal_at
        self.target_shard = target_shard
        #: Per-request rows: ``{index, tag, outcome, digest, match}``.
        self.outcomes = list(outcomes)
        self.conservation = dict(conservation)
        self.supervision = dict(supervision)
        self.transitions = [list(item) for item in transitions]

    @property
    def expected_restarts(self):
        """Restarts the scenario must cause: 1 for kill/hang, 0 for slow."""
        return 0 if self.scenario == "slow-shard" else 1

    @property
    def conserved(self):
        """submitted == completed + failed_over + failed + rejected."""
        c = self.conservation
        return c["submitted"] == (
            c["completed"] + c["failed_over"] + c["failed"] + c["rejected"]
        )

    @property
    def passed(self):
        """Byte-identical rows, exact conservation, expected recovery."""
        return (
            all(row["match"] for row in self.outcomes)
            and self.conserved
            and self.conservation["failed"] == 0
            and self.supervision["restarts"] == self.expected_restarts
        )

    def to_dict(self):
        """Plain-data form (no wall-clock values anywhere)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "shards": self.shards,
            "inject_at": self.inject_at,
            "heal_at": self.heal_at,
            "target_shard": self.target_shard,
            "requests": [dict(row) for row in self.outcomes],
            "conservation": dict(self.conservation),
            "conserved": self.conserved,
            "supervision": dict(self.supervision),
            "transitions": [list(item) for item in self.transitions],
            "expected_restarts": self.expected_restarts,
            "passed": self.passed,
        }

    def to_json(self):
        """Canonical JSON: sorted keys, so equal reports are equal bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self):
        """Human-readable summary."""
        c = self.conservation
        lines = [
            "service chaos %r (seed %d, %d shards): %s"
            % (
                self.scenario,
                self.seed,
                self.shards,
                "PASS" if self.passed else "FAIL",
            ),
            "  target shard %d, fault at request %d, supervision at %d"
            % (self.target_shard, self.inject_at, self.heal_at),
            "  conservation: submitted=%d completed=%d failed_over=%d "
            "failed=%d rejected=%d (%s)"
            % (
                c["submitted"],
                c["completed"],
                c["failed_over"],
                c["failed"],
                c["rejected"],
                "exact" if self.conserved else "VIOLATED",
            ),
            "  supervision: %d suspects, %d downs, %d restarts "
            "(expected restarts: %d)"
            % (
                self.supervision["suspects"],
                self.supervision["downs"],
                self.supervision["restarts"],
                self.expected_restarts,
            ),
            "  rows: %d/%d byte-identical to unfaulted run"
            % (
                sum(1 for row in self.outcomes if row["match"]),
                len(self.outcomes),
            ),
        ]
        return "\n".join(lines)

    def __repr__(self):
        return "ServiceChaosReport(%r, %d requests, passed=%s)" % (
            self.scenario,
            len(self.outcomes),
            self.passed,
        )


def _service_chaos_gateway(catalog, shards, seed, data_seed):
    from repro.catalog import populate_database
    from repro.service.sharding import ShardedQueryService

    database = Database(catalog)
    populate_database(database, seed=data_seed)
    return ShardedQueryService(
        database,
        shards=shards,
        capacity=32,
        resilience_factory=lambda: ResiliencePolicy(
            retry=RetryPolicy(base_delay=0.0, jitter=0.0, seed=seed),
            sleep=lambda _seconds: None,
        ),
    )


def run_service_chaos(scenario, seed=0, shards=3, requests=36, shapes=6,
                      inject_at=10, heal_at=None, data_seed=11):
    """Replay seeded traffic with a shard fault injected mid-stream.

    The same Zipf-skewed request stream is served twice, from
    identically seeded databases: once unfaulted (the baseline), once
    with ``scenario`` injected at request index ``inject_at`` against
    the shard owning that request's signature:

    * ``kill-shard`` — the worker dies abruptly (queued work
      cancelled).  Requests routed to the dead shard fail over to a
      sibling until the supervisor's sweep at ``heal_at`` detects the
      dead worker and rebuilds the shard.
    * ``hang-shard`` — the worker wedges mid-queue.  The hung request
      completes via failover when the supervisor's progress checks
      escalate the shard suspect → down and restart it.
    * ``slow-shard`` — the shard reports stalled serves; supervision
      marks it suspect and recovers it to healthy without a restart.

    The report asserts the tier's two hard promises: every request's
    rows are **byte-identical** to the unfaulted run's, and the
    request accounting conserves exactly (``submitted == completed +
    failed_over + failed + rejected``).  Everything is seeded and
    transitions happen at fixed request indexes, so two runs with the
    same arguments produce byte-identical reports.
    """
    from repro.workloads.traffic import TrafficSpec, to_service_requests

    if scenario not in SERVICE_SCENARIOS:
        raise ValueError(
            "unknown service chaos scenario %r (choose from %r)"
            % (scenario, SERVICE_SCENARIOS)
        )
    if heal_at is None:
        heal_at = inject_at + 6
    if not 0 <= inject_at < requests or not inject_at < heal_at < requests:
        raise ValueError(
            "need 0 <= inject_at (%d) < heal_at (%d) < requests (%d)"
            % (inject_at, heal_at, requests)
        )
    spec = TrafficSpec.zipf(
        requests=requests,
        query_shapes=shapes,
        tenants=2,
        relations=2,
        seed=seed,
    )
    catalog, _queries, service_requests = to_service_requests(spec)

    baseline = _service_chaos_gateway(catalog, shards, seed, data_seed)
    try:
        baseline_digests = [
            rows_sequence_digest(
                baseline.run(
                    request.query, request.bindings, tag=request.tag
                ).execution.records
            )
            for request in service_requests
        ]
    finally:
        baseline.shutdown()

    gateway = _service_chaos_gateway(catalog, shards, seed, data_seed)
    target = gateway.shard_for(service_requests[inject_at].query)
    outcomes = [None] * requests
    hung = None  # (index, future)
    try:
        for index, request in enumerate(service_requests):
            if index == heal_at:
                gateway.supervisor.check()
                gateway.supervisor.check()
                if hung is not None:
                    # The restart above resolved the wedged worker's
                    # future through the gateway's failover callback.
                    # Wait for it *here*, before the replay continues:
                    # the callback runs on the old worker thread, and
                    # letting it race the main-thread serves would
                    # make the per-request outcome attribution below
                    # nondeterministic.
                    hung_index, future = hung
                    result = future.result(timeout=60.0)
                    digest = rows_sequence_digest(result.execution.records)
                    outcomes[hung_index] = {
                        "index": hung_index,
                        "tag": service_requests[hung_index].tag,
                        "outcome": "failed_over",
                        "digest": digest,
                        "match": digest == baseline_digests[hung_index],
                    }
                    hung = None
            if index == inject_at:
                if scenario == "kill-shard":
                    target.kill()
                elif scenario == "hang-shard":
                    target.inject_fault("hang")
                    future = gateway.submit(
                        request.query,
                        request.bindings,
                        tag=request.tag,
                        tenant=request.tenant,
                    )
                    # Deterministic synchronization: the fault has
                    # fired (the worker is wedged) before the replay
                    # continues, so every later supervision check sees
                    # the same picture.
                    target._hanging.wait(timeout=30.0)
                    hung = (index, future)
                    continue
                else:
                    target.inject_fault("slow", count=3)
            before = gateway.request_outcomes()["failed_over"]
            result = gateway.run(
                request.query,
                request.bindings,
                tag=request.tag,
                tenant=request.tenant,
            )
            failed_over = (
                gateway.request_outcomes()["failed_over"] > before
            )
            digest = rows_sequence_digest(result.execution.records)
            outcomes[index] = {
                "index": index,
                "tag": request.tag,
                "outcome": "failed_over" if failed_over else "completed",
                "digest": digest,
                "match": digest == baseline_digests[index],
            }
        if hung is not None:
            index, future = hung
            result = future.result(timeout=60.0)
            digest = rows_sequence_digest(result.execution.records)
            outcomes[index] = {
                "index": index,
                "tag": service_requests[index].tag,
                "outcome": "failed_over",
                "digest": digest,
                "match": digest == baseline_digests[index],
            }
        conservation = gateway.request_outcomes()
        conservation.pop("failover_reasons", None)
        supervision = gateway.supervisor.counts()
        transitions = list(gateway.supervisor.transitions)
    finally:
        gateway.shutdown()
    return ServiceChaosReport(
        scenario,
        seed,
        shards,
        inject_at,
        heal_at,
        target.index,
        outcomes,
        conservation,
        supervision,
        transitions,
    )
