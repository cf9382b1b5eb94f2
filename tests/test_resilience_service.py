"""Service-level resilience: retry, degradation, breaker, wrapping.

Each test builds a one-shard gateway over a freshly populated
database, installs a fault injector with a deterministic per-site
trigger profile, and asserts *outcomes*: the
query completes with the fault-free rows (or fails fast with the
typed error), and the resilience counters record exactly what the
profile injected.
"""

import pytest

from repro.catalog import populate_database
from repro.common.errors import (
    ExecutionError,
    PermanentIOError,
    QueryTimeoutError,
    ServiceExecutionError,
)
from repro.observability import MetricsRegistry
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultProfile,
    FaultRule,
    MemoryDropStage,
    ResiliencePolicy,
    RetryPolicy,
    fault_profile,
)
from repro.service import ShardedQueryService, build_snapshot, restore_gateway
from repro.service.decision import DecisionCompilationError
from repro.service.service import RESILIENCE_COUNTERS
from repro.storage import Database
from repro.workloads import paper_workload, random_bindings

QUERY_NUMBER = 2
DATA_SEED = 11


def quiet_policy(max_retries=3, max_degradations=2, breaker=None,
                 deadline_seconds=None):
    """A deterministic policy: zero backoff, no sleeping."""
    return ResiliencePolicy(
        retry=RetryPolicy(max_retries=max_retries, base_delay=0.0, jitter=0.0),
        breaker=breaker,
        max_degradations=max_degradations,
        deadline_seconds=deadline_seconds,
        sleep=lambda _seconds: None,
    )


def make_service(workload, resilience=None, metrics=None, execute=True):
    database = Database(workload.catalog)
    populate_database(database, seed=DATA_SEED)
    return database, one_shard(database, resilience, metrics, execute)


def one_shard(database, resilience=None, metrics=None, execute=True):
    return ShardedQueryService(
        database,
        shards=1,
        execute=execute,
        resilience_factory=lambda: resilience,
        metrics=metrics,
    )


def counts_of(gateway):
    """The gateway's resilience outcome counters."""
    return gateway.stats().total.resilience


def run_once(workload, profile=None, resilience=None, metrics=None,
             deadline_seconds=None):
    """One baseline run and one (optionally faulty) run; both results."""
    bindings = random_bindings(workload, seed=0, run_index=0)
    _, baseline_service = make_service(workload)
    with baseline_service:
        baseline = baseline_service.run(workload.query, bindings)

    database, service = make_service(
        workload, resilience=resilience or quiet_policy(), metrics=metrics
    )
    if profile is not None:
        database.install_fault_injector(FaultInjector(profile, seed=0))
    with service:
        result = service.run(
            workload.query, bindings.copy(), deadline_seconds=deadline_seconds
        )
    return baseline, result, service


@pytest.fixture(scope="module")
def workload():
    return paper_workload(QUERY_NUMBER, memory_uncertain=True)


class TestTransientRetry:
    def test_completes_with_baseline_rows(self, workload):
        baseline, result, service = run_once(
            workload, profile=fault_profile("transient-io")
        )
        assert [r.as_dict() for r in result.execution.records] == [
            r.as_dict() for r in baseline.execution.records
        ]
        counts = counts_of(service)
        assert counts["transient_retries"] == 2
        assert counts["permanent_failures"] == 0
        assert counts["degradations"] == 0

    def test_retry_budget_exhaustion_raises_wrapped_transient(self, workload):
        # Four triggers against a budget of one retry: the second
        # injection propagates as the wrapped cause.
        profile = FaultProfile(
            "storm",
            rules=(FaultRule("heap_read", at_operations=(2, 4, 6, 8),
                             limit=4),),
        )
        bindings = random_bindings(workload, seed=0, run_index=0)
        database, service = make_service(
            workload, resilience=quiet_policy(max_retries=1)
        )
        database.install_fault_injector(FaultInjector(profile, seed=0))
        with service, pytest.raises(ServiceExecutionError) as excinfo:
            service.run(workload.query, bindings)
        error = excinfo.value
        assert type(error.cause).__name__ == "TransientIOError"
        assert error.attempts == 2  # initial try + the one retried attempt
        assert counts_of(service)["transient_retries"] == 1


class TestPermanentFailure:
    def test_fails_fast_with_typed_wrapper(self, workload):
        bindings = random_bindings(workload, seed=0, run_index=0)
        database, service = make_service(workload, resilience=quiet_policy())
        database.install_fault_injector(
            FaultInjector(fault_profile("broken-disk"), seed=0)
        )
        with service, pytest.raises(ServiceExecutionError) as excinfo:
            service.run(workload.query, bindings, tag="req-7")
        error = excinfo.value
        assert isinstance(error, ExecutionError)  # stays in the family
        assert isinstance(error.cause, PermanentIOError)
        assert error.__cause__ is error.cause
        assert error.tag == "req-7"
        assert error.query_name == workload.query.name
        assert error.cache_hit is False
        assert error.attempts == 1
        counts = counts_of(service)
        assert counts["permanent_failures"] == 1
        assert counts["transient_retries"] == 0
        snapshot = database.fault_injector.snapshot()
        assert snapshot["injected_permanent"] == 1


class TestDegradation:
    def test_memory_drop_redecides_and_completes(self, workload):
        baseline, result, service = run_once(
            workload, profile=fault_profile("memory-drop")
        )
        counts = counts_of(service)
        assert counts["degradations"] == 1
        assert counts["fallback_activations"] == 0
        assert sorted(
            tuple(sorted(r.as_dict().items()))
            for r in result.execution.records
        ) == sorted(
            tuple(sorted(r.as_dict().items()))
            for r in baseline.execution.records
        )

    def test_budget_exhaustion_activates_static_fallback(self, workload):
        profile = FaultProfile(
            "drops", memory_drops=(MemoryDropStage(3, 2),)
        )
        baseline, result, service = run_once(
            workload,
            profile=profile,
            resilience=quiet_policy(max_degradations=0),
        )
        counts = counts_of(service)
        assert counts["degradations"] == 1
        assert counts["fallback_activations"] == 1
        entry = service.shards[0].cache.get(workload.query)
        assert entry.fallback_plan is not None
        assert result.execution.row_count == baseline.execution.row_count


class TestDeadline:
    def test_zero_deadline_times_out_typed(self, workload):
        bindings = random_bindings(workload, seed=0, run_index=0)
        _, service = make_service(workload, resilience=quiet_policy())
        with service, pytest.raises(ServiceExecutionError) as excinfo:
            service.run(workload.query, bindings, deadline_seconds=0.0)
        error = excinfo.value
        assert isinstance(error.cause, QueryTimeoutError)
        assert error.cause.rows_produced == 0
        assert counts_of(service)["timeouts"] == 1

    def test_policy_default_deadline_applies(self, workload):
        bindings = random_bindings(workload, seed=0, run_index=0)
        _, service = make_service(
            workload, resilience=quiet_policy(deadline_seconds=0.0)
        )
        with service, pytest.raises(ServiceExecutionError) as excinfo:
            service.run(workload.query, bindings)
        assert isinstance(excinfo.value.cause, QueryTimeoutError)


class TestUncompilablePlan:
    def test_request_and_restore_fail_typed(self, workload, monkeypatch):
        """A plan whose program does not compile is a plan the cost model
        cannot cost: no interpreted path serves it."""
        import repro.service.durability as durability_module
        import repro.service.service as service_module

        bindings = random_bindings(workload, seed=0, run_index=0)
        _, healthy = make_service(workload, execute=False)
        with healthy:
            healthy.run(workload.query, bindings)
            snapshot = build_snapshot(healthy)

        def broken(*_args, **_kwargs):
            raise DecisionCompilationError("forced for the test")

        monkeypatch.setattr(service_module, "CompiledDecision", broken)
        monkeypatch.setattr(durability_module, "CompiledDecision", broken)
        _, service = make_service(workload, execute=False)
        with service, pytest.raises(ServiceExecutionError) as excinfo:
            service.run(workload.query, bindings)
        error = excinfo.value
        assert isinstance(error.cause, DecisionCompilationError)
        assert error.__cause__ is error.cause
        assert counts_of(service)["decision_compiles"] == 0

        _, restored = make_service(workload, execute=False)
        with restored:
            stats = restore_gateway(restored, snapshot)
        assert stats.restored == 0
        assert stats.errors == [(workload.query.name, "forced for the test")]


class TestCircuitBreaker:
    def test_trips_then_short_circuits_then_recloses(self):
        # Local helpers from the staleness tests: a narrowed workload
        # whose bindings can be pushed out of the covered interval.
        from tests.test_service import bindings_at, narrow_workload

        workload = narrow_workload(bounds=(0.2, 0.3))
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        service = one_shard(
            Database(workload.catalog),
            resilience=quiet_policy(breaker=breaker),
            execute=False,
        )
        with service:
            first = service.run(workload.query, bindings_at(workload, 0.2))
            assert not first.reoptimized

            tripped = service.run(workload.query, bindings_at(workload, 0.9))
            assert tripped.reoptimized
            assert breaker.trips == 1
            assert counts_of(service)["breaker_trips"] == 1

            # Bounds are now [0.2, 1.0]; 0.05 is stale on the other
            # side, but the breaker is open: served from cache, no
            # re-optimization.
            for expected in (1, 2):
                held = service.run(
                    workload.query, bindings_at(workload, 0.05)
                )
                assert not held.reoptimized and held.cache_hit
                assert (
                    counts_of(service)["breaker_short_circuits"]
                    == expected
                )

            # Cooldown spent: the next stale invocation re-optimizes.
            reopened = service.run(workload.query, bindings_at(workload, 0.05))
            assert reopened.reoptimized
            assert breaker.trips == 2
        entry = service.shards[0].cache.get(workload.query)
        assert entry.reoptimizations == 2

    def test_disabled_by_default(self):
        from tests.test_service import bindings_at, narrow_workload

        workload = narrow_workload(bounds=(0.0, 0.3))
        service = one_shard(Database(workload.catalog), execute=False)
        with service:
            service.run(workload.query, bindings_at(workload, 0.2))
            for _ in range(3):
                service.run(workload.query, bindings_at(workload, 0.9))
        counts = counts_of(service)
        assert counts["breaker_trips"] == 0
        assert counts["breaker_short_circuits"] == 0


class TestCountersSurfaced:
    def test_metrics_mirror_resilience_counts(self, workload):
        metrics = MetricsRegistry()
        _, _, service = run_once(
            workload, profile=fault_profile("transient-io"), metrics=metrics
        )
        counts = counts_of(service)
        assert counts["transient_retries"] == 2
        assert (
            metrics.get("service_transient_retries_total").value
            == counts["transient_retries"]
        )
        assert metrics.get("service_degradations_total").value == 0

    def test_stats_snapshot_includes_resilience(self, workload):
        _, _, service = run_once(
            workload, profile=fault_profile("transient-io")
        )
        stats = service.stats().total
        assert stats.resilience["transient_retries"] == 2
        assert set(stats.resilience) == set(RESILIENCE_COUNTERS)
