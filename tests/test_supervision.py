"""Shard supervision: the state machine, failover, and conservation.

The contract under test is the module docstring of
:mod:`repro.service.supervision`: shard health is judged from
counters (never wall clocks), escalation follows healthy → suspect →
down → restarting → healthy, restarts rebuild the shard from the
gateway's recipe with fresh breaker state, and — the tier's hard
promise — no request is silently lost or duplicated: every accepted
request ends in exactly one of completed / failed-over / failed, and
``submitted == completed + failed_over + failed + rejected`` holds at
every quiescent point, including across kills and restarts.
"""

import gc
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.synthetic import populate_database
from repro.common.errors import ServiceOverloadError, ShardDownError
from repro.service import ShardedQueryService
from repro.service.supervision import DOWN, HEALTHY, RESTARTING, SUSPECT
from repro.storage import Database
from repro.workloads.traffic import TrafficSpec, to_service_requests


def traffic(requests=24, shapes=5, seed=0):
    spec = TrafficSpec.zipf(
        requests=requests, query_shapes=shapes, tenants=2, seed=seed
    )
    return to_service_requests(spec)


def make_gateway(catalog, shards=3, seed=7, **kwargs):
    database = Database(catalog)
    populate_database(database, seed=seed)
    return ShardedQueryService(database, shards=shards, capacity=16, **kwargs)


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def occupy_queue(gateway, request):
    """Fill a ``max_pending=1`` shard's queue through the public path:
    one submitted request wedged in an injected hang holds the slot
    until the shard restarts.  Returns ``(shard, future)``."""
    target = gateway.shard_for(request.query)
    target.inject_fault("hang")
    wedged = gateway.submit(request.query, request.bindings)
    assert target._hanging.wait(timeout=30.0)
    return target, wedged


def assert_conserved(gateway):
    outcomes = gateway.request_outcomes()
    assert outcomes["submitted"] == (
        outcomes["completed"]
        + outcomes["failed_over"]
        + outcomes["failed"]
        + outcomes["rejected"]
    ), outcomes
    return outcomes


class TestStateMachine:
    """Deterministic supervision transitions from shard counters."""

    def test_idle_healthy_shards_stay_healthy(self):
        catalog, _queries, _requests = traffic()
        gateway = make_gateway(catalog)
        try:
            assert gateway.supervisor.check() == []
            assert set(gateway.supervisor.states().values()) == {HEALTHY}
        finally:
            gateway.shutdown()

    def test_killed_shard_goes_down_and_restarts(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[0].query)
            old_service = target.service
            old_generation = target.generation
            target.kill()
            sweep = gateway.supervisor.check()
            assert (target.index, HEALTHY, DOWN) in sweep
            assert (target.index, DOWN, RESTARTING) in sweep
            assert (target.index, RESTARTING, HEALTHY) in sweep
            assert gateway.supervisor.state(target.index) == HEALTHY
            assert gateway.supervisor.counts()["restarts"] == 1
            assert target.alive
            assert target.generation == old_generation + 1
            assert target.service is not old_service
        finally:
            gateway.shutdown()

    def test_restart_rebuilds_cache_breaker_and_queue(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[0].query)
            for request in requests:
                gateway.run(request.query, request.bindings, tag=request.tag)
            counted = target.service.stats()
            assert counted.cache["lookups"] > 0
            old_resilience = target.service.resilience
            target.kill()
            gateway.supervisor.check()
            # A cold partition, counting on into the shard's books.
            assert len(target.service.cache) == 0
            stats = target.service.stats()
            assert stats.cache["entries"] == 0
            assert stats.requests == counted.requests
            for key in ("lookups", "hits", "misses"):
                assert stats.cache[key] == counted.cache[key]
            assert target.service.resilience is not old_resilience
            assert target.pending == 0
        finally:
            gateway.shutdown()

    def test_hang_escalates_suspect_then_down(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[0].query)
            target.inject_fault("hang")
            future = gateway.submit(requests[0].query, requests[0].bindings)
            assert target._hanging.wait(timeout=30.0)
            first = gateway.supervisor.check()
            assert (target.index, HEALTHY, SUSPECT) in first
            assert gateway.supervisor.counts()["restarts"] == 0
            second = gateway.supervisor.check()
            assert (target.index, SUSPECT, DOWN) in second
            assert gateway.supervisor.counts()["restarts"] == 1
            # The wedged request was not lost: it completed degraded.
            result = future.result(timeout=60.0)
            assert result.execution is not None
            outcomes = assert_conserved(gateway)
            assert outcomes["failed_over"] == 1
        finally:
            gateway.shutdown()

    def test_slow_shard_is_suspect_without_restart(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[0].query)
            target.inject_fault("slow", count=2)
            for request in requests[:6]:
                gateway.run(request.query, request.bindings)
            first = gateway.supervisor.check()
            assert (target.index, HEALTHY, SUSPECT) in first
            second = gateway.supervisor.check()
            assert (target.index, SUSPECT, HEALTHY) in second
            assert gateway.supervisor.counts()["restarts"] == 0
        finally:
            gateway.shutdown()

    def test_down_error_is_typed(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[0].query)
            target.kill()
            error = gateway.supervisor.down_error(target, signature="sig")
            assert isinstance(error, ShardDownError)
            assert error.shard == target.index
            assert error.signature == "sig"
            assert error.reason == "crashed"
        finally:
            gateway.shutdown()


    def test_retired_gateway_is_freed_without_the_collector(self):
        """Nothing a gateway builds refers back to it — not its
        supervisor, not a shard's partition recipe — so a gateway that
        served, restarted a shard and shut down is freed by reference
        counting alone."""
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        gateway.run(requests[0].query, requests[0].bindings)
        gateway.submit(requests[1].query, requests[1].bindings).result()
        gateway.supervisor.restart_shard(gateway.shard_for(requests[0].query))
        gateway.shutdown()
        retired = weakref.ref(gateway)
        gc.disable()
        try:
            del gateway
            assert retired() is None
        finally:
            gc.enable()


class TestFailoverConservation:
    """No request silently lost or duplicated, whatever dies."""

    @pytest.mark.parametrize(
        "scenario", ("healthy", "crash", "kill-queued", "all-down")
    )
    @pytest.mark.parametrize("entry", ("run", "submit", "run_batch"))
    def test_every_entry_point_conserves_requests(self, entry, scenario):
        """One dispatch, so one table: whichever way requests enter
        and whichever way the shard is lost, each ends in exactly one
        outcome with a result, and every reservation drains."""
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog, tenant_quota=len(requests) + 1)
        target = gateway.shard_for(requests[0].query)
        routed = sum(gateway.shard_for(r.query) is target for r in requests)
        wedged = None
        failover_threads = set()
        failover = gateway._failover

        def spy(*args):
            failover_threads.add(threading.current_thread())
            return failover(*args)

        gateway._failover = spy

        def midway():
            if scenario != "kill-queued":
                return
            # The wedged worker holds one slot; a submit stream or a
            # run_batch chunk queues behind it, and dies with it.
            queued = {"run": 0, "submit": routed, "run_batch": routed}[entry]
            wait_until(lambda: target.pending == 1 + queued)
            target.kill()

        try:
            if scenario == "crash":
                target.inject_fault("crash", after=1)
            elif scenario == "all-down":
                for shard in gateway.shards:
                    shard.kill()
            elif scenario == "kill-queued":
                target.inject_fault("hang")
                wedged = gateway.submit(requests[0].query, requests[0].bindings)
                assert target._hanging.wait(timeout=30.0)

            if entry == "run":
                results = []
                for index, request in enumerate(requests):
                    if index == len(requests) // 2:
                        midway()
                    results.append(
                        gateway.run(
                            request.query, request.bindings, tenant=request.tenant
                        )
                    )
            elif entry == "submit":
                futures = [
                    gateway.submit(
                        request.query, request.bindings, tenant=request.tenant
                    )
                    for request in requests
                ]
                midway()
                results = [future.result(timeout=60.0) for future in futures]
            else:
                batches = []
                thread = threading.Thread(
                    target=lambda: batches.append(gateway.run_batch(requests))
                )
                thread.start()
                midway()
                thread.join(timeout=60.0)
                assert not thread.is_alive()
                (results,) = batches
            if wedged is not None:
                results.append(wedged.result(timeout=60.0))

            assert all(result.execution is not None for result in results)
            outcomes = assert_conserved(gateway)
            assert outcomes["submitted"] == len(results)
            assert outcomes["failed"] == outcomes["rejected"] == 0
            if scenario == "healthy":
                assert outcomes["failed_over"] == 0
            elif scenario == "all-down":
                # No sibling left: the standby service took them all,
                # and the gateway's total counts them.
                assert outcomes["failed_over"] == len(results)
                stats = gateway.stats()
                assert stats.requests == len(results)
                assert [part.requests for part in stats.per_shard] == [0, 0, 0]
            else:
                lost = "crashed" if scenario == "crash" else "hung"
                assert outcomes["failover_reasons"][lost] >= 1
                assert outcomes["completed"] >= 1
                if scenario == "kill-queued" and entry != "run":
                    # Queued work is cancelled by the kill ("killed")
                    # unless the released worker got to it first and
                    # found its shard dead ("crashed").
                    reasons = outcomes["failover_reasons"]
                    assert reasons.get("killed", 0) + reasons.get("crashed", 0) == routed
                    # kill() ran here.  A cancelled chunk goes back to
                    # the run_batch caller that waits for it; nobody
                    # waits on a submit's pool future, so those fail
                    # over on the killer's thread.
                    killer_served = threading.current_thread() in failover_threads
                    assert killer_served == (
                        entry == "submit" and reasons.get("killed", 0) > 0
                    )
            assert gateway._tenant_inflight == {}
            assert all(shard.pending == 0 for shard in gateway.shards)
        finally:
            gateway.shutdown()

    def test_mid_stream_kill_with_supervised_recovery(self):
        catalog, _queries, requests = traffic(requests=30)
        gateway = make_gateway(catalog)
        try:
            target = gateway.shard_for(requests[10].query)
            for index, request in enumerate(requests):
                if index == 10:
                    target.kill()
                if index == 20:
                    gateway.supervisor.check()
                gateway.run(
                    request.query, request.bindings, tenant=request.tenant
                )
            outcomes = assert_conserved(gateway)
            assert outcomes["completed"] + outcomes["failed_over"] == 30
            assert gateway.supervisor.counts()["restarts"] == 1
            # Quota and queue accounting drained exactly.
            assert gateway._tenant_inflight == {}
            assert all(shard.pending == 0 for shard in gateway.shards)
        finally:
            gateway.shutdown()


class TestOverloadHints:
    """Typed rejections carry a seeded, reproducible retry hint."""

    def test_queue_full_rejection_has_retry_after_hint(self):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog, max_pending=1)
        try:
            target, wedged = occupy_queue(gateway, requests[0])
            with pytest.raises(ServiceOverloadError) as excinfo:
                gateway.run(requests[0].query, requests[0].bindings)
            error = excinfo.value
            assert error.reason == "shard_queue_full"
            assert error.retry_after_hint is not None
            assert 0.0 < error.retry_after_hint < 0.3
            gateway.supervisor.restart_shard(target)
            wedged.result(timeout=30.0)
            assert_conserved(gateway)
        finally:
            gateway.shutdown()

    def test_hints_are_deterministic_per_seed(self):
        catalog, _queries, requests = traffic()
        hints = []
        for _ in range(2):
            gateway = make_gateway(catalog, max_pending=1)
            try:
                target, wedged = occupy_queue(gateway, requests[0])
                run_hints = []
                for _attempt in range(3):
                    with pytest.raises(ServiceOverloadError) as excinfo:
                        gateway.run(requests[0].query, requests[0].bindings)
                    run_hints.append(excinfo.value.retry_after_hint)
                gateway.supervisor.restart_shard(target)
                wedged.result(timeout=30.0)
                hints.append(run_hints)
            finally:
                gateway.shutdown()
        assert hints[0] == hints[1]
        # Seed 0's schedule: successive rejections back off exponentially.
        assert hints[0] == [
            0.0010008528590122953,
            0.0020241349362245665,
            0.004138546048269197,
        ]


class QuotaMachine:
    """Drives one gateway through a random op sequence for Hypothesis."""

    def __init__(self, catalog, requests):
        self.requests = requests
        self.gateway = make_gateway(
            catalog, shards=2, tenant_quota=2, execute=False
        )

    def apply(self, op):
        kind, value = op
        if kind == "serve":
            request = self.requests[value % len(self.requests)]
            try:
                self.gateway.run(
                    request.query, request.bindings, tenant=request.tenant
                )
            except ServiceOverloadError:
                pass
        elif kind == "kill":
            self.gateway.shards[value % len(self.gateway.shards)].kill()
        else:
            self.gateway.supervisor.check()

    def close(self):
        self.gateway.shutdown()


operations = st.lists(
    st.tuples(st.sampled_from(["serve", "kill", "check"]), st.integers(0, 7)),
    min_size=1,
    max_size=24,
)


class TestQuotaConservationProperty:
    """Hypothesis: in-flight accounting survives any kill/restart mix."""

    @settings(max_examples=25, deadline=None)
    @given(ops=operations)
    def test_quota_and_queue_accounting_always_drain(self, ops):
        catalog, _queries, requests = traffic(requests=8)
        machine = QuotaMachine(catalog, requests)
        try:
            for op in ops:
                machine.apply(op)
            gateway = machine.gateway
            outcomes = assert_conserved(gateway)
            assert outcomes["failed"] == 0
            # Synchronous serving: nothing is in flight between ops,
            # so every reservation must have been released exactly
            # once — across failover, kills, and restarts.
            assert gateway._tenant_inflight == {}
            assert all(shard.pending == 0 for shard in gateway.shards)
        finally:
            machine.close()

    @pytest.mark.slow
    def test_threaded_stress_conserves_under_kills(self):
        catalog, _queries, requests = traffic(requests=8)
        gateway = make_gateway(
            catalog, shards=3, tenant_quota=4, execute=False
        )
        errors = []

        def worker(offset):
            for round_index in range(12):
                request = requests[(offset + round_index) % len(requests)]
                try:
                    gateway.run(
                        request.query,
                        request.bindings,
                        tenant=request.tenant,
                    )
                except ServiceOverloadError:
                    pass
                except Exception as error:  # noqa: BLE001 — collected
                    errors.append(error)

        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for round_index in range(6):
                gateway.shards[round_index % 3].kill()
                gateway.supervisor.check()
            for thread in threads:
                thread.join()
            gateway.supervisor.check()
            assert errors == []
            outcomes = assert_conserved(gateway)
            assert outcomes["failed"] == 0
            assert gateway._tenant_inflight == {}
            assert all(shard.pending == 0 for shard in gateway.shards)
        finally:
            gateway.shutdown()
