"""The sharded serving tier: routing, differential equivalence,
admission control, and exact statistics.

The contract under test is the module docstring of
:mod:`repro.service.sharding`: sharding changes *where* a request is
served, never *what* it observes.  The differential suite drives the
same invocation sequence through a one-shard gateway and a multi-shard
gateway over identically populated databases and requires identical
rows, identical I/O accounting, and identical start-up decisions for
all five paper queries; the entry-point suite requires the same of
``run``, ``submit`` and ``run_batch``, which all end in one
``ServiceShard.serve``.
The eviction tests pit the per-shard LRU caches against a reference
simulation and require exact hit/miss/evict counts, and the admission
tests require overload to surface as typed
:class:`~repro.common.errors.ServiceOverloadError` fast-rejections
that are counted — never as hangs or silent drops.
"""

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.catalog.synthetic import populate_database
from repro.common.errors import ExecutionError, ServiceOverloadError
from repro.observability import MetricsRegistry
from repro.optimizer.optimizer import optimize_dynamic, optimize_static
from repro.optimizer.query import canonical_signature
from repro.service import (
    PlanCache,
    ServiceRequest,
    ShardedQueryService,
    shard_index_for,
)
from repro.storage import Database
from repro.workloads import paper_workload
from repro.workloads.bindings import random_bindings
from repro.workloads.traffic import (
    TrafficSpec,
    TrafficRequest,
    build_traffic_queries,
    to_service_requests,
)
from tests.test_service import bindings_at, narrow_workload

THREADS = 8

#: Ways a request can enter the serving tier: ``(tier, its one-shard
#: configuration, method)``; the first is the reference.
ENTRY_POINTS = (
    (ShardedQueryService, {"shards": 1}, "run"),
    (ShardedQueryService, {"shards": 1}, "submit"),
    (ShardedQueryService, {"shards": 1}, "run_batch"),
)


def small_traffic(requests=120, shapes=12, seed=0, tenants=2):
    """A small materialized traffic stream for gateway tests."""
    spec = TrafficSpec.zipf(
        requests=requests,
        query_shapes=shapes,
        tenants=tenants,
        seed=seed,
    )
    return to_service_requests(spec)


def round_robin_requests(spec, rounds):
    """``rounds`` passes over every shape in rank order, materialized.

    Unlike the Zipf stream this touches *every* shape every round, so
    LRU behaviour per shard is fully determined by the shard's
    capacity and the set of shapes routed to it.
    """
    catalog, queries = build_traffic_queries(spec)
    traffic = []
    shapes = len(spec.shapes)
    for round_index in range(rounds):
        for shape in range(shapes):
            index = round_index * shapes + shape
            traffic.append(
                TrafficRequest(
                    index,
                    shape,
                    "tenant-0",
                    float(index),
                    0.1 + 0.8 * shape / shapes,
                )
            )
    return to_service_requests(spec, traffic=traffic, catalog=catalog,
                               queries=queries)


class TestRouting:
    def test_shard_index_is_deterministic_and_in_range(self):
        spec = TrafficSpec.zipf(requests=0, query_shapes=16)
        _, queries = build_traffic_queries(spec)
        for query in queries:
            signature = canonical_signature(query)
            index = shard_index_for(signature, 8)
            assert 0 <= index < 8
            # Pure function of the signature: stable across calls.
            assert shard_index_for(signature, 8) == index
        # Distinct signatures spread over more than one shard.
        indexes = {
            shard_index_for(canonical_signature(query), 8)
            for query in queries
        }
        assert len(indexes) > 1

    def test_route_is_memoized_per_query_object(self):
        catalog, queries, _ = small_traffic(requests=0, shapes=4)
        with ShardedQueryService(
            Database(catalog), shards=4, execute=False
        ) as gateway:
            first = gateway.route(queries[0])
            assert gateway.route(queries[0]) == first
            assert id(queries[0]) in gateway._route_memo
            assert gateway.shard_for(queries[0]) is first[1]

    def test_every_signature_lands_on_exactly_one_shard(self):
        catalog, queries, requests = small_traffic(requests=150, shapes=12)
        with ShardedQueryService(
            Database(catalog), shards=4, capacity=32, execute=False
        ) as gateway:
            gateway.run_batch(requests)
            # Each shard's cache holds exactly the signatures that hash
            # to it; the union is exactly the set of served shapes.
            served_shapes = {request.query.name for request in requests}
            expected = [0] * len(gateway.shards)
            for query in queries:
                if query.name in served_shapes:
                    signature = canonical_signature(query)
                    expected[shard_index_for(signature, len(gateway.shards))] += 1
            per_shard = [len(shard.cache) for shard in gateway.shards]
            assert per_shard == expected
            assert sum(per_shard) == len(served_shapes)


def entry_point_stream(name):
    """``(workload, requests)``: a paper query under three random
    bindings and one ``reopt_policy="always"`` request, or the
    narrow-bounds workload with a binding past its bounds (a staleness
    re-optimization) between two it covers."""
    if name == "narrow":
        workload = narrow_workload(bounds=(0.0, 0.3))
        requests = [
            ServiceRequest(workload.query, bindings_at(workload, selectivity))
            for selectivity in (0.2, 0.9, 0.9)
        ]
        return workload, requests
    workload = paper_workload(int(name[1:]))
    requests = [
        ServiceRequest(
            workload.query,
            random_bindings(workload, seed=17, run_index=run),
            reopt_policy="always" if run == 3 else None,
        )
        for run in range(4)
    ]
    return workload, requests


def serve_through(entry, workload, requests, optimize):
    """What a caller and ``stats()`` observe of the stream through one
    entry point, on a freshly populated database."""
    tier, options, method = entry
    database = Database(workload.catalog)
    populate_database(database, seed=0)
    with tier(database, optimize=optimize, **options) as service:
        if method == "run_batch":
            results = service.run_batch(requests)
        else:
            results = [
                getattr(service, method)(
                    r.query, r.bindings, reopt_policy=r.reopt_policy
                )
                for r in requests
            ]
            if method == "submit":
                results = [future.result(timeout=60.0) for future in results]
        stats = service.stats().total
    served = []
    for result in results:
        midquery = getattr(result.execution, "midquery", None)
        served.append(
            (
                [repr(record) for record in result.execution.records],
                result.execution.io_snapshot,
                # report.choices as positions: which alternative of
                # each choose-plan, in decision-program order.
                [
                    [alternative is chosen for alternative in node.alternatives]
                    for node, chosen in result.startup_report.choices
                ],
                repr(result.chosen),
                result.digest,
                midquery and (midquery.checkpoints, midquery.switches),
                result.cache_hit,
                result.reoptimized,
            )
        )
    return served, (stats.requests, stats.cache, stats.resilience, stats.optimize_count)


class TestDifferential:
    """One-shard and multi-shard serving must be observationally equal."""

    @pytest.mark.parametrize(
        "optimize", (optimize_static, optimize_dynamic), ids=("static", "dynamic")
    )
    @pytest.mark.parametrize("stream", ("q1", "q2", "q3", "q4", "q5", "narrow"))
    def test_entry_points_serve_identically(self, stream, optimize):
        """Rows, row order, I/O, choices, hit/re-optimization flags
        and counters are the same whichever entry point a stream
        takes."""
        workload, requests = entry_point_stream(stream)
        reference, *others = [
            serve_through(entry, workload, requests, optimize)
            for entry in ENTRY_POINTS
        ]
        served, _counters = reference
        if stream == "narrow":
            assert [row[-2:] for row in served] == [
                (False, False),
                (False, True),
                (True, False),
            ]
        else:
            # Only the last request asked for mid-query re-decision.
            assert [row[-3] is not None for row in served] == [False] * 3 + [True]
        for entry, observed in zip(ENTRY_POINTS[1:], others):
            assert observed == reference, entry[2]

    def test_paper_queries_identical_rows_io_and_decisions(self):
        for query_number in range(1, 6):
            workload = paper_workload(query_number)
            single_db = Database(workload.catalog)
            sharded_db = Database(workload.catalog)
            populate_database(single_db, seed=0)
            populate_database(sharded_db, seed=0)
            requests = [
                ServiceRequest(
                    workload.query,
                    random_bindings(workload, seed=17, run_index=run),
                )
                for run in range(3)
            ]
            # ``run_batch`` serves each shard's share serially on its
            # worker, so the hit/miss split is not timing-dependent.
            with ShardedQueryService(
                single_db, shards=1, execute=True
            ) as single, ShardedQueryService(
                sharded_db, shards=3, execute=True
            ) as sharded:
                single_results = single.run_batch(requests)
                sharded_results = sharded.run_batch(requests)

            for ours, theirs in zip(single_results, sharded_results):
                label = "query %d" % query_number
                assert ours.digest == theirs.digest, label
                assert ours.cache_hit == theirs.cache_hit, label
                assert ours.reoptimized == theirs.reoptimized, label
                # Identical start-up decisions, not just identical
                # row counts: the memoized fast path must choose the
                # very same static plan on one shard as on three.
                assert repr(ours.chosen) == repr(theirs.chosen), label
                assert (
                    ours.startup_report.decisions
                    == theirs.startup_report.decisions
                ), label
                # Identical rows in identical order, identical I/O.
                assert [repr(record) for record in ours.execution.records] == [
                    repr(record) for record in theirs.execution.records
                ], label
                assert (
                    ours.execution.io_snapshot == theirs.execution.io_snapshot
                ), label

    def test_traffic_stream_identical_results_startup_only(self):
        catalog, _, requests = small_traffic(requests=200, shapes=16)
        with ShardedQueryService(
            Database(catalog), shards=1, capacity=32, execute=False
        ) as single, ShardedQueryService(
            Database(catalog), shards=4, capacity=32, execute=False
        ) as sharded:
            single_results = single.run_batch(requests)
            sharded_results = sharded.run_batch(requests)
            single_stats = single.stats()
            sharded_stats = sharded.stats()
        for ours, theirs in zip(single_results, sharded_results):
            assert ours.digest == theirs.digest
            assert ours.cache_hit == theirs.cache_hit
            assert repr(ours.chosen) == repr(theirs.chosen)
        # Cache accounting is partition-invariant: the same lookups,
        # hits, and misses, just split across shards.
        for key in ("lookups", "hits", "misses"):
            assert single_stats.total.cache[key] == sharded_stats.total.cache[key]


class TestAdmissionControl:
    def test_shard_queue_full_fast_rejects_typed(self):
        catalog, queries, _ = small_traffic(requests=0, shapes=2)
        metrics = MetricsRegistry()
        with ShardedQueryService(
            Database(catalog),
            shards=2,
            max_pending=1,
            execute=False,
            metrics=metrics,
        ) as gateway:
            query = queries[0]
            shard = gateway.shard_for(query)
            _, _, requests = small_traffic(requests=1, shapes=2)
            # A malformed re-optimization spec is refused at the
            # request boundary, before routing or admission: it is not
            # a submitted-then-failed request, and no shard's cache or
            # optimizer ever sees the query.
            for serve in (gateway.run, gateway.submit):
                with pytest.raises(ExecutionError) as excinfo:
                    serve(
                        query,
                        requests[0].bindings,
                        execute=True,
                        reopt_policy="sometimes",
                    )
                assert type(excinfo.value) is ExecutionError
                assert "'sometimes'" in str(excinfo.value)
            outcomes = gateway.request_outcomes()
            assert outcomes.pop("failover_reasons") == {}
            assert set(outcomes.values()) == {0}
            for other in gateway.shards:
                assert len(other.cache) == 0
                assert other.cache.stats_snapshot()["lookups"] == 0
                assert other.pending == 0
            # Occupy the single queue slot: a submitted request wedged
            # in its serve holds it until the shard is restarted.
            shard.inject_fault("hang")
            wedged = gateway.submit(query, requests[0].bindings)
            assert shard._hanging.wait(timeout=30.0)
            with pytest.raises(ServiceOverloadError) as excinfo:
                gateway.run(query, requests[0].bindings)
            error = excinfo.value
            assert error.reason == "shard_queue_full"
            assert error.shard == shard.index
            assert error.pending == 1
            assert error.limit == 1
            assert gateway.overload_counts() == {
                "shard_queue_full": 1,
                "tenant_quota": 0,
            }
            assert (
                metrics.get("service_overload_shard_queue_full_total").value
                == 1
            )
            assert (
                metrics.get("service_overload_rejections_total").value == 1
            )
            # Restarting the shard un-wedges it: the wedged request
            # fails over, its slot is released, the same request is now
            # served, and no requests were silently dropped.
            gateway.supervisor.restart_shard(shard)
            assert wedged.result(timeout=30.0).digest
            assert shard.pending == 0
            result = gateway.run(query, requests[0].bindings)
            assert result.digest
            stats = gateway.stats()
            assert stats.requests == 2
            assert stats.rejections == 1
            outcomes = gateway.request_outcomes()
            assert outcomes["submitted"] == 3
            assert (outcomes["completed"], outcomes["failed_over"]) == (1, 1)

    def test_tenant_quota_rejects_and_rolls_back_shard_slot(self):
        catalog, queries, _ = small_traffic(requests=1, shapes=1)
        _, _, requests = small_traffic(requests=1, shapes=1)
        with ShardedQueryService(
            Database(catalog),
            shards=2,
            tenant_quota=4,
            tenant_quotas={"blocked": 0},
            execute=False,
        ) as gateway:
            query = queries[0]
            shard = gateway.shard_for(query)
            with pytest.raises(ServiceOverloadError) as excinfo:
                gateway.run(query, requests[0].bindings, tenant="blocked")
            error = excinfo.value
            assert error.reason == "tenant_quota"
            assert error.tenant == "blocked"
            assert error.limit == 0
            # All-or-nothing admission: a refused request reserves no
            # shard slot.
            assert shard.pending == 0
            assert gateway.overload_counts()["tenant_quota"] == 1
            # Unattributed requests are never quota limited, and other
            # tenants run under the default quota.
            gateway.run(query, requests[0].bindings, tenant=None)
            gateway.run(query, requests[0].bindings, tenant="fine")
            assert gateway.tenant_inflight("fine") == 0  # released
            assert gateway.stats().requests == 2

    def test_overload_conservation_under_flood(self):
        """served + rejected == submitted, with a deliberately slow
        optimizer keeping the single shard busy during the flood."""
        from repro.optimizer.optimizer import optimize_dynamic

        def slow_optimize(catalog, query, **kwargs):
            time.sleep(0.05)
            return optimize_dynamic(catalog, query, **kwargs)

        catalog, queries, requests = small_traffic(requests=40, shapes=1)
        attempts = len(requests)
        with ShardedQueryService(
            Database(catalog),
            shards=1,
            max_pending=4,
            execute=False,
            optimize=slow_optimize,
        ) as gateway:
            futures = []
            rejected = 0
            for request in requests:
                try:
                    futures.append(
                        gateway.submit(request.query, request.bindings)
                    )
                except ServiceOverloadError as error:
                    assert error.reason == "shard_queue_full"
                    rejected += 1
            results = [future.result() for future in futures]
            stats = gateway.stats()
            assert gateway.shards[0].pending == 0
        # The flood outran a worker that was busy optimizing: some
        # requests were admitted, some shed, none lost.
        assert rejected >= 1
        assert len(results) >= 1
        assert len(results) + rejected == attempts
        assert stats.total.requests == len(results)
        assert stats.rejections == rejected
        assert stats.overload["shard_queue_full"] == rejected


    def test_admission_and_settlement_are_exact_under_contention(self):
        """Eight caller threads, thread switches every microsecond: the
        gateway's one books lock loses no reservation, release, outcome
        or heartbeat."""
        catalog, _, requests = small_traffic(requests=48, shapes=3)
        errors = []

        def client(offset):
            for request in requests[offset::8]:
                try:
                    gateway.run(
                        request.query, request.bindings, tenant=offset % 3
                    )
                except ServiceOverloadError:
                    pass
                except Exception as error:  # noqa: BLE001 — collected
                    errors.append(error)

        with ShardedQueryService(
            Database(catalog),
            shards=2,
            max_pending=3,
            tenant_quota=2,
            execute=False,
        ) as gateway:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=client, args=(offset,))
                    for offset in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            outcomes = gateway.request_outcomes()
            assert outcomes["submitted"] == len(requests)
            assert outcomes["submitted"] == (
                outcomes["completed"] + outcomes["rejected"]
            )
            assert all(shard.pending == 0 for shard in gateway.shards)
            assert gateway._tenant_inflight == {}
            served = sum(shard.books.served for shard in gateway.shards)
            assert served == outcomes["completed"] == gateway.stats().requests

    def test_unroutable_batch_counts_nothing(self):
        """A batch routes every request before it counts any: one that
        cannot be routed raises with nothing submitted or reserved, so
        conservation holds for the gateway's life."""
        catalog, _, requests = small_traffic(requests=1, shapes=1)
        with ShardedQueryService(
            Database(catalog), shards=2, execute=False
        ) as gateway:
            unroutable = ServiceRequest(None, requests[0].bindings)
            with pytest.raises(AttributeError):
                gateway.run_batch([requests[0], unroutable])
            gateway.run_batch(requests)
            outcomes = gateway.request_outcomes()
            assert outcomes["submitted"] == (
                outcomes["completed"]
                + outcomes["failed_over"]
                + outcomes["failed"]
                + outcomes["rejected"]
            ) == 1
            assert all(shard.pending == 0 for shard in gateway.shards)


class TestExactStatistics:
    def test_aggregate_equals_per_shard_sums(self):
        """Closed-loop replay: every request counted once, on exactly
        one shard, and none shed."""
        metrics = MetricsRegistry()
        catalog, _, requests = small_traffic(requests=160, shapes=12)
        with ShardedQueryService(
            Database(catalog),
            shards=4,
            capacity=32,
            execute=False,
            metrics=metrics,
        ) as gateway:
            gateway.run_batch(requests)
            stats = gateway.stats()
            cache_sizes = [len(s.cache) for s in gateway.shards]
        assert stats.total.requests == len(requests)
        assert stats.total.requests == sum(
            part.requests for part in stats.per_shard
        )
        for key in ("lookups", "hits", "misses", "evictions"):
            assert stats.total.cache[key] == sum(
                part.cache[key] for part in stats.per_shard
            )
        # Internally consistent snapshots: per shard and in aggregate,
        # hits + misses == lookups and one start-up latency per request.
        for part in list(stats.per_shard) + [stats.total]:
            assert part.cache["hits"] + part.cache["misses"] == (
                part.cache["lookups"]
            )
            assert part.startup.count == part.requests
        assert stats.rejections == 0
        # Per-shard gauges are registered and quiesce to the truth.
        for shard in range(4):
            assert metrics.get("service_shard%d_pending" % shard).value == 0
            assert (
                metrics.get("service_shard%d_cache_entries" % shard).value
                == cache_sizes[shard]
            )

    def test_percentiles_recomputed_over_union_of_samples(self):
        """The books keep sums and bucket counts, which sum exactly over
        shards; percentiles come from the union of per-request samples,
        the results every shard returned."""
        from bisect import bisect_left

        from repro.common.stats import percentile
        from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS
        from repro.service.replay import render_report, replay_spec

        catalog, _, requests = small_traffic(requests=80, shapes=8)
        with ShardedQueryService(
            Database(catalog), shards=4, execute=False
        ) as gateway:
            results = gateway.run_batch(requests)
            stats = gateway.stats()
        samples = [result.startup_seconds for result in results]
        buckets = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        for sample in samples:
            buckets[bisect_left(DEFAULT_LATENCY_BUCKETS, sample)] += 1
        assert stats.total.startup.buckets == buckets
        assert stats.total.startup.buckets == [
            sum(column)
            for column in zip(*(part.startup.buckets for part in stats.per_shard))
        ]
        assert stats.total.startup.sum == pytest.approx(sum(samples))
        assert stats.total.startup_mean == pytest.approx(
            sum(samples) / len(requests)
        )

        report = replay_spec(
            TrafficSpec.zipf(requests=80, query_shapes=8, seed=5),
            shards=4,
            execute=False,
            baseline_samples=1,
        )
        startups = [result.startup_seconds for result in report.results]
        assert "p50 %.3fms  p95 %.3fms" % (
            1000.0 * percentile(startups, 0.50),
            1000.0 * percentile(startups, 0.95),
        ) in render_report(report)


#: 32 distinct query shapes for the lookup-sequence property.
PROPERTY_QUERIES = build_traffic_queries(
    TrafficSpec.zipf(requests=0, query_shapes=32, seed=3)
)[1]


class ReferenceCache:
    """Two-map reference: a live LRU of ``capacity`` signatures and,
    behind it, an LRU of evicted ones at four per live slot.  Every
    looked-up signature is assumed compiled by the time it is evicted
    (the serving tier compiles before the next lookup)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.live = []  # most recent last
        self.retained = []
        self.counters = dict.fromkeys(
            ("lookups", "hits", "misses", "evictions", "promotions"), 0
        )

    def lookup(self, signature):
        counters = self.counters
        counters["lookups"] += 1
        if signature in self.live:
            counters["hits"] += 1
            self.live.remove(signature)
        elif signature in self.retained:
            counters["hits"] += 1
            counters["promotions"] += 1
            self.retained.remove(signature)
        else:
            counters["misses"] += 1
        self.live.append(signature)
        if len(self.live) > self.capacity:
            self.retained.append(self.live.pop(0))
            counters["evictions"] += 1
            if len(self.retained) > 4 * self.capacity:
                self.retained.pop(0)

    def expected(self):
        return dict(
            self.counters, entries=len(self.live), retained=len(self.retained)
        )


#: What :meth:`ReferenceCache.expected` predicts of a ``stats_snapshot``.
REFERENCE_KEYS = (
    "lookups", "hits", "misses", "evictions", "promotions", "entries", "retained"
)


class TestEvictionAccounting:
    def test_lru_eviction_matches_reference_simulation(self):
        """Exact per-shard counts vs the two-map reference.

        ``run_batch`` serves each shard's chunk serially in request
        order, so per-shard cache behaviour is fully determined — the
        reference predicts every counter and both tier sizes exactly.
        Capacity 1 with 24 shapes over 4 shards overflows the retained
        tier as well (a shard holding six shapes keeps 1 + 4 of them).
        """
        spec = TrafficSpec.zipf(requests=0, query_shapes=24, seed=5)
        catalog, queries, requests = round_robin_requests(spec, rounds=3)
        shard_count = 4
        for capacity in (3, 1):
            with ShardedQueryService(
                Database(catalog),
                shards=shard_count,
                capacity=capacity,
                execute=False,
            ) as gateway:
                gateway.run_batch(requests)
                snapshots = [
                    shard.cache.stats_snapshot()
                    for shard in gateway.shards
                ]
                stats = gateway.stats()

            # Reference simulation over each shard's serial sub-sequence.
            reference = [ReferenceCache(capacity) for _ in range(shard_count)]
            for request in requests:
                signature = canonical_signature(request.query)
                reference[shard_index_for(signature, shard_count)].lookup(signature)

            for index, snapshot in enumerate(snapshots):
                expected = reference[index].expected()
                for key in REFERENCE_KEYS:
                    assert snapshot[key] == expected[key], (
                        "capacity %d shard %d %s" % (capacity, index, key)
                    )
                assert snapshot["entries"] <= capacity
                assert snapshot["retained"] <= 4 * capacity
            # 24 shapes over 4 shards: some shard holds > capacity shapes
            # (pigeonhole), so the round-robin stream must have evicted —
            # and come back to what it evicted.
            total = stats.total.cache
            assert total["evictions"] >= 1 and total["promotions"] >= 1
            assert total["lookups"] == len(requests)
            assert total["promotions"] == sum(s["promotions"] for s in snapshots)
            assert total["retained"] == sum(s["retained"] for s in snapshots)
        # At capacity 1 some shard dropped plans for real.
        assert any(
            s["evictions"] - s["promotions"] - s["retained"] > 0 for s in snapshots
        )

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 5),
        shapes=st.lists(st.integers(0, 31), max_size=160),
    )
    def test_random_lookup_sequences_match_reference(self, capacity, shapes):
        """Counters, both LRU orders and the stripped state of retained
        entries, for any lookup sequence at capacities 1-5."""
        cache = PlanCache(capacity)
        reference = ReferenceCache(capacity)
        programs = {}
        for shape in shapes:
            query = PROPERTY_QUERIES[shape]
            signature = canonical_signature(query)
            entry, hit = cache.entry_for_signature(signature, query)
            if not hit:
                programs[signature] = object()
                entry.install(object(), query.parameter_space, programs[signature])
            reference.lookup(signature)
        snapshot = cache.stats_snapshot()
        expected = reference.expected()
        assert {key: snapshot[key] for key in REFERENCE_KEYS} == expected
        assert [entry.signature for entry in cache.entries()] == reference.live
        assert list(cache._retained) == reference.retained
        for entry in cache._retained.values():
            assert entry.plan is not None
            assert entry.decision is programs[entry.signature]
            assert entry.demoted and entry.chosen_memo == {}

    @pytest.mark.slow
    def test_concurrent_submit_eviction_conservation(self):
        """8 submitter threads, eviction churn, zero lost counts.

        Shard workers are single threads, so every miss and every
        promotion makes one entry live and ``evictions == misses +
        promotions - live entries`` holds exactly per shard no matter
        how the submitting threads interleave.  A cache-lock /
        entry-lock inversion in demotion would hang the joins.
        """
        capacity = 2
        shard_count = 4
        catalog, _, requests = small_traffic(
            requests=THREADS * 40, shapes=16, seed=9
        )
        barrier = threading.Barrier(THREADS)
        errors = []
        futures_per_thread = [[] for _ in range(THREADS)]

        with ShardedQueryService(
            Database(catalog),
            shards=shard_count,
            capacity=capacity,
            max_pending=10_000,
            execute=False,
        ) as gateway:

            def worker(thread_index):
                barrier.wait()
                try:
                    for request in requests[thread_index::THREADS]:
                        futures_per_thread[thread_index].append(
                            gateway.submit(request.query, request.bindings)
                        )
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            # While the hammer runs, snapshots must stay internally
            # consistent — the one-lock-acquisition contract.
            for _ in range(20):
                snapshot = gateway.stats()
                for part in list(snapshot.per_shard) + [snapshot.total]:
                    assert part.cache["hits"] + part.cache["misses"] == (
                        part.cache["lookups"]
                    )
                    assert part.startup.count == part.requests
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            results = [
                future.result(timeout=120.0)
                for futures in futures_per_thread
                for future in futures
            ]
            snapshots = [
                shard.cache.stats_snapshot()
                for shard in gateway.shards
            ]
            stats = gateway.stats()

        assert errors == []
        assert len(results) == len(requests)
        assert stats.total.requests == len(requests)
        assert stats.rejections == 0
        total_lookups = 0
        for snapshot in snapshots:
            assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"]
            assert snapshot["promotions"] <= snapshot["hits"]
            assert snapshot["entries"] <= capacity
            assert snapshot["retained"] <= 4 * capacity
            assert snapshot["evictions"] == (
                snapshot["misses"] + snapshot["promotions"] - snapshot["entries"]
            )
            total_lookups += snapshot["lookups"]
        assert total_lookups == len(requests)
        assert stats.total.cache["evictions"] >= 1
        assert stats.total.cache["promotions"] >= 1


class TestServeBatchCliSharded:
    def test_shards_tenants_and_qps_report(self, tmp_path, capsys):
        report_path = tmp_path / "qps.json"
        code = main(
            [
                "serve-batch",
                "--invocations", "24",
                "--no-execute",
                "--shards", "3",
                "--qps-report", str(report_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharded gateway: 3 shards" in output
        summary = json.loads(report_path.read_text())
        assert summary["invocations"] == 24
        assert summary["shards"] == 3
        assert sum(summary["per_shard_requests"]) == 24
        assert summary["overload"] == {
            "shard_queue_full": 0,
            "tenant_quota": 0,
        }
        assert set(summary["latency_us"]) == {"p50", "p95", "p99", "mean"}
        assert summary["latency_us"]["p50"] >= 0.0

    def test_spec_file_carries_shards_and_tenants(self, tmp_path, capsys):
        spec_path = tmp_path / "mix.json"
        spec_path.write_text(
            json.dumps(
                {
                    "invocations": 12,
                    "threads": 4,
                    "execute": False,
                    "shards": 2,
                    "tenants": 3,
                    "queries": [
                        {"relations": 1, "weight": 2},
                        {"relations": 2, "weight": 1},
                    ],
                }
            )
        )
        assert main(["serve-batch", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "sharded gateway: 2 shards" in output
