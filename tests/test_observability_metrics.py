"""The metrics registry: instruments, exposition, and what they read.

The registry is read-only: every instrument reads, at scrape time, a
count some subsystem already keeps.  The serving gateway's instruments
read its shards' books, so they are exact under concurrency and
survive shard restarts exactly as the books do, and a request runs no
registry code at all.  The hammer tests drive a three-shard
:class:`~repro.service.sharding.ShardedQueryService` from eight
threads and require the registry totals to equal the exact counts.
"""

import json
import sys
import threading

import pytest

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability import metrics as metrics_module
from repro.service import ShardedQueryService
from repro.storage import Database
from repro.workloads import paper_workload, random_bindings
from repro.workloads.traffic import TrafficSpec, to_service_requests
from tests.test_service import serve_concurrently

THREADS = 8


class TestInstruments:
    def test_counter_accumulates(self):
        """A counter reads the total its keeper accumulates, at every
        scrape."""
        total = [0]
        counter = Counter("requests_total", callback=lambda: total[0])
        total[0] += 1
        total[0] += 2.5
        assert counter.value == 3.5

    def test_gauge_moves_both_ways(self):
        """A gauge reads its source at every scrape, up or down."""
        inflight = [2]
        gauge = Gauge("inflight", callback=lambda: inflight[0])
        assert gauge.value == 2
        inflight[0] -= 1
        assert gauge.value == 1
        inflight[0] = 7
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative(self):
        # One observation each at 0.05, 0.5, 5.0 and 50.0.
        histogram = Histogram(
            "latency",
            buckets=(0.1, 1.0, 10.0),
            callback=lambda: ([1, 1, 1, 1], 55.55),
        )
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(55.55)
        # Cumulative: each bucket counts everything at or below it.
        assert snapshot["buckets"] == {
            "0.1": 1,
            "1": 2,
            "10": 3,
            "+Inf": 4,
        }

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name", callback=lambda: 0)
        with pytest.raises(ValueError):
            Counter("0starts_with_digit", callback=lambda: 0)


class TestRegistry:
    def test_a_second_registration_of_a_name_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", "help text", callback=lambda: 1)
        with pytest.raises(ValueError, match="requests_total"):
            registry.counter("requests_total", callback=lambda: 2)
        assert registry.get("requests_total") is first
        assert first.value == 1
        assert len(registry) == 1

    def test_a_second_gateway_on_one_registry_raises_naming_the_metric(self):
        """Two gateways' instruments would share names: the second
        gateway's construction fails instead of exporting the first's
        counts as both."""
        workload = paper_workload(1, seed=0)
        registry = MetricsRegistry()
        with ShardedQueryService(
            Database(workload.catalog), shards=1, execute=False, metrics=registry
        ):
            registered = len(registry)
            with pytest.raises(ValueError, match="metric '[a-z_]+' already"):
                ShardedQueryService(
                    Database(workload.catalog),
                    shards=1,
                    execute=False,
                    metrics=registry,
                )
            assert len(registry) == registered

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", callback=lambda: 0)
        with pytest.raises(ValueError):
            registry.gauge("x", callback=lambda: 0)
        with pytest.raises(ValueError):
            registry.histogram("x", callback=lambda: ([0], 0.0))

    def test_json_roundtrips(self):
        registry = MetricsRegistry()
        registry.counter("a_total", callback=lambda: 3.0)
        registry.gauge("b", callback=lambda: -1.5)
        registry.histogram("c_seconds", buckets=(1.0,), callback=lambda: ([1, 0], 0.5))
        data = json.loads(registry.to_json())
        assert data["a_total"]["value"] == 3.0
        assert data["b"]["value"] == -1.5
        assert data["c_seconds"]["count"] == 1

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things", callback=lambda: 2)
        registry.gauge("b", "level", callback=lambda: 4)
        registry.histogram(
            "c_seconds", "lat", buckets=(0.5, 1.0), callback=lambda: ([0, 1, 0], 0.75)
        )
        text = registry.to_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 2" in text
        assert "# TYPE b gauge" in text
        assert "# TYPE c_seconds histogram" in text
        assert 'c_seconds_bucket{le="0.5"} 0' in text
        assert 'c_seconds_bucket{le="1"} 1' in text
        assert 'c_seconds_bucket{le="+Inf"} 1' in text
        assert "c_seconds_sum 0.75" in text
        assert "c_seconds_count 1" in text
        # Exposition format requires a trailing newline.
        assert text.endswith("\n")


def counts_in(snapshot):
    """Every counter value and histogram count of a registry snapshot."""
    return {
        name: data["count"] if data["type"] == "histogram" else data["value"]
        for name, data in snapshot.items()
        if data["type"] != "gauge"
    }


def assert_scrape_equals_stats(snapshot, stats):
    """One scrape, at quiescence, reads what ``stats()`` reads."""
    total = stats.total
    assert snapshot["service_requests_total"]["value"] == total.requests
    assert snapshot["service_inflight_requests"]["value"] == 0
    for key in ("lookups", "hits", "misses", "evictions", "invalidations", "promotions"):
        assert snapshot["plan_cache_%s_total" % key]["value"] == total.cache[key]
    assert snapshot["plan_cache_entries"]["value"] == total.cache["entries"]
    assert snapshot["plan_cache_retained_entries"]["value"] == total.cache["retained"]
    assert snapshot["service_reoptimizations_total"]["value"] == total.cache["invalidations"]
    assert snapshot["service_execution_rows_total"]["value"] == total.rows
    for name, book in (
        ("startup", total.startup),
        ("optimize", total.optimize),
        ("redecide", total.redecide),
    ):
        histogram = snapshot["service_%s_seconds" % name]
        assert histogram["count"] == book.count
        assert histogram["sum"] == book.sum
        assert list(histogram["buckets"].values())[-1] == book.count
    for name, value in total.resilience.items():
        assert snapshot["service_%s_total" % name]["value"] == value
    assert snapshot["service_overload_rejections_total"]["value"] == stats.rejections


class TestLatencyBuckets:
    def test_startup_observations_spread_over_the_sub_100us_buckets(self):
        """A cached start-up decision takes tens of microseconds: the
        buckets at or below 100 µs must tell them apart."""
        catalog, _queries, requests = to_service_requests(
            TrafficSpec.zipf(requests=400, query_shapes=12, seed=7)
        )
        with ShardedQueryService(Database(catalog), shards=2, execute=False) as gateway:
            gateway.run_batch(requests)
            buckets = gateway.stats().total.startup.buckets
        assert sum(buckets) == len(requests)
        low = [
            count
            for bound, count in zip(metrics_module.DEFAULT_LATENCY_BUCKETS, buckets)
            if bound <= 0.0001
        ]
        assert sum(low) > len(requests) // 2
        assert sum(1 for count in low if count) >= 2


class TestConcurrency:
    def test_parallel_instrument_updates_are_exact(self):
        """No lost updates: 8 threads each record 2000 served requests
        into one partition's books, and the registry reads them exactly."""
        workload = paper_workload(1, seed=0)
        registry = MetricsRegistry()
        with ShardedQueryService(
            Database(workload.catalog), shards=1, execute=False, metrics=registry
        ) as gateway:
            service = gateway.shards[0].service
            increments = 2000
            barrier = threading.Barrier(THREADS)

            def worker():
                barrier.wait()
                for _ in range(increments):
                    service._record(1.0, 0.0, None, None)

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = registry.snapshot()

        expected = THREADS * increments
        assert snapshot["service_requests_total"]["value"] == expected
        assert snapshot["service_startup_seconds"]["count"] == expected
        assert snapshot["service_startup_seconds"]["sum"] == expected
        assert snapshot["service_startup_seconds"]["buckets"]["1"] == expected

    @pytest.mark.slow
    def test_gateway_counters_equal_stats_total(self):
        """8 caller threads through a 3-shard gateway: at quiescence
        every pull count (a sum over the partitions) equals
        ``stats().total``, and the push instruments the partitions share
        saw every request."""
        catalog, _queries, requests = to_service_requests(
            TrafficSpec.zipf(requests=THREADS * 12, query_shapes=12, seed=3)
        )
        registry = MetricsRegistry()
        with ShardedQueryService(
            Database(catalog), shards=3, capacity=2, execute=False, metrics=registry
        ) as gateway:
            results = serve_concurrently(gateway, requests, THREADS)
            stats = gateway.stats()
            snapshot = registry.snapshot()

        total = stats.total
        assert total.requests == len(requests)
        assert sum(1 for part in stats.per_shard if part.requests) == 3
        assert_scrape_equals_stats(snapshot, stats)
        assert total.cache["evictions"] >= 1
        assert snapshot["service_startup_seconds"]["count"] == total.requests
        assert snapshot["service_optimize_seconds"]["count"] == total.optimize_count
        assert snapshot["service_reoptimizations_total"]["value"] == sum(
            result.reoptimized for result in results
        )


class TestRedecideHistogram:
    """``service_redecide_seconds``: one sample per request that re-decided."""

    def _serve(self, reopt_policy, metrics):
        from repro.catalog import populate_database
        from repro.workloads import skewed_bindings

        workload = paper_workload(3, memory_uncertain=True)
        database = Database(workload.catalog)
        populate_database(database, seed=11)
        bindings = skewed_bindings(workload, declared=0.02, actual=0.6)
        with ShardedQueryService(database, shards=1, metrics=metrics) as gateway:
            results = [
                gateway.run(workload.query, bindings, reopt_policy=reopt_policy)
                for _ in range(3)
            ]
            return results, gateway.stats().total.resilience

    def test_observed_only_when_a_request_redecides(self):
        registry = MetricsRegistry()
        results, counts = self._serve("always", registry)
        assert counts["midquery_redecisions"] >= len(results)
        histogram = registry.snapshot()["service_redecide_seconds"]
        assert histogram["count"] == len(results)
        assert histogram["sum"] == pytest.approx(
            sum(r.execution.midquery.decision_seconds for r in results)
        )
        assert "service_redecide_seconds_count 3" in registry.to_prometheus()

        quiet = MetricsRegistry()
        self._serve("off", quiet)
        assert quiet.snapshot()["service_redecide_seconds"]["count"] == 0

    def test_no_registry_is_a_no_op(self):
        results, counts = self._serve("always", None)
        assert counts["midquery_redecisions"] >= len(results)


class TestOneSetOfBooks:
    """The registry reads the books; the books outlive a shard restart."""

    def test_request_path_runs_no_registry_code(self):
        """200 cached requests with a registry attached call no function
        defined in ``observability/metrics.py``; one scrape afterwards
        equals ``stats()``."""
        workload = paper_workload(2, seed=0)
        all_bindings = [
            random_bindings(workload, seed=0, run_index=index) for index in range(200)
        ]
        registry = MetricsRegistry()
        metrics_file = metrics_module.__file__
        calls = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == metrics_file:
                calls.append(frame.f_code.co_name)

        with ShardedQueryService(
            Database(workload.catalog), shards=1, execute=False, metrics=registry
        ) as gateway:
            gateway.run(workload.query, all_bindings[0])  # compile once
            sys.setprofile(profile)
            try:
                results = [gateway.run(workload.query, b) for b in all_bindings]
            finally:
                sys.setprofile(None)
            stats = gateway.stats()
            snapshot = registry.snapshot()
        assert all(result.cache_hit for result in results)
        assert calls == []
        assert stats.total.requests == 201
        assert_scrape_equals_stats(snapshot, stats)

    def test_a_served_request_keeps_no_memory(self):
        """The books keep sums and bucket counts, not samples: 5,000
        cached requests retain under one byte each."""
        import gc
        import tracemalloc

        workload = paper_workload(2, seed=0)
        all_bindings = [
            random_bindings(workload, seed=0, run_index=index) for index in range(200)
        ]
        with ShardedQueryService(
            Database(workload.catalog), shards=1, execute=False
        ) as gateway:
            for bindings in all_bindings:
                gateway.run(workload.query, bindings)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for index in range(5000):
                    gateway.run(workload.query, all_bindings[index % 200])
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert retained < 5000

    def test_restart_and_standby_keep_every_count(self):
        """Kill and restart a shard, then serve with every shard down:
        no registry count decreases, the standby counts into the total,
        and ``per_shard`` stays one entry per shard."""
        catalog, _queries, requests = to_service_requests(
            TrafficSpec.zipf(requests=40, query_shapes=6, seed=3)
        )
        registry = MetricsRegistry()
        with ShardedQueryService(
            Database(catalog), shards=3, execute=False, metrics=registry
        ) as gateway:
            scrapes = []

            def serve(batch):
                for request in batch:
                    gateway.run(request.query, request.bindings)
                scrapes.append(counts_in(registry.snapshot()))

            serve(requests)
            gateway.shards[0].kill()
            gateway.supervisor.check()
            assert gateway.supervisor.counts()["restarts"] == 1
            serve([])
            serve(requests[:10])
            for shard in gateway.shards:
                shard.kill()
            serve(requests[10:20])
            stats = gateway.stats()
            outcomes = gateway.request_outcomes()
            snapshot = registry.snapshot()

        for before, after in zip(scrapes, scrapes[1:]):
            for name, value in before.items():
                assert after[name] >= value, name
        # The restart itself lost nothing the shard had counted.
        assert scrapes[1]["service_requests_total"] == 40
        assert scrapes[1]["plan_cache_lookups_total"] == 40
        assert scrapes[1]["service_shard_restarts_total"] == 1
        assert outcomes["failed_over"] == 10
        assert (
            stats.requests
            == outcomes["completed"] + outcomes["failed_over"]
            == snapshot["service_startup_seconds"]["count"]
            == 60
        )
        assert len(stats.per_shard) == 3
        assert sum(part.requests for part in stats.per_shard) == 50
        assert_scrape_equals_stats(snapshot, stats)
