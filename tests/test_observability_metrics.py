"""The metrics registry: instruments, exposition, thread safety.

The registry promises *exact* counters under concurrency — every
``inc``/``observe`` holds the instrument's lock, so parallel updates
can never be lost the way unlocked ``+=`` read-modify-write races lose
them.  The hammer tests drive instruments and a three-shard
:class:`~repro.service.sharding.ShardedQueryService` from eight
threads and require the registry totals to equal the exact counts.
"""

import json
import threading

import pytest

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service import ShardedQueryService
from repro.storage import Database
from repro.workloads import paper_workload
from repro.workloads.traffic import TrafficSpec, to_service_requests
from tests.test_service import serve_concurrently

THREADS = 8


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        counter = Counter("requests_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

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
        histogram = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
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
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("0starts_with_digit")


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", "help text")
        second = registry.counter("requests_total")
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x", callback=lambda: 0)
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_json_roundtrips(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        registry.gauge("b", callback=lambda: -1.5)
        registry.histogram("c_seconds", buckets=(1.0,)).observe(0.5)
        data = json.loads(registry.to_json())
        assert data["a_total"]["value"] == 3.0
        assert data["b"]["value"] == -1.5
        assert data["c_seconds"]["count"] == 1

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things").inc(2)
        registry.gauge("b", "level", callback=lambda: 4)
        registry.histogram("c_seconds", "lat", buckets=(0.5, 1.0)).observe(
            0.75
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


class TestConcurrency:
    def test_parallel_instrument_updates_are_exact(self):
        """No lost updates: 8 threads x 5000 increments lands exactly."""
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        histogram = registry.histogram("obs", buckets=(0.5,))
        increments = 5000
        barrier = threading.Barrier(THREADS)

        def worker():
            barrier.wait()
            for _ in range(increments):
                counter.inc()
                histogram.observe(1.0)

        threads = [
            threading.Thread(target=worker) for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = THREADS * increments
        assert counter.value == expected
        snapshot = histogram.snapshot()
        assert snapshot["count"] == expected
        assert snapshot["sum"] == expected

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
        assert snapshot["service_requests_total"]["value"] == total.requests
        assert snapshot["service_inflight_requests"]["value"] == 0
        for key in (
            "lookups", "hits", "misses", "evictions", "invalidations", "promotions"
        ):
            assert snapshot["plan_cache_%s_total" % key]["value"] == total.cache[key]
        assert snapshot["plan_cache_entries"]["value"] == total.cache["entries"]
        assert (
            snapshot["plan_cache_retained_entries"]["value"] == total.cache["retained"]
        )
        assert total.cache["evictions"] >= 1
        assert snapshot["service_startup_seconds"]["count"] == total.requests
        assert snapshot["service_optimize_seconds"]["count"] == total.optimize_count
        assert snapshot["service_reoptimizations_total"]["value"] == sum(
            result.reoptimized for result in results
        )
        for name, value in total.resilience.items():
            assert snapshot["service_%s_total" % name]["value"] == value


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
