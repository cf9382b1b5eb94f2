"""Sharded serving-tier scale: sustained QPS and tail latency.

The sharded gateway (:mod:`repro.service.sharding`) exists to serve
plan-cache traffic at rates the single-lock service cannot sustain.
Both tiers run the same ``QueryService.serve`` per request — same
cache lookup, same memoized start-up decision — so what the gateway
saves is what surrounds it: ``QueryService.run_batch`` pays a pool
future and a canonical-signature computation per request through one
cache lock, while the gateway routes by a signature memoized per query
object and batches each shard's traffic through one worker loop,
shard-parallel when cores allow.

This bench replays the same Zipf(1.1)-skewed heavy-traffic stream
(:mod:`repro.workloads.traffic`) through both tiers — start-up
decisions only, the quantity the serving layer owns — and gates:

* sustained throughput at 8 shards >= ``MIN_SPEEDUP`` x the
  single-lock service, and
* p50/p99 per-request latency, recorded in the JSON artifact and held
  against the committed baseline by ``check_regression.py``.

Measurement protocol: both services are fully warmed (every shape
compiled), then timed over ``PASSES`` strictly alternating passes;
throughput is the best pass and latency the best-pass percentiles, so
slow drift (CPU frequency, background load) hits both tiers equally
instead of deciding the verdict.  The plan-cache capacity exceeds the
shape count, so the bench measures steady-state serving, not eviction
churn.

``REPRO_BENCH_N`` scales the stream length (floor 3000 requests —
shorter streams make the percentile tail too noisy to gate on).
"""

import time

from conftest import bench_invocations, write_and_print, write_json_results

from repro.common.stats import percentile
from repro.service import QueryService, ShardedQueryService
from repro.storage import Database
from repro.workloads.traffic import HeavyTrafficSpec, to_service_requests

#: Minimum stream length for a stable p99.
FLOOR_REQUESTS = 3000

#: The acceptance bar: sharded sustained throughput at 8 shards.  Both
#: tiers run the same ``QueryService.serve``, so the ratio is only
#: what the gateway saves around it (measured 2.0x); the bar keeps the
#: quarter of headroom under the measurement that a ratio of two
#: thread-timed numbers needs on a shared CI runner.
MIN_SPEEDUP = 1.5

SHARDS = 8

#: Strictly alternating measured passes per tier.
PASSES = 3


def traffic_spec():
    """The gating mix: Zipf(1.1) popularity over 40 shapes, 4 tenants."""
    return HeavyTrafficSpec(
        requests=max(FLOOR_REQUESTS, bench_invocations() * 100),
        query_shapes=40,
        zipf_s=1.1,
        tenants=4,
        seed=0,
    )


def _measure(service, requests):
    """``(qps, p50_us, p99_us)`` of one full replay pass."""
    started = time.perf_counter()
    results = service.run_batch(requests)
    wall = time.perf_counter() - started
    latencies = sorted(result.total_seconds for result in results)
    return (
        len(results) / wall,
        1e6 * percentile(latencies, 0.50),
        1e6 * percentile(latencies, 0.99),
    )


def test_sharded_serving_scale(results_dir):
    spec = traffic_spec()
    catalog, queries, requests = to_service_requests(spec)

    single = QueryService(
        Database(catalog), capacity=64, max_workers=8, execute=False
    )
    sharded = ShardedQueryService(
        Database(catalog), shards=SHARDS, capacity=64, execute=False
    )
    with single, sharded:
        # Warm both tiers: every shape compiled and cached before any
        # measured pass (the head of a Zipf stream covers the tail too
        # slowly, so warm with one request per shape explicitly).
        one_per_shape = {request.query.name: request for request in requests}
        single.run_batch(one_per_shape.values())
        sharded.run_batch(one_per_shape.values())

        best = {"single": None, "sharded": None}
        for _ in range(PASSES):
            for label, service in (("single", single), ("sharded", sharded)):
                qps, p50, p99 = _measure(service, requests)
                if best[label] is None or qps > best[label][0]:
                    best[label] = (qps, p50, p99)

        sharded_stats = sharded.stats()
        single_stats = single.stats()

    qps_single, p50_single, p99_single = best["single"]
    qps_sharded, p50_sharded, p99_sharded = best["sharded"]
    speedup = qps_sharded / qps_single

    # Exact aggregation: no request lost between gateway and shards.
    assert sharded_stats.total.requests == len(one_per_shape) + PASSES * len(
        requests
    )
    assert sharded_stats.total.requests == sum(
        part.requests for part in sharded_stats.per_shard
    )
    assert sharded_stats.rejections == 0  # closed-loop replay, no shedding
    assert single_stats.hit_rate > 0.9
    assert sharded_stats.hit_rate > 0.9

    lines = [
        "service scale: %d-request Zipf(%.1f) stream over %d shapes"
        % (spec.requests, spec.zipf_s, spec.query_shapes),
        "  single-lock : %8.0f req/s   p50 %7.1fus   p99 %7.1fus"
        % (qps_single, p50_single, p99_single),
        "  %d shards    : %8.0f req/s   p50 %7.1fus   p99 %7.1fus"
        % (SHARDS, qps_sharded, p50_sharded, p99_sharded),
        "  sustained-throughput speedup: %.2fx (bar: %.1fx)"
        % (speedup, MIN_SPEEDUP),
        "  per-shard requests: %s"
        % [part.requests for part in sharded_stats.per_shard],
    ]
    write_and_print(results_dir, "service_scale", "\n".join(lines))
    write_json_results(
        results_dir,
        "service_scale",
        [
            {
                "name": "service_scale",
                "metric": "qps_single_lock",
                "value": qps_single,
                "unit": "requests/s",
            },
            {
                "name": "service_scale",
                "metric": "qps_sharded_%d" % SHARDS,
                "value": qps_sharded,
                "unit": "requests/s",
            },
            {
                "name": "service_scale",
                "metric": "sharded_speedup",
                "value": speedup,
                "unit": "x",
            },
            {
                "name": "service_scale",
                "metric": "p50_sharded",
                "value": p50_sharded / 1e6,
                "unit": "s",
            },
            {
                "name": "service_scale",
                "metric": "p99_sharded",
                "value": p99_sharded / 1e6,
                "unit": "s",
            },
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        "sharded serving only %.2fx the single-lock service "
        "(bar: %.1fx at %d shards)" % (speedup, MIN_SPEEDUP, SHARDS)
    )
