"""Plan-cache amortization: cached start-up vs optimize-per-query.

The service's reason to exist is the paper's embedded-SQL argument:
optimization cost is paid once per query shape, and every further
invocation pays only the choose-plan start-up decision.  This bench
replays a >=100-invocation mixed workload through a one-shard gateway
and gates that argument on counted work, which repeats exactly from
run to run: the optimizer runs once per distinct shape, no cache hit
runs it, and a hit's start-up pass costs no more plan nodes than the
shape's one optimization did.  The wall-clock amortization (cached
invocation vs from-scratch optimization, whole replay vs
optimize-per-query) is reported, not gated: the whole replay's
optimize and start-up time is ~5 ms, so one full garbage collection
of the test session's heap (~12 ms) landing inside it read as a 3.5x
replay speedup where a plain process measures ~9x.

It also gates the observability layer's hot-path cost: with tracing
disabled, a metrics-instrumented gateway must stay within 5% of an
uninstrumented one on the cached-invocation path (min-of-repeats
wall-clock, so scheduler noise does not decide the verdict).

``REPRO_BENCH_N`` scales the invocation count (floor 100 here — below
that the hit-rate and percentile numbers are too noisy to gate on).
"""

import gc
import time
from collections import Counter

from conftest import (
    bench_invocations,
    latency_summary,
    write_and_print,
    write_json_results,
)

from repro.common import percentile
from repro.optimizer import optimize_dynamic
from repro.service import render_report, replay_spec
from repro.workloads.traffic import TrafficSpec, to_service_requests

#: Minimum invocations for a meaningful hit-rate measurement.
FLOOR_INVOCATIONS = 100

#: From-scratch optimizations timed per shape for the wall baseline.
BASELINE_SAMPLES = 3


def service_spec():
    """The benchmark mix: ``serve-batch``'s default three shapes, skewed
    toward the cheap one."""
    return TrafficSpec.default(
        requests=max(FLOOR_INVOCATIONS, bench_invocations()), seed=0
    )


def test_service_cache_amortization(benchmark, results_dir):
    spec = service_spec()
    #: (query name, cost evaluations) of every optimizer run: the
    #: service's and the wall baseline's from-scratch samples.
    optimizer_runs = []

    def counted_optimize(catalog, query):
        result = optimize_dynamic(catalog, query)
        optimizer_runs.append((query.name, result.statistics.cost_evaluations))
        return result

    # A full collection of the test session's heap takes ~12 ms; left
    # to chance it can land inside one timed start-up of the replay.
    gc.collect()
    report = replay_spec(
        spec,
        execute=False,
        baseline_samples=BASELINE_SAMPLES,
        optimize=counted_optimize,
    )

    # Benchmark the unit the service amortizes down to: one complete
    # cached invocation (lookup + start-up decision), measured through
    # the public entry point against a warm cache.
    from repro.service import ShardedQueryService
    from repro.storage import Database

    catalog, _, requests = to_service_requests(spec)
    with ShardedQueryService(Database(catalog), shards=1, execute=False) as gateway:
        gateway.run_batch(requests[:16])  # warm the cache
        first = requests[0]
        benchmark(lambda: gateway.run(first.query, first.bindings))

    write_and_print(results_dir, "service_cache", render_report(report))

    assert len(report.results) >= FLOOR_INVOCATIONS

    # The amortization argument, on counted work.
    #
    # The optimizer runs once per distinct shape.  Each shape's name
    # appears once for the service's run and BASELINE_SAMPLES times for
    # the wall baseline, and the optimizer is deterministic, so every
    # run of one shape costs the same number of evaluations.
    shapes = sorted(set(report.names))
    runs_per_shape = Counter(name for name, _ in optimizer_runs)
    assert runs_per_shape == {shape: 1 + BASELINE_SAMPLES for shape in shapes}
    evaluations = dict(optimizer_runs)
    assert len(set(optimizer_runs)) == len(shapes)
    assert report.stats.optimize_count == report.stats.cache["misses"] == len(shapes)

    # A hit runs no optimizer: every optimizer run is a miss's.
    hits = [result for result in report.results if result.cache_hit]
    assert len(hits) == len(report.results) - len(shapes)
    assert all(result.optimize_seconds == 0.0 for result in hits)

    # A hit's start-up pass costs no more plan nodes than the shape's one
    # optimization: the dynamic plan holds only nodes the optimizer
    # costed.  (Counted, the two are close — 3-94 against 5-132 here —
    # so the wall-clock gap is the cost per evaluation: a compiled
    # point-valued kernel against interval costing inside the search.)
    for name, result in zip(report.names, report.results):
        if result.cache_hit:
            assert result.startup_report.cost_evaluations <= evaluations[name]
    startup_evaluations = sum(result.startup_report.cost_evaluations for result in hits)
    optimize_per_query_evaluations = sum(evaluations[name] for name in report.names)
    service_evaluations = (
        sum(evaluations[shape] for shape in shapes) + startup_evaluations
    )

    hit_mean = sum(
        result.optimize_seconds + result.startup_seconds for result in hits
    ) / len(hits)
    baseline_mean = sum(
        report.baseline_means[name]
        for name, result in zip(report.names, report.results)
        if result.cache_hit
    ) / len(hits)
    write_json_results(
        results_dir,
        "service_cache",
        [
            {
                "name": "service_cache",
                "metric": "hit_rate",
                "value": report.hit_rate,
                "unit": "fraction",
            },
            {
                "name": "service_cache",
                "metric": "cache_hit_invocation_mean",
                "value": hit_mean,
                "unit": "s",
            },
            {
                "name": "service_cache",
                "metric": "optimize_baseline_mean",
                "value": baseline_mean,
                "unit": "s",
            },
            {
                "name": "service_cache",
                "metric": "replay_speedup",
                "value": report.speedup,
                "unit": "x",
            },
            {
                "name": "service_cache",
                "metric": "optimizer_runs",
                "value": report.stats.optimize_count,
                "unit": "count",
            },
            {
                "name": "service_cache",
                "metric": "startup_evaluations_per_hit",
                "value": startup_evaluations / len(hits),
                "unit": "count",
            },
            {
                "name": "service_cache",
                "metric": "counted_evaluation_speedup",
                "value": optimize_per_query_evaluations / service_evaluations,
                "unit": "x",
            },
        ]
        + latency_summary(
            "service_cache_hit_latency",
            [
                result.optimize_seconds + result.startup_seconds
                for result in hits
            ],
        ),
    )


#: Observability must cost at most this fraction when tracing is off.
MAX_DISABLED_OVERHEAD = 0.05


def test_tracing_disabled_overhead(results_dir):
    """Metrics wired, tracer off: cached path within 5% of baseline.

    The two gateways are timed in pairs of adjacent batches, the order
    swapped every pair, and the overhead is the median of the pairs'
    time ratios: slow drift (CPU frequency, background load) hits both
    batches of a pair alike, and a short CPU burst that speeds up one
    batch moves one ratio, not the verdict.  (A min-to-min comparison
    reads such a burst as the whole difference: with the same request
    code on both sides it read anywhere from -25% to +23%.)
    """
    from repro.observability import MetricsRegistry
    from repro.service import ShardedQueryService
    from repro.storage import Database
    from repro.workloads import paper_workload, random_bindings

    workload = paper_workload(2, seed=0)
    all_bindings = [
        random_bindings(workload, seed=0, run_index=index)
        for index in range(200)
    ]

    def make_service(metrics):
        gateway = ShardedQueryService(
            Database(workload.catalog), shards=1, execute=False, metrics=metrics
        )
        gateway.run(workload.query, all_bindings[0])  # compile once
        return gateway

    def batch_seconds(service):
        started = time.perf_counter()
        for bindings in all_bindings:
            service.run(workload.query, bindings)
        return time.perf_counter() - started

    plain = make_service(None)
    instrumented_service = make_service(MetricsRegistry())
    with plain, instrumented_service:
        # Warm both sides, then time adjacent pairs, alternating order.
        batch_seconds(plain)
        batch_seconds(instrumented_service)
        baselines, instrumenteds = [], []
        for index in range(15):
            if index % 2:
                instrumenteds.append(batch_seconds(instrumented_service))
                baselines.append(batch_seconds(plain))
            else:
                baselines.append(batch_seconds(plain))
                instrumenteds.append(batch_seconds(instrumented_service))

    baseline = percentile(baselines, 0.5)
    instrumented = percentile(instrumenteds, 0.5)
    overhead = (
        percentile([i / b for i, b in zip(instrumenteds, baselines)], 0.5) - 1.0
    )
    write_and_print(
        results_dir,
        "observability_overhead",
        "tracing-disabled overhead: baseline %.6fs, instrumented %.6fs "
        "(%+.2f%%)" % (baseline, instrumented, overhead * 100.0),
    )
    write_json_results(
        results_dir,
        "observability_overhead",
        [
            {
                "name": "observability_overhead",
                "metric": "tracing_disabled_overhead",
                "value": overhead,
                "unit": "fraction",
                "better": "lower",
            },
        ],
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        "tracing-disabled observability adds %.1f%% to the cached "
        "invocation path (bar: %.0f%%)"
        % (overhead * 100.0, MAX_DISABLED_OVERHEAD * 100.0)
    )
