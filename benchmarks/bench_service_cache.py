"""Plan-cache amortization: cached start-up vs optimize-per-query.

The service's reason to exist is the paper's embedded-SQL argument:
optimization cost is paid once per query shape, and every further
invocation pays only the choose-plan start-up decision.  This bench
replays a 100-invocation mixed workload through a one-shard gateway
and gates that argument on counted work, which repeats exactly from
run to run: the optimizer runs once per distinct shape, no cache hit
runs it, and a hit's start-up pass costs no more plan nodes than the
shape's one optimization did.  The hit rate, the optimizer runs, the
start-up evaluations per hit and the counted evaluation speedup are
exact entries of ``benchmarks/counted_facts.json``'s
``benches["service_cache"]``.  The wall-clock amortization (cache-hit
latency p50/p95/mean, cached invocation vs from-scratch optimization,
whole replay vs optimize-per-query) is printed, not gated: the whole
replay's optimize and start-up time is ~5 ms, so one full garbage
collection of the test session's heap (~12 ms) landing inside it read
as a 3.5x replay speedup where a plain process measures ~9x.  The
end-to-end benchmark's ``point_serve`` latencies time the cache-hit
path under calibrated bounds.

It also gates the observability layer's hot-path cost: with tracing
disabled, a metrics-instrumented gateway must stay within 5% of an
uninstrumented one on the cached-invocation path (the median of paired
batch ratios, so scheduler noise does not decide the verdict).

The replay is 100 invocations whatever ``REPRO_BENCH_N`` says: the
counted facts are facts of that one stream (at 200 the hit rate would
read 0.985, not 0.97).
"""

import gc
import time
from collections import Counter

from conftest import check_counted_facts, write_and_print

from repro.common import percentile
from repro.optimizer import optimize_dynamic
from repro.service import render_report, replay_spec
from repro.workloads.traffic import TrafficSpec, to_service_requests

#: Invocations replayed.
INVOCATIONS = 100

#: From-scratch optimizations timed per shape for the wall baseline.
BASELINE_SAMPLES = 3


def service_spec():
    """The benchmark mix: ``serve-batch``'s default three shapes, skewed
    toward the cheap one."""
    return TrafficSpec.default(requests=INVOCATIONS, seed=0)


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

    shapes = sorted(set(report.names))
    evaluations = dict(optimizer_runs)
    hits = [result for result in report.results if result.cache_hit]
    hit_latencies = [result.startup_seconds for result in hits]
    baseline_mean = sum(
        report.baseline_means[name]
        for name, result in zip(report.names, report.results)
        if result.cache_hit
    ) / len(hits)
    startup_evaluations = sum(result.startup_report.cost_evaluations for result in hits)
    optimize_per_query_evaluations = sum(evaluations[name] for name in report.names)
    service_evaluations = (
        sum(evaluations[shape] for shape in shapes) + startup_evaluations
    )
    facts = {
        "hit_rate": report.hit_rate,
        "optimizer_runs": report.stats.optimize_count,
        "startup_evaluations_per_hit": startup_evaluations / len(hits),
        "counted_evaluation_speedup": optimize_per_query_evaluations
        / service_evaluations,
    }
    lines = [
        render_report(report),
        "  cache-hit invocation: p50 %.3fms  p95 %.3fms  mean %.3fms; "
        "from-scratch optimization mean %.3fms"
        % (
            1000.0 * percentile(hit_latencies, 0.50),
            1000.0 * percentile(hit_latencies, 0.95),
            1000.0 * sum(hit_latencies) / len(hits),
            1000.0 * baseline_mean,
        ),
        "  counted: %(optimizer_runs)d optimizer runs, "
        "%(startup_evaluations_per_hit)r start-up evaluations per hit, "
        "%(counted_evaluation_speedup)rx fewer cost evaluations than "
        "optimize-per-query" % facts,
    ]
    write_and_print(results_dir, "service_cache", "\n".join(lines))

    assert len(report.results) == INVOCATIONS

    # The amortization argument, on counted work.
    #
    # The optimizer runs once per distinct shape.  Each shape's name
    # appears once for the service's run and BASELINE_SAMPLES times for
    # the wall baseline, and the optimizer is deterministic, so every
    # run of one shape costs the same number of evaluations.
    runs_per_shape = Counter(name for name, _ in optimizer_runs)
    assert runs_per_shape == {shape: 1 + BASELINE_SAMPLES for shape in shapes}
    assert len(set(optimizer_runs)) == len(shapes)
    assert report.stats.optimize_count == report.stats.cache["misses"] == len(shapes)

    # A hit runs no optimizer: every optimizer run is a miss's.
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

    check_counted_facts("service_cache", facts)


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
    assert overhead < MAX_DISABLED_OVERHEAD, (
        "tracing-disabled observability adds %.1f%% to the cached "
        "invocation path (bar: %.0f%%)"
        % (overhead * 100.0, MAX_DISABLED_OVERHEAD * 100.0)
    )
