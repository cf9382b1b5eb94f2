"""Crash-recovery amortization: cold start vs snapshot-restored start.

A process restart without durable plan-cache state pays one full
optimization per hot query shape before the tier is back to amortized
latency.  With a snapshot restore, the same first-touch requests are
cache hits that skip the optimizer entirely.  This bench measures the
per-request first-touch latency of both starts over the same hot set
and gates the acceptance bar: the snapshot-restored p50 must be at
least 3x faster than the cold p50.

Each hot shape names its own selectivity parameters, as distinct
prepared statements do.  Shapes that differ only in an expected
selectivity share one input signature, and a partition re-binds the
plan it already optimized for one of them (a shared compile), so the
cold start would not optimize once per shape.  Counted asserts pin
both starts' work: a cold start runs the optimizer once per shape and
shares nothing; a restored start runs neither.

Latencies are collected across several fresh gateways per variant
(each cold sample really is a first touch), and the verdict compares
p50s so scheduler noise in one serve does not decide it.
"""

import time

from conftest import write_and_print

from repro.algebra.expressions import SelectionPredicate
from repro.common import percentile
from repro.optimizer.query import QuerySpec
from repro.service import DurabilityConfig, ShardedQueryService
from repro.storage import Database
from repro.workloads.traffic import (
    TrafficSpec,
    build_traffic_queries,
    to_service_requests,
)

SHAPES = 8
SHARDS = 3
REPEATS = 5

#: The acceptance bar: restored first-touch p50 this many times faster.
MIN_RESTORE_SPEEDUP = 3.0


def make_gateway(catalog, durability=None):
    return ShardedQueryService(
        Database(catalog),
        shards=SHARDS,
        capacity=32,
        execute=False,
        durability=durability,
    )


def distinct_input_queries(spec):
    """The spec's shapes, each with its own selectivity parameter names."""
    catalog, queries = build_traffic_queries(spec)
    distinct = []
    for shape, query in enumerate(queries):
        selections = {
            name: SelectionPredicate(
                predicate.comparison,
                selectivity_parameter="%s_%d"
                % (predicate.selectivity_parameter, shape),
                selectivity_bounds=(
                    predicate.selectivity_bounds.lower,
                    predicate.selectivity_bounds.upper,
                ),
                expected_selectivity=predicate.expected_selectivity,
            )
            for name, predicate in query.selections.items()
        }
        distinct.append(
            QuerySpec(
                relations=query.relations,
                selections=selections,
                join_predicates=query.join_predicates,
                name=query.name,
            )
        )
    return catalog, distinct


def compile_counts(gateway):
    """``(optimizer runs, shared compiles)`` summed over the shards."""
    counts = gateway.stats().total.resilience
    return counts["decision_compiles"], counts["shared_compiles"]


def first_touch_requests(requests):
    """The first request of each shape: the cold-start working set."""
    picks = []
    seen = set()
    for request in requests:
        shape = request.tag.split("#")[0]
        if shape not in seen:
            seen.add(shape)
            picks.append(request)
    return picks


def serve_hot_set(gateway, hot, samples):
    results = []
    for request in hot:
        started = time.perf_counter()
        results.append(
            gateway.run(request.query, request.bindings, tag=request.tag)
        )
        samples.append(time.perf_counter() - started)
    return results


def test_recovery_restore_speedup(results_dir, tmp_path):
    spec = TrafficSpec.zipf(
        requests=64, query_shapes=SHAPES, tenants=2, seed=0
    )
    catalog, queries = distinct_input_queries(spec)
    _, _, requests = to_service_requests(spec, catalog=catalog, queries=queries)
    hot = first_touch_requests(requests)
    assert len(hot) == SHAPES

    # Seed the snapshot: one full traffic pass, snapshot on shutdown.
    snapshot_path = tmp_path / "recovery-snapshot.json"
    seeder = make_gateway(
        catalog, durability=DurabilityConfig(snapshot_path)
    )
    try:
        seeder.run_batch(requests)
    finally:
        seeder.shutdown()

    cold_samples = []
    restored_samples = []
    for _ in range(REPEATS):
        cold = make_gateway(catalog)
        try:
            cold_results = serve_hot_set(cold, hot, cold_samples)
            cold_compiles = compile_counts(cold)
        finally:
            cold.shutdown()
        assert not any(result.cache_hit for result in cold_results)
        # One optimizer run per shape, none re-bound from another's.
        assert cold_compiles == (SHAPES, 0)

        restored = make_gateway(
            catalog,
            durability=DurabilityConfig(
                snapshot_path, snapshot_on_shutdown=False
            ),
        )
        try:
            stats = restored.restore_stats
            assert stats is not None and stats.restored == SHAPES
            assert stats.errors == []
            restored_results = serve_hot_set(restored, hot, restored_samples)
            restored_compiles = compile_counts(restored)
        finally:
            restored.shutdown()
        # The counter-level proof of warm restore: every first touch
        # after a restore is a cache hit — the optimizer never runs and
        # nothing is re-bound.
        assert all(result.cache_hit for result in restored_results)
        assert restored_compiles == (0, 0)

    cold_p50 = percentile(cold_samples, 0.50)
    restored_p50 = percentile(restored_samples, 0.50)
    speedup = cold_p50 / restored_p50

    lines = [
        "crash recovery: cold start vs snapshot-restored start",
        "  hot set: %d shapes across %d shards, %d repeats"
        % (SHAPES, SHARDS, REPEATS),
        "  cold first-touch p50:     %.3fms" % (cold_p50 * 1e3),
        "  restored first-touch p50: %.3fms" % (restored_p50 * 1e3),
        "  restore speedup: %.1fx (bar: >=%.0fx)"
        % (speedup, MIN_RESTORE_SPEEDUP),
    ]
    write_and_print(results_dir, "recovery", "\n".join(lines))
    assert speedup >= MIN_RESTORE_SPEEDUP, (
        "snapshot restore must beat cold start by %.0fx (got %.1fx)"
        % (MIN_RESTORE_SPEEDUP, speedup)
    )
