"""Workload replay through the serving gateway.

Implements the ``python -m repro serve-batch`` CLI: materialize a
:class:`~repro.workloads.traffic.TrafficSpec` with
:func:`~repro.workloads.traffic.to_service_requests`, push its full
request stream through a
:class:`~repro.service.sharding.ShardedQueryService` of ``shards``
partitions (``run_batch``: each shard's share in request order on its
worker), and report the quantities the paper's amortization argument
is about — cache hit rate, start-up latency percentiles, and the
speedup over optimizing every invocation from scratch.

The baseline is *optimize-per-query*: a system without a plan cache
pays a fresh optimization for every invocation (the paper's run-time
optimization remedy).  Its per-invocation cost is measured by timing a
few optimizer runs per distinct query (``baseline_samples``) rather
than re-optimizing all N invocations; the reported baseline is the
optimization cost alone — conservative, since the no-cache system
would pay its own start-up on top.
"""

import json
import time

from repro.catalog.synthetic import populate_database
from repro.common.errors import SnapshotError
from repro.common.stats import percentile
from repro.service.durability import read_snapshot
from repro.service.sharding import ShardedQueryService
from repro.storage.database import Database


class ReplayReport:
    """Everything one replay produced, ready for rendering."""

    def __init__(
        self,
        spec,
        names,
        results,
        gateway_stats,
        wall_seconds,
        baseline_means,
        restore_stats=None,
    ):
        self.spec = spec
        #: The query name each result served, in request order.
        self.names = names
        self.results = results
        #: The gateway's
        #: :class:`~repro.service.sharding.ShardedServiceStatistics`.
        self.gateway_stats = gateway_stats
        #: Its exact aggregate, a
        #: :class:`~repro.service.service.ServiceStatistics`.
        self.stats = gateway_stats.total
        #: :class:`~repro.service.durability.RestoreStats` when the
        #: replay warm-started from a snapshot, else None.
        self.restore_stats = restore_stats
        self.wall_seconds = wall_seconds
        #: query name -> mean seconds of one from-scratch optimization.
        self.baseline_means = baseline_means
        self.service_seconds = sum(
            result.optimize_seconds + result.startup_seconds for result in results
        )
        self.baseline_seconds = sum(baseline_means[name] for name in names)
        #: Optimize-per-query cost over the service's optimize+start-up
        #: cost for the same invocation sequence.
        if self.service_seconds > 0.0:
            self.speedup = self.baseline_seconds / self.service_seconds
        else:
            self.speedup = 0.0

    @property
    def hit_rate(self):
        """Fraction of invocations served from the plan cache."""
        return self.stats.hit_rate

    def __repr__(self):
        return "ReplayReport(%d invocations, hit_rate=%.2f, speedup=%.1fx)" % (
            len(self.results),
            self.hit_rate,
            self.speedup,
        )


def replay_spec(
    spec,
    capacity=64,
    execute=True,
    shards=1,
    baseline_samples=2,
    optimize=None,
    snapshot=None,
):
    """Replay a traffic spec; returns a :class:`ReplayReport`.

    ``capacity``, ``execute`` and ``shards`` configure the gateway
    (``execute=False`` is a latency-only smoke run); ``optimize``
    overrides the optimizer entry point for both the service and the
    baseline measurement.  ``snapshot`` names a plan-cache snapshot
    file: the replay warm-starts from it when it exists and (re)writes
    it on shutdown, so repeated replays skip re-optimizing the hot set.
    A damaged snapshot raises its
    :class:`~repro.common.errors.SnapshotError` before anything is
    served or overwritten.
    """
    # Imported here: repro.workloads.traffic imports this package.
    from repro.workloads.traffic import to_service_requests

    if optimize is None:
        from repro.optimizer.optimizer import optimize_dynamic

        optimize = optimize_dynamic
    catalog, queries, requests = to_service_requests(spec)
    database = Database(catalog)
    if execute:
        populate_database(database, seed=spec.seed)
    if snapshot is not None:
        _refuse_damaged(snapshot)
    with ShardedQueryService(
        database,
        shards=shards,
        capacity=capacity,
        optimize=optimize,
        execute=execute,
        durability=snapshot,
    ) as gateway:
        restore_stats = gateway.restore_stats
        started = time.perf_counter()
        results = gateway.run_batch(requests)
        wall_seconds = time.perf_counter() - started
        gateway_stats = gateway.stats()

    baseline_means = {}
    samples = max(1, baseline_samples)
    for query in queries:
        started = time.perf_counter()
        for _ in range(samples):
            optimize(catalog, query)
        baseline_means[query.name] = (time.perf_counter() - started) / samples
    return ReplayReport(
        spec,
        [request.query.name for request in requests],
        results,
        gateway_stats,
        wall_seconds,
        baseline_means,
        restore_stats=restore_stats,
    )


def _refuse_damaged(path):
    """Raise if ``path`` holds a snapshot that does not read back.

    A gateway cold-starts over a damaged file and overwrites it on
    shutdown; a one-shot replay refuses it instead, so the damage is
    reported rather than silently replaced.  An absent file is the
    first run's cold start.
    """
    try:
        read_snapshot(path)
    except SnapshotError as error:
        if error.reason != "unreadable":
            raise


def qps_summary(report):
    """Throughput/latency summary of one replay, as a JSON-ready dict.

    ``qps`` is invocations over replay wall time; latency percentiles
    (via :func:`repro.common.stats.percentile`) are over per-request
    service time — optimize + start-up + execution — in microseconds.
    Written by ``serve-batch --qps-report``.
    """
    latencies = sorted(result.total_seconds for result in report.results) or [0.0]
    return {
        "invocations": len(report.results),
        "wall_seconds": report.wall_seconds,
        "qps": (
            len(report.results) / report.wall_seconds
            if report.wall_seconds > 0.0
            else 0.0
        ),
        "hit_rate": report.hit_rate,
        "shards": len(report.gateway_stats.per_shard),
        "latency_us": {
            "p50": 1e6 * percentile(latencies, 0.50),
            "p95": 1e6 * percentile(latencies, 0.95),
            "p99": 1e6 * percentile(latencies, 0.99),
            "mean": 1e6 * sum(latencies) / len(latencies),
        },
        "overload": dict(report.gateway_stats.overload),
        "per_shard_requests": [
            part.requests for part in report.gateway_stats.per_shard
        ],
    }


def write_qps_report(report, path):
    """Write :func:`qps_summary` as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(qps_summary(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(report):
    """The replay report as printable text."""
    stats = report.stats
    # Exact percentiles over the per-request samples, as in qps_summary.
    startups = [result.startup_seconds for result in report.results] or [0.0]
    per_query = {}
    for name, result in zip(report.names, report.results):
        per_query.setdefault(name, []).append(result)
    lines = [
        "serve-batch: %d invocations over %d query shapes"
        % (len(report.results), len(report.spec.shapes)),
        "",
        "  %-24s %6s %6s %7s %12s %12s"
        % ("query", "calls", "hits", "reopt", "startup-mean", "optimize"),
    ]
    for name, results in sorted(per_query.items()):
        lines.append(
            "  %-24s %6d %6d %7d %11.3fms %10.3fms"
            % (
                name,
                len(results),
                sum(result.cache_hit for result in results),
                sum(result.reoptimized for result in results),
                1000.0 * sum(r.startup_seconds for r in results) / len(results),
                1000.0 * report.baseline_means[name],
            )
        )
    lines += [
        "",
        "  cache: %.1f%% hit rate (%d hits / %d lookups), "
        "%d evictions, %d promotions, %d re-optimizations, "
        "%d decision compiles, %d shared compiles"
        % (
            100.0 * stats.hit_rate,
            stats.cache["hits"],
            stats.cache["lookups"],
            stats.cache["evictions"],
            stats.cache["promotions"],
            stats.cache["invalidations"],
            stats.resilience["decision_compiles"],
            stats.resilience["shared_compiles"],
        ),
        "  start-up latency: p50 %.3fms  p95 %.3fms  mean %.3fms"
        % (
            1000.0 * percentile(startups, 0.50),
            1000.0 * percentile(startups, 0.95),
            1000.0 * sum(startups) / len(startups),
        ),
        "  optimize-per-query baseline: %.3fs; service spent %.3fs "
        "-> speedup %.1fx"
        % (report.baseline_seconds, report.service_seconds, report.speedup),
    ]
    rows = sum(result.row_count or 0 for result in report.results)
    if rows:
        lines.append(
            "  executed %d invocations producing %d rows in %.3fs wall"
            % (len(report.results), rows, report.wall_seconds)
        )
    else:
        lines.append("  wall time: %.3fs" % report.wall_seconds)
    gateway = report.gateway_stats
    lines.append(
        "  sharded gateway: %d shards, per-shard requests %s, "
        "%d overload rejections"
        % (
            len(gateway.per_shard),
            [part.requests for part in gateway.per_shard],
            gateway.rejections,
        )
    )
    return "\n".join(lines)
