"""Workload replay through the serving gateway.

Implements the ``python -m repro serve-batch`` CLI: materialize a
:class:`~repro.workloads.service.ServiceWorkloadSpec`, push its full
invocation sequence through a
:class:`~repro.service.sharding.ShardedQueryService` of ``spec.shards``
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
from repro.service.service import ServiceRequest
from repro.service.sharding import ShardedQueryService
from repro.storage.database import Database
from repro.workloads.service import generate_service_requests


class ReplayReport:
    """Everything one replay produced, ready for rendering."""

    def __init__(
        self,
        spec,
        results,
        gateway_stats,
        wall_seconds,
        baseline_means,
        per_query,
        restore_stats=None,
    ):
        self.spec = spec
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
        #: query name -> dict of per-query counters.
        self.per_query = per_query
        self.service_seconds = sum(
            result.optimize_seconds + result.startup_seconds for result in results
        )
        self.baseline_seconds = sum(baseline_means[result.tag] for result in results)
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

    @property
    def rows_total(self):
        """Total rows produced (0 when execution was disabled)."""
        return sum(result.row_count or 0 for result in self.results)

    def __repr__(self):
        return "ReplayReport(%d invocations, hit_rate=%.2f, speedup=%.1fx)" % (
            len(self.results),
            self.hit_rate,
            self.speedup,
        )


def replay_spec(
    spec,
    execute=None,
    baseline_samples=2,
    optimize=None,
    snapshot=None,
):
    """Replay a service workload spec; returns a :class:`ReplayReport`.

    ``execute`` overrides the spec's execute flag (useful for latency-
    only smoke runs); ``optimize`` overrides the optimizer entry point
    for both the service and the baseline measurement.  ``snapshot``
    names a plan-cache snapshot file: the replay warm-starts from it
    when it exists and (re)writes it on shutdown, so repeated replays
    skip re-optimizing the hot set.  A damaged snapshot raises its
    :class:`~repro.common.errors.SnapshotError` before anything is
    served or overwritten.
    """
    if optimize is None:
        from repro.optimizer.optimizer import optimize_dynamic

        optimize = optimize_dynamic
    workloads, requests = generate_service_requests(spec)
    catalog = workloads[0].catalog
    database = Database(catalog)
    do_execute = spec.execute if execute is None else execute
    if do_execute:
        populate_database(database, seed=spec.seed)

    service_requests = [
        ServiceRequest(workload.query, bindings, tag=workload.query.name)
        for workload, bindings in requests
    ]
    if snapshot is not None:
        _refuse_damaged(snapshot)
    with ShardedQueryService(
        database,
        shards=spec.shards,
        capacity=spec.capacity,
        optimize=optimize,
        execute=do_execute,
        durability=snapshot,
    ) as gateway:
        restore_stats = gateway.restore_stats
        started = time.perf_counter()
        results = gateway.run_batch(service_requests)
        wall_seconds = time.perf_counter() - started
        gateway_stats = gateway.stats()

    baseline_means = {}
    for workload in workloads:
        samples = []
        for _ in range(max(1, baseline_samples)):
            sample_started = time.perf_counter()
            optimize(catalog, workload.query)
            samples.append(time.perf_counter() - sample_started)
        baseline_means[workload.query.name] = sum(samples) / len(samples)

    per_query = {}
    for result in results:
        counters = per_query.setdefault(
            result.tag,
            {"invocations": 0, "hits": 0, "reoptimizations": 0, "startup": 0.0},
        )
        counters["invocations"] += 1
        counters["hits"] += 1 if result.cache_hit else 0
        counters["reoptimizations"] += 1 if result.reoptimized else 0
        counters["startup"] += result.startup_seconds
    return ReplayReport(
        spec,
        results,
        gateway_stats,
        wall_seconds,
        baseline_means,
        per_query,
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
    latencies = sorted(result.total_seconds for result in report.results)
    return {
        "invocations": len(report.results),
        "wall_seconds": report.wall_seconds,
        "qps": (
            len(report.results) / report.wall_seconds
            if report.wall_seconds > 0.0
            else 0.0
        ),
        "hit_rate": report.hit_rate,
        "shards": report.spec.shards,
        "latency_us": {
            "p50": 1e6 * percentile(latencies, 0.50) if latencies else 0.0,
            "p95": 1e6 * percentile(latencies, 0.95) if latencies else 0.0,
            "p99": 1e6 * percentile(latencies, 0.99) if latencies else 0.0,
            "mean": (
                1e6 * sum(latencies) / len(latencies) if latencies else 0.0
            ),
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
    lines = []
    lines.append(
        "serve-batch: %d invocations over %d query shapes"
        % (len(report.results), len(report.spec.queries))
    )
    lines.append("")
    lines.append(
        "  %-24s %6s %6s %7s %12s %12s"
        % ("query", "calls", "hits", "reopt", "startup-mean", "optimize")
    )
    for name in sorted(report.per_query):
        counters = report.per_query[name]
        lines.append(
            "  %-24s %6d %6d %7d %11.3fms %10.3fms"
            % (
                name,
                counters["invocations"],
                counters["hits"],
                counters["reoptimizations"],
                1000.0 * counters["startup"] / counters["invocations"],
                1000.0 * report.baseline_means[name],
            )
        )
    lines.append("")
    lines.append(
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
        )
    )
    lines.append(
        "  start-up latency: p50 %.3fms  p95 %.3fms  mean %.3fms"
        % (
            1000.0 * stats.startup_p50,
            1000.0 * stats.startup_p95,
            1000.0 * stats.startup_mean,
        )
    )
    lines.append(
        "  optimize-per-query baseline: %.3fs; service spent %.3fs "
        "-> speedup %.1fx"
        % (report.baseline_seconds, report.service_seconds, report.speedup)
    )
    if report.rows_total:
        lines.append(
            "  executed %d invocations producing %d rows in %.3fs wall"
            % (len(report.results), report.rows_total, report.wall_seconds)
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
