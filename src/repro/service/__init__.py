"""Long-lived query service: plan caching and concurrent start-up.

The paper's embedded-SQL scenario optimizes a query **once** and then
executes it many times with different parameter bindings, paying only
the cheap choose-plan start-up decision per invocation.  This package
turns that amortization argument into a running subsystem:

* :mod:`.cache` — an LRU cache of optimized dynamic plans keyed by the
  canonical query signature, with per-entry hit statistics, observed
  binding ranges, and staleness-driven re-optimization;
* :mod:`.sharding` — :class:`ShardedQueryService`, the one serving
  front end (``run`` / ``submit`` / ``run_batch``): a gateway over N
  shards that partition the plan cache by signature hash, with bounded
  admission queues, per-tenant quotas, and exactly aggregated
  statistics; ``shards=1`` is a single-partition deployment;
* :mod:`.service` — :class:`QueryService`, the partition core each
  shard routes to: repeated queries skip optimization entirely and go
  straight to the start-up decision procedure under fresh bindings;
* :mod:`.supervision` — :class:`ShardSupervisor`, health-checking the
  gateway's shard workers (progress heartbeats, hang detection) and
  restarting dead ones while the gateway fails affected requests over
  to siblings — typed and counted, never silently dropped;
* :mod:`.durability` — versioned, checksummed plan-cache snapshots
  with atomic write-rename and warm restore, so a restarted tier
  serves its hot set without re-optimizing it;
* :mod:`.replay` — a workload replayer behind the
  ``python -m repro serve-batch`` CLI, reporting hit rate, start-up
  latency percentiles, and speedup versus optimize-per-query.
"""

from repro.service.cache import CacheStatistics, PlanCache, PlanCacheEntry
from repro.executor.decision import CompiledDecision, DecisionCompilationError
from repro.service.durability import (
    DurabilityConfig,
    RestoreStats,
    build_snapshot,
    read_snapshot,
    restore_gateway,
    write_snapshot,
)
from repro.service.replay import ReplayReport, render_report, replay_spec
from repro.service.service import (
    QueryService,
    ServiceRequest,
    ServiceResult,
    ServiceStatistics,
)
from repro.service.sharding import (
    ServiceShard,
    ShardedQueryService,
    ShardedServiceStatistics,
    shard_index_for,
)
from repro.service.supervision import SHARD_STATES, ShardSupervisor

__all__ = [
    "CacheStatistics",
    "CompiledDecision",
    "DecisionCompilationError",
    "DurabilityConfig",
    "PlanCache",
    "PlanCacheEntry",
    "QueryService",
    "ReplayReport",
    "RestoreStats",
    "SHARD_STATES",
    "ServiceRequest",
    "ServiceResult",
    "ServiceShard",
    "ServiceStatistics",
    "ShardSupervisor",
    "ShardedQueryService",
    "ShardedServiceStatistics",
    "build_snapshot",
    "read_snapshot",
    "render_report",
    "replay_spec",
    "restore_gateway",
    "shard_index_for",
    "write_snapshot",
]
