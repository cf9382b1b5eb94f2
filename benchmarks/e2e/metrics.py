"""Names, units, directions and bounds of every metric the command emits.

``BENCHMARK.json`` at the repository root repeats these; the schema
test in ``tests/`` keeps the two equal.
"""

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("throughput_rps", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("sim_cost_s_per_req", "s", "lower", 0.01),
    ("plan_regret_ratio", "ratio", "lower", 0.01),
    ("cold_first_touch_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: (name, unit, better).  Grouped by the module (layer) they describe.
PER_LAYER = (
    # repro.optimizer
    ("optimizer.signature_us", "us", "lower"),
    ("optimizer.compile_ms", "ms", "lower"),
    ("optimizer.compiles", "count", "lower"),
    ("optimizer.busy_s", "s", "lower"),
    ("optimizer.groups_created", "count", "lower"),
    ("optimizer.mexprs_total", "count", "lower"),
    ("optimizer.rule_applications", "count", "lower"),
    ("optimizer.cost_evaluations", "count", "lower"),
    ("optimizer.pruned_share", "ratio", "higher"),
    ("optimizer.plan_nodes", "count", "lower"),
    ("optimizer.choose_plan_nodes", "count", "lower"),
    # repro.service.sharding
    ("sharding.route_us", "us", "lower"),
    ("sharding.hot_shard_share", "ratio", "lower"),
    ("sharding.rejected", "count", "lower"),
    ("sharding.submit_overhead_us", "us", "lower"),
    ("sharding.two_client_rps", "1/s", "higher"),
    # repro.service.cache
    ("cache.lookup_us", "us", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.reoptimizations", "count", "lower"),
    # repro.service.decision / repro.executor.startup
    ("decision.compile_ms", "ms", "lower"),
    ("decision.choose_us", "us", "lower"),
    ("startup.resolve_us", "us", "lower"),
    ("decision.busy_s", "s", "lower"),
    ("decision.cost_evaluations_per_req", "count", "lower"),
    ("decision.choices_per_req", "count", "lower"),
    ("decision.flips_per_shape", "count", "higher"),
    # repro.executor
    ("executor.busy_s", "s", "lower"),
    ("executor.exec_us", "us", "lower"),
    ("executor.records_per_s", "1/s", "higher"),
    ("executor.rows_per_req", "count", "higher"),
    ("executor.row.exec_us", "us", "lower"),
    ("executor.batch.exec_us", "us", "lower"),
    ("executor.compiled.exec_us", "us", "lower"),
    # repro.executor.midquery
    ("midquery.busy_s", "s", "lower"),
    ("midquery.exec_us", "us", "lower"),
    ("midquery.checkpoints_per_req", "count", "lower"),
    ("midquery.redecisions_per_req", "count", "lower"),
    ("midquery.switches_per_req", "count", "lower"),
    ("midquery.overhead_ratio", "ratio", "lower"),
    ("midquery.sim_cost_ratio", "ratio", "lower"),
    # repro.storage
    ("storage.pages_read_per_req", "count", "lower"),
    ("storage.pages_written_per_req", "count", "lower"),
    ("storage.records_per_req", "count", "lower"),
    ("storage.index_probes_per_req", "count", "lower"),
    ("storage.populate_s", "s", "lower"),
    # repro.service.durability
    ("durability.snapshot_write_ms", "ms", "lower"),
    ("durability.snapshot_bytes", "count", "lower"),
    ("durability.restore_ms", "ms", "lower"),
    ("durability.restored_entries", "count", "higher"),
    ("durability.restored_first_touch_p50_ms", "ms", "lower"),
    # repro.service: the request pipeline around the layers above
    ("service.pipeline_residual_us", "us", "lower"),
    ("service.pipeline_residual_share", "ratio", "lower"),
    ("service.staged_vs_gateway_ratio", "ratio", "lower"),
    # staged replay: where a request's time goes, as shares of the total
    ("staged.coverage", "ratio", "higher"),
    ("share.signature", "ratio", "lower"),
    ("share.route", "ratio", "lower"),
    ("share.cache_lookup", "ratio", "lower"),
    ("share.staleness_check", "ratio", "lower"),
    ("share.optimize", "ratio", "lower"),
    ("share.decision_compile", "ratio", "lower"),
    ("share.decide", "ratio", "lower"),
    ("share.execute", "ratio", "lower"),
    ("share.execute_midquery", "ratio", "lower"),
    ("share.digest", "ratio", "lower"),
    ("share.request", "ratio", "lower"),
    # repro.observability, and the benchmark's own tracing
    ("observability.tracer_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Metrics whose value is a count that must repeat exactly for one seed
#: (``selfcheck`` compares them to the last digit).
EXACT = (
    "sim_cost_s_per_req",
    "plan_regret_ratio",
    "optimizer.compiles",
    "cache.hit_rate",
    "cache.misses",
    "midquery.switches_per_req",
    "storage.pages_read_per_req",
    "storage.pages_written_per_req",
    "storage.records_per_req",
    "storage.index_probes_per_req",
)

#: Span names of the staged replay, in the order a request meets them.
STAGES = (
    "signature",
    "route",
    "cache_lookup",
    "staleness_check",
    "optimize",
    "decision_compile",
    "decide",
    "execute",
    "execute_midquery",
    "digest",
)


def end_to_end_units():
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def end_to_end_bounds():
    return {name: bound for name, _unit, _better, bound in END_TO_END}


def per_layer_units():
    return {name: unit for name, unit, _better in PER_LAYER}
