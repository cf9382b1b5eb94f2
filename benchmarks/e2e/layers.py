"""The traced run: per-layer metrics by staged replay.

The program has no per-stage timing of its own yet, so the benchmark
performs a request's life itself — one public call per layer, each
inside a span — over a prefix of the workload's stream, and replays the
same prefix through the gateway so the two can be compared.  Layers are
named after the modules they live in.
"""

import inspect
import os
import threading
import time

from repro.common.rng import make_rng
from repro.executor import engine
from repro.executor.engine import execute_plan
from repro.executor.midquery import ReoptPolicy, execute_midquery
from repro.executor.startup import activate_plan, resolve_dynamic_plan
from repro.observability.trace import Tracer
from repro.optimizer.optimizer import optimize_dynamic
from repro.optimizer.query import canonical_signature, signature_digest
from repro.service.cache import PlanCache
from repro.service.decision import CompiledDecision, DecisionCompilationError
from repro.service.durability import DurabilityConfig
from repro.service.sharding import ShardedQueryService

from benchmarks.e2e import metrics, spans, stats
from benchmarks.e2e.serve import IO_KEYS, SHARDS, serve
from benchmarks.e2e.workloads import (
    build_fixture,
    first_touches,
    generate_stream,
    materialize,
    sample_requests,
)

#: Requests the single-call microbenchmarks (engines, interpreted
#: start-up, tracer, mid-query overhead) run on.
MICRO_SAMPLE = 40

OPTIMIZER_SUMS = (
    "groups_created",
    "mexprs_total",
    "rule_applications",
    "cost_evaluations",
)


class StagedPipeline:
    """A request's life on the calling thread, one public call per layer.

    Mirrors ``ServiceShard.serve``: signature, route, plan-cache lookup,
    compile on a miss, staleness check (re-optimizing over widened
    bounds), the compiled start-up decision, execution, and recording
    the result — against benchmark-owned caches of the workload's
    capacity, one per shard.
    """

    def __init__(self, spec, fixture, recorder):
        self.fixture = fixture
        self.recorder = recorder
        self.policy = (
            ReoptPolicy.parse(spec.reopt_policy) if spec.reopt_policy else None
        )
        #: Used for ``route`` only; it never serves.
        self.router = ShardedQueryService(
            fixture.database, shards=SHARDS, capacity=spec.capacity
        )
        self.caches = [PlanCache(spec.capacity) for _ in range(SHARDS)]
        #: One ``OptimizationResult`` per optimizer call made.
        self.compilations = []
        self.records_processed = 0

    def _compile(self, entry, query, root, request_id):
        recorder = self.recorder
        catalog = self.fixture.catalog
        handle = recorder.open("optimize", root, request_id)
        result = optimize_dynamic(catalog, query)
        recorder.close(handle)
        handle = recorder.open("decision_compile", root, request_id)
        try:
            decision = CompiledDecision(result.plan, catalog, query.parameter_space)
        except DecisionCompilationError:
            decision = None
        recorder.close(handle)
        entry.install(result.plan, query.parameter_space, decision)
        self.compilations.append(result)

    def serve(self, request, request_id):
        recorder = self.recorder
        query = request.query
        bindings = request.bindings
        root = recorder.open("request", None, request_id)

        handle = recorder.open("signature", root, request_id)
        signature = canonical_signature(query)
        signature_digest(signature)
        recorder.close(handle)

        handle = recorder.open("route", root, request_id)
        _signature, shard = self.router.route(query)
        recorder.close(handle)

        cache = self.caches[shard.index]
        handle = recorder.open("cache_lookup", root, request_id)
        entry, hit = cache.entry_for_signature(signature, query)
        recorder.close(handle)
        if not hit:
            with entry.lock:
                self._compile(entry, entry.query, root, request_id)

        handle = recorder.open("staleness_check", root, request_id)
        stale = entry.check_and_observe(bindings)
        recorder.close(handle)
        if stale:
            with entry.lock:
                self._compile(entry, entry.widened_query(stale), root, request_id)
                entry.reoptimizations += 1
            cache.record_reoptimization()

        plan, parameter_space, decision = entry.snapshot()
        handle = recorder.open("decide", root, request_id)
        if decision is not None:
            chosen, report = decision.choose_memoized(bindings, entry.chosen_memo)
        else:
            chosen, report = activate_plan(
                plan, self.fixture.catalog, parameter_space, bindings, validate=False
            )
        recorder.close(handle)

        database = self.fixture.database
        if self.policy is None:
            handle = recorder.open("execute", root, request_id)
            execution = execute_plan(chosen, database, bindings, parameter_space)
        else:
            handle = recorder.open("execute_midquery", root, request_id)
            execution, _report = execute_midquery(
                plan,
                database,
                bindings,
                parameter_space,
                policy=self.policy,
                choices=report.choices,
            )
        recorder.close(handle)

        handle = recorder.open("digest", root, request_id)
        execution.row_count
        self.records_processed += execution.io_snapshot["records_processed"]
        execution.simulated_seconds()
        recorder.close(handle)
        recorder.close(root)

    def shutdown(self):
        self.router.shutdown()


def staged_replay(spec, fixture, requests, prefix, recorder):
    """Warm (if the workload is warmed), then replay ``prefix``.

    Returns ``(pipeline, first prefix span index, prefix wall seconds)``.
    """
    pipeline = StagedPipeline(spec, fixture, recorder)
    if spec.warmed:
        for number, request in enumerate(first_touches(requests)):
            pipeline.serve(request, "warm-%d" % number)
    mark = len(recorder.spans)
    started = time.perf_counter()
    for request in prefix:
        pipeline.serve(request, request.index)
    wall = time.perf_counter() - started
    pipeline.shutdown()
    return pipeline, mark, wall


def decision_outcome(report):
    """Which alternative each choose-plan picked, as a tuple of indexes.

    ``StartupReport.choice_signature`` is the structural fingerprint,
    but its ``repr`` expands the plan DAG into a tree — minutes per call
    on a 10-way dynamic plan.
    """
    return tuple(
        next(
            (i for i, alternative in enumerate(node.alternatives) if alternative is chosen),
            -1,
        )
        for node, chosen in report.choices
    )


def gateway_replay(spec, fixture, requests, prefix):
    """The same prefix through the gateway: caller's view plus counters."""
    gateway = ShardedQueryService(
        fixture.database, shards=SHARDS, capacity=spec.capacity
    )
    if spec.warmed:
        for request in first_touches(requests):
            serve(gateway, spec, request)
    latencies = []
    residuals = []
    io = dict.fromkeys(IO_KEYS, 0)
    totals = dict.fromkeys(
        ("rows", "cost_evaluations", "choices", "checkpoints", "redecisions", "switches"),
        0,
    )
    outcomes_by_shape = {}
    for request in prefix:
        before = time.perf_counter()
        result = serve(gateway, spec, request)
        latency = time.perf_counter() - before
        execution = result.execution
        latencies.append(latency)
        residuals.append(
            latency
            - result.optimize_seconds
            - result.startup_seconds
            - execution.elapsed_seconds
        )
        for key in IO_KEYS:
            io[key] += execution.io_snapshot[key]
        report = result.startup_report
        totals["rows"] += execution.row_count
        totals["cost_evaluations"] += report.cost_evaluations
        totals["choices"] += report.decisions
        midquery = getattr(execution, "midquery", None)
        if midquery is not None:
            totals["checkpoints"] += midquery.checkpoints
            totals["redecisions"] += midquery.redecisions
            totals["switches"] += midquery.switches
        outcomes_by_shape.setdefault(request.shape, set()).add(
            decision_outcome(report)
        )
    return gateway, latencies, residuals, io, totals, outcomes_by_shape


def measure_concurrency(spec, fixture, prefix):
    """run() vs submit().result() with one client, and two run() clients."""
    gateway = ShardedQueryService(
        fixture.database, shards=SHARDS, capacity=spec.capacity
    )
    for request in prefix:  # every pass below starts from a served-once cache
        serve(gateway, spec, request)
    extra = {"reopt_policy": spec.reopt_policy} if spec.reopt_policy else {}

    def run_seconds(request):
        before = time.perf_counter()
        serve(gateway, spec, request)
        return time.perf_counter() - before

    def submit_seconds(request):
        before = time.perf_counter()
        gateway.submit(
            request.query, request.bindings, tag=request.tag, tenant=request.tenant, **extra
        ).result()
        return time.perf_counter() - before

    # Paired per request, alternating which call goes first, so cache
    # state and warmth cancel instead of favouring one side.
    overheads = []
    for number, request in enumerate(prefix):
        if number % 2:
            submitted, ran = submit_seconds(request), run_seconds(request)
        else:
            ran, submitted = run_seconds(request), submit_seconds(request)
        overheads.append(submitted - ran)

    def client(share):
        for request in share:
            serve(gateway, spec, request)

    threads = [
        threading.Thread(target=client, args=(prefix[offset::2],)) for offset in (0, 1)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    two_client_wall = time.perf_counter() - started
    gateway.shutdown()
    return {
        "sharding.submit_overhead_us": 1e6 * stats.median(overheads),
        "sharding.two_client_rps": len(prefix) / two_client_wall,
    }


def measure_durability(spec, fixture, gateway, prefix, snapshot_path):
    """Snapshot the replayed gateway, restore a fresh one, touch it."""
    started = time.perf_counter()
    gateway.save_snapshot(snapshot_path)
    write_seconds = time.perf_counter() - started
    size = os.path.getsize(snapshot_path)
    started = time.perf_counter()
    restored = ShardedQueryService(
        fixture.database,
        shards=SHARDS,
        capacity=spec.capacity,
        durability=DurabilityConfig(snapshot_path, snapshot_on_shutdown=False),
    )
    restore_seconds = time.perf_counter() - started
    cached = {
        entry.digest
        for shard in restored.shards
        for entry in shard.service.cache.entries()
    }
    touches = []
    for request in first_touches(prefix):
        if request.query.signature() in cached:
            before = time.perf_counter()
            serve(restored, spec, request)
            touches.append(time.perf_counter() - before)
    restore_stats = restored.restore_stats
    restored.shutdown()
    os.remove(snapshot_path)
    return {
        "durability.snapshot_write_ms": 1e3 * write_seconds,
        "durability.snapshot_bytes": size,
        "durability.restore_ms": 1e3 * restore_seconds,
        "durability.restored_entries": restore_stats.restored if restore_stats else 0,
        "durability.restored_first_touch_p50_ms": (
            1e3 * stats.median(touches) if touches else 0.0
        ),
    }, len(touches)


def measure_calls(spec, fixture, prefix, seed, notes):
    """Single public calls on a sample: engines, start-up, tracer, midquery."""
    catalog = fixture.catalog
    database = fixture.database
    offset = make_rng(seed, "e2e", "micro").random()
    sample = sample_requests(prefix, MICRO_SAMPLE, offset)
    compiled = {}
    for request in sample:
        if request.shape not in compiled:
            plan = optimize_dynamic(catalog, request.query).plan
            compiled[request.shape] = (
                plan,
                CompiledDecision(plan, catalog, request.query.parameter_space),
            )

    def timed(call, results=None):
        before = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - before
        if results is not None:
            results.append(result)
        return elapsed

    plain = []
    switched = []
    resolve_seconds = []
    default_seconds = []
    traced_seconds = []
    midquery_seconds = []
    chosen_plans = []
    policy = ReoptPolicy.parse("auto")
    for request in sample:
        plan, decision = compiled[request.shape]
        space = request.query.parameter_space
        bindings = request.bindings
        resolve_seconds.append(
            timed(lambda: resolve_dynamic_plan(plan, catalog, space, bindings))
        )
        chosen, report = decision.choose(bindings)
        chosen_plans.append(chosen)
        default_seconds.append(
            timed(lambda: execute_plan(chosen, database, bindings, space), plain)
        )
        traced_seconds.append(
            timed(
                lambda: execute_plan(chosen, database, bindings, space, tracer=Tracer())
            )
        )
        midquery_seconds.append(
            timed(
                lambda: execute_midquery(
                    plan, database, bindings, space, policy=policy, choices=report.choices
                ),
                switched,
            )
        )

    values = {
        "startup.resolve_us": 1e6 * stats.median(resolve_seconds),
        "executor.exec_us": 1e6 * stats.median(default_seconds),
        "observability.tracer_overhead_ratio": sum(traced_seconds) / sum(default_seconds),
        "midquery.overhead_ratio": sum(midquery_seconds) / sum(default_seconds),
        "midquery.sim_cost_ratio": sum(
            execution.simulated_seconds() for execution, _report in switched
        )
        / sum(execution.simulated_seconds() for execution in plain),
    }

    has_mode = "execution_mode" in inspect.signature(execute_plan).parameters
    modes = getattr(engine, "EXECUTION_MODES", ())
    for mode in ("row", "batch", "compiled"):
        name = "executor.%s.exec_us" % mode
        if not has_mode or mode not in modes:
            values[name] = 0.0
            notes[name] = "engine %r is not in EXECUTION_MODES; reported as 0" % mode
            continue
        programs = {}
        if mode == "compiled":
            # One program per plan-cache entry, reused across requests,
            # as the service does; a fresh program per call re-generates
            # code every time.
            from repro.executor.compiled import CompiledPlanProgram

            programs = {
                shape: CompiledPlanProgram().precompile(plan)
                for shape, (plan, _decision) in compiled.items()
            }
        seconds = []
        for request, chosen in zip(sample, chosen_plans):
            extra = {"compiled_program": programs[request.shape]} if programs else {}
            seconds.append(
                timed(
                    lambda: execute_plan(
                        chosen,
                        database,
                        request.bindings,
                        request.query.parameter_space,
                        execution_mode=mode,
                        **extra,
                    )
                )
            )
        values[name] = 1e6 * stats.median(seconds)
    return values


def run_traced(spec, seed, trace_path):
    """One workload's per-layer metrics; writes the span file."""
    notes = {}
    fixture = build_fixture(spec)
    requests = materialize(fixture, generate_stream(spec, seed))
    prefix = requests[: spec.trace_prefix]
    count = len(prefix)

    gateway, latencies, residuals, io, totals, outcomes_by_shape = gateway_replay(
        spec, fixture, requests, prefix
    )
    gateway_stats = gateway.stats()
    outcomes = gateway.request_outcomes()
    durability, restored_touches = measure_durability(
        spec, fixture, gateway, prefix, str(trace_path) + ".snapshot"
    )
    gateway.shutdown()

    _pipeline, _mark, untraced_wall = staged_replay(
        spec, fixture, requests, prefix, spans.NullRecorder()
    )
    recorder = spans.SpanRecorder()
    pipeline, mark, traced_wall = staged_replay(
        spec, fixture, requests, prefix, recorder
    )
    all_spans = recorder.spans
    busy = spans.busy_by_name(all_spans, mark)
    durations = spans.durations_by_name(all_spans)
    prefix_durations = spans.durations_by_name(all_spans[mark:])
    request_seconds = sum(prefix_durations["request"])
    total_busy = sum(busy.values())

    def median_us(name, source=prefix_durations):
        return 1e6 * stats.median(source[name]) if source.get(name) else 0.0

    values = {}
    # repro.optimizer
    compilations = pipeline.compilations
    statistics = [result.statistics for result in compilations]
    candidates = sum(s.candidates_considered for s in statistics)
    pruned = sum(
        s.pruned_by_bound + s.pruned_by_dominance + s.pruned_by_multipoint
        for s in statistics
    )
    values["optimizer.signature_us"] = median_us("signature")
    values["optimizer.compile_ms"] = 1e-3 * median_us("optimize", durations)
    # Not ``optimize_count``: that counts requests that optimized, and a
    # request that misses *and* drifts past the bounds optimizes twice.
    values["optimizer.compiles"] = (
        gateway_stats.total.cache["misses"] + gateway_stats.total.cache["invalidations"]
    )
    values["optimizer.busy_s"] = busy.get("optimize", 0.0)
    for field in OPTIMIZER_SUMS:
        values["optimizer.%s" % field] = sum(getattr(s, field) for s in statistics)
    values["optimizer.pruned_share"] = pruned / candidates if candidates else 0.0
    values["optimizer.plan_nodes"] = sum(r.node_count() for r in compilations)
    values["optimizer.choose_plan_nodes"] = sum(
        r.choose_plan_count() for r in compilations
    )
    # repro.service.sharding
    values["sharding.route_us"] = median_us("route")
    values["sharding.hot_shard_share"] = (
        max(part.requests for part in gateway_stats.per_shard) / gateway_stats.requests
    )
    values["sharding.rejected"] = gateway_stats.rejections
    values.update(measure_concurrency(spec, fixture, prefix))
    # repro.service.cache
    values["cache.lookup_us"] = median_us("cache_lookup")
    values["cache.hit_rate"] = gateway_stats.hit_rate
    values["cache.misses"] = gateway_stats.total.cache["misses"]
    values["cache.evictions"] = gateway_stats.total.cache["evictions"]
    values["cache.reoptimizations"] = gateway_stats.total.cache["invalidations"]
    # repro.service.decision / repro.executor.startup
    values["decision.compile_ms"] = 1e-3 * median_us("decision_compile", durations)
    values["decision.choose_us"] = median_us("decide")
    values["decision.busy_s"] = busy.get("decide", 0.0) + busy.get("decision_compile", 0.0)
    values["decision.cost_evaluations_per_req"] = totals["cost_evaluations"] / count
    values["decision.choices_per_req"] = totals["choices"] / count
    values["decision.flips_per_shape"] = sum(
        len(found) for found in outcomes_by_shape.values()
    ) / len(outcomes_by_shape)
    # repro.executor, repro.executor.midquery, repro.observability
    executor_busy = busy.get("execute", 0.0) + busy.get("execute_midquery", 0.0)
    values["executor.busy_s"] = busy.get("execute", 0.0)
    values["executor.records_per_s"] = pipeline.records_processed / executor_busy
    values["executor.rows_per_req"] = totals["rows"] / count
    values["midquery.busy_s"] = busy.get("execute_midquery", 0.0)
    values["midquery.exec_us"] = median_us("execute_midquery")
    for counter in ("checkpoints", "redecisions", "switches"):
        values["midquery.%s_per_req" % counter] = totals[counter] / count
    values.update(measure_calls(spec, fixture, prefix, seed, notes))
    # repro.storage
    values["storage.pages_read_per_req"] = io["pages_read"] / count
    values["storage.pages_written_per_req"] = io["pages_written"] / count
    values["storage.records_per_req"] = io["records_processed"] / count
    values["storage.index_probes_per_req"] = io["index_probes"] / count
    values["storage.populate_s"] = fixture.populate_seconds
    # repro.service.durability
    values.update(durability)
    # repro.service: what the pipeline adds around the layers it calls
    values["service.pipeline_residual_us"] = 1e6 * stats.median(residuals)
    values["service.pipeline_residual_share"] = sum(residuals) / sum(latencies)
    values["service.staged_vs_gateway_ratio"] = request_seconds / sum(latencies)
    # where a staged request's time goes
    values["staged.coverage"] = request_seconds / traced_wall
    for stage in metrics.STAGES + ("request",):
        values["share.%s" % stage] = busy.get(stage, 0.0) / total_busy
    values["trace.overhead_ratio"] = traced_wall / untraced_wall

    spans.write_trace(
        trace_path,
        all_spans,
        {
            "workload": spec.name,
            "seed": seed,
            "prefix_requests": count,
            "first_prefix_span": mark,
        },
    )

    problems = []
    if outcomes["failed"] or outcomes["rejected"] or outcomes["failed_over"]:
        problems.append("requests failed, rejected or failed over: %r" % (outcomes,))
    missing = [name for name, _unit, _better in metrics.PER_LAYER if name not in values]
    if missing:
        problems.append("per-layer metrics not measured: %s" % ", ".join(missing))
    ordered = {name: float(values[name]) for name, _unit, _better in metrics.PER_LAYER}
    samples = dict.fromkeys(ordered, count)
    for name in ordered:
        if name.startswith(("executor.row.", "executor.batch.", "executor.compiled.")):
            samples[name] = MICRO_SAMPLE
    for name in (
        "startup.resolve_us",
        "executor.exec_us",
        "observability.tracer_overhead_ratio",
        "midquery.overhead_ratio",
        "midquery.sim_cost_ratio",
    ):
        samples[name] = MICRO_SAMPLE
    for name in ("optimizer.compile_ms", "decision.compile_ms"):
        samples[name] = len(compilations)
    samples["durability.restored_first_touch_p50_ms"] = restored_touches
    return {
        "attempted": count,
        "failed": len(problems),
        "problems": problems,
        "values": ordered,
        "samples": samples,
        "facts": {
            "prefix_requests": count,
            "spans": len(all_spans),
            "trace_file": str(trace_path),
            "staged_wall_s": traced_wall,
            "staged_untraced_wall_s": untraced_wall,
            "gateway_latency_sum_s": sum(latencies),
            "busy_s": busy,
            "notes": notes,
        },
    }
