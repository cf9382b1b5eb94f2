"""The untraced run: what a caller of the gateway sees, end to end.

Closed loop, one client: the calling thread sends the next request when
the previous one has returned.  The ``--seconds`` of a run are split
into ``SEGMENTS`` equal parts; each part sets everything up from nothing
(timed: ``setup_s`` and the first touches) and then replays the stream
pass after pass, so set-ups are spread over the run instead of sharing
one moment of the sandbox's mood.  Correctness checks run afterwards,
untimed.
"""

import gc
import resource
import time
import types

from repro.common.rng import make_rng
from repro.executor.engine import execute_plan
from repro.optimizer.optimizer import optimize_runtime
from repro.resilience.chaos import rows_digest
from repro.service.sharding import ShardedQueryService
from tests._reference import reference_rows

from benchmarks.e2e import stats
from benchmarks.e2e.calibration import BlockRecorder, calibrated_samples
from benchmarks.e2e.workloads import (
    build_fixture,
    first_touches,
    generate_stream,
    materialize,
    sample_requests,
    stream_digest,
)

#: The deployment every workload serves through.
SHARDS = 2

#: Set-ups per run, each followed by its share of the timed window;
#: ``setup_s`` is their median.
SEGMENTS = 5

#: Wall seconds between segments that may go to warming further fresh
#: gateways: a warm-up of milliseconds is timed many times, because the
#: shorter it is the more the sandbox's bursts move it.
TOUCH_BUDGET_SECONDS = 0.25

#: Requests checked against the reference evaluator / the hindsight
#: optimizer after the timed window.
ORACLE_SAMPLE = 32
REGRET_SAMPLE = 64

IO_KEYS = ("pages_read", "pages_written", "records_processed", "index_probes")
OUTCOME_KEYS = ("submitted", "completed", "failed_over", "failed", "rejected")


class Environment:
    """One complete set-up: data, requests, a gateway ready to serve.

    ``touches`` receives the caller-side latency of each shape's first
    request on the fresh gateway (compile + decide + execute), keyed by
    shape; its probes also give this set-up's slowdown.
    """

    def __init__(self, spec, seed, touches):
        touches.close_block()
        first_probe = len(touches.probes) - 1
        started = time.perf_counter()
        self.spec = spec
        self.fixture = build_fixture(spec)
        self.stream = generate_stream(spec, seed)
        self.requests = materialize(self.fixture, self.stream)
        self.gateway = self.new_gateway()
        warming = time.perf_counter()
        if spec.warmed:
            self.warm(self.gateway, touches)
        ended = time.perf_counter()
        self.warm_seconds = ended - warming
        self.setup_seconds = (ended - started) / stats.median(
            touches.probes[first_probe:]
        )

    def warm(self, gateway, touches):
        """Serve every shape's first request, timing each into ``touches``."""
        for request in first_touches(self.requests):
            before = time.perf_counter()
            serve(gateway, self.spec, request)
            after = time.perf_counter()
            touches.record(request.shape, after - before, after)
        touches.close_block()

    def new_gateway(self):
        return ShardedQueryService(
            self.fixture.database, shards=SHARDS, capacity=self.spec.capacity
        )


def serve(gateway, spec, request):
    """One request through the gateway, exactly as a caller sends it."""
    if spec.reopt_policy is None:
        return gateway.run(
            request.query, request.bindings, tag=request.tag, tenant=request.tenant
        )
    return gateway.run(
        request.query,
        request.bindings,
        tag=request.tag,
        tenant=request.tenant,
        reopt_policy=spec.reopt_policy,
    )


class Window:
    """What the timed window recorded."""

    def __init__(self):
        #: Caller-side latency samples keyed by stream position.
        self.recorder = BlockRecorder()
        #: First-touch latency samples keyed by shape (warmed workloads).
        self.touches = BlockRecorder()
        self.setup_seconds = []
        self.failures = []
        #: Total rows of each complete pass (must all be equal).
        self.pass_rows = []
        #: Exact counts, from the first pass only.
        self.first_pass_io = dict.fromkeys(IO_KEYS, 0)
        self.first_pass_simulated_seconds = 0.0
        #: Peak resident KiB when the first pass ended: later passes add
        #: only the benchmark's own samples, more of them on a faster day.
        self.first_pass_peak_rss_kib = 0
        #: Terminal outcomes summed over every gateway the window used.
        self.outcomes = dict.fromkeys(OUTCOME_KEYS, 0)
        self.wall_seconds = 0.0

    def retire(self, gateway):
        """Fold a gateway's terminal outcomes in and shut it down."""
        outcomes = gateway.request_outcomes()
        for key in OUTCOME_KEYS:
            self.outcomes[key] += outcomes[key]
        gateway.shutdown()


def replay(environment, window, until, cut):
    """Replay the stream pass after pass until the clock reads ``until``.

    Every pass starts from the same program state — a warmed workload's
    cache does not change once warm; an unwarmed one gets a fresh gateway
    per pass — so one stream position is the same request under the same
    conditions in every pass, and its latency is the median of its
    passes (see ``calibration``).  A pass that is running at ``until`` is
    finished unless ``cut``; the run's first pass is always finished, for
    the exact counts.  Results are dropped once their latency, rows, I/O
    account and simulated cost are recorded.
    """
    spec = environment.spec
    requests = environment.requests
    recorder = window.recorder
    first_io = window.first_pass_io
    clock = time.perf_counter
    fresh = True
    while not window.pass_rows or clock() < until:
        first = not window.pass_rows
        if not fresh and not spec.warmed:
            window.retire(environment.gateway)
            environment.gateway = environment.new_gateway()
        fresh = False
        gateway = environment.gateway
        rows = 0
        for position, request in enumerate(requests):
            before = clock()
            try:
                result = serve(gateway, spec, request)
            except Exception as error:  # noqa: BLE001 — counted, reported
                window.failures.append("%s: %r" % (request.tag, error))
                continue
            after = clock()
            recorder.record(position, after - before, after)
            execution = result.execution
            rows += execution.row_count
            if first:
                snapshot = execution.io_snapshot
                for key in IO_KEYS:
                    first_io[key] += snapshot[key]
                window.first_pass_simulated_seconds += execution.simulated_seconds()
            elif cut and after >= until:
                recorder.close_block()
                return
        recorder.close_block()
        window.pass_rows.append(rows)
        if first:
            window.first_pass_peak_rss_kib = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss


def timed_window(spec, seed, seconds):
    """``SEGMENTS`` x (set up, replay); returns the window and the last
    environment, its gateway still serving."""
    window = Window()
    started = time.perf_counter()
    environment = None
    for segment in range(1, SEGMENTS + 1):
        if environment is not None:
            if time.perf_counter() >= started + seconds:
                break
            if spec.warmed:
                # After the replay, not before it: the first pass's peak
                # RSS must not depend on how many rounds the budget buys.
                for _ in range(int(TOUCH_BUDGET_SECONDS / environment.warm_seconds)):
                    gateway = environment.new_gateway()
                    environment.warm(gateway, window.touches)
                    window.retire(gateway)
            window.retire(environment.gateway)
            environment = None  # released before the next one is built
        environment = Environment(spec, seed, window.touches)
        window.setup_seconds.append(environment.setup_seconds)
        # Set-up garbage is collected before serving, not during it.
        gc.collect()
        window.recorder.close_block()
        replay(
            environment,
            window,
            until=started + seconds * segment / SEGMENTS,
            cut=segment == SEGMENTS,
        )
    window.wall_seconds = time.perf_counter() - started
    return window, environment


def check_oracle(gateway, spec, fixture, requests, seed):
    """Served rows against the reference evaluator; returns mismatches."""
    mismatches = []
    offset = make_rng(seed, "e2e", "oracle").random()
    for request in sample_requests(requests, ORACLE_SAMPLE, offset, cover_shapes=True):
        served = serve(gateway, spec, request).execution.records
        expected = reference_rows(
            types.SimpleNamespace(query=request.query),
            fixture.database,
            request.bindings,
        )
        if rows_digest(served) != rows_digest(expected):
            mismatches.append(
                "%s: served %d rows, reference %d"
                % (request.tag, len(served), len(expected))
            )
    return mismatches


def plan_regret(gateway, spec, fixture, requests):
    """Σ simulated cost served / Σ simulated cost of hindsight plans.

    The hindsight plan is ``optimize_runtime`` given the selectivities
    the data really has, executed on the same data (g_i / d_i).  The
    sample takes the same strata of every shape whatever the seed, so
    the ratio moves between seeds only by the jitter inside a stratum.
    """
    served_cost = 0.0
    hindsight_cost = 0.0
    for request in sample_requests(requests, REGRET_SAMPLE, 0.5):
        served_cost += serve(gateway, spec, request).execution.simulated_seconds()
        hindsight = optimize_runtime(
            fixture.catalog, request.query, request.true_bindings
        )
        hindsight_cost += execute_plan(
            hindsight.plan,
            fixture.database,
            request.true_bindings,
            request.query.parameter_space,
        ).simulated_seconds()
    return served_cost / hindsight_cost


def run_untraced(spec, seed, seconds):
    """One workload's end-to-end metrics plus the checks' verdict."""
    window, environment = timed_window(spec, seed, seconds)
    setup_seconds = window.setup_seconds
    gateway = environment.gateway
    requests = environment.requests
    stream_length = len(requests)
    by_position = calibrated_samples(window.recorder.blocks)
    samples = sum(map(len, by_position.values()))
    problems = list(window.failures)
    latencies = [stats.median(seconds) for seconds in by_position.values()]
    if len(latencies) < stream_length:
        problems.append(
            "%d of %d stream positions never completed"
            % (stream_length - len(by_position), stream_length)
        )
    if spec.warmed:
        by_shape = calibrated_samples(window.touches.blocks)
    else:
        # Every pass starts cold, so a shape's first request in the
        # stream is a first touch in every pass.
        by_shape = {
            request.shape: by_position.get(request.index, ())
            for request in first_touches(requests)
        }
    first_touch = [stats.median(seconds) for seconds in by_shape.values() if seconds]

    if len(set(window.pass_rows)) > 1:
        problems.append("total rows differ between passes: %r" % (window.pass_rows,))
    problems.extend(check_oracle(gateway, spec, environment.fixture, requests, seed))
    regret = plan_regret(gateway, spec, environment.fixture, requests)
    window.retire(gateway)
    outcomes = window.outcomes
    if outcomes["submitted"] != sum(
        outcomes[key] for key in OUTCOME_KEYS if key != "submitted"
    ):
        problems.append("request outcomes not conserved: %r" % (outcomes,))
    if outcomes["failed"] or outcomes["rejected"] or outcomes["failed_over"]:
        problems.append("requests failed, rejected or failed over: %r" % (outcomes,))

    tail = stats.highest_supported_percentile(stream_length)
    if tail is None or tail < 0.99:
        problems.append("%d stream positions do not support a p99" % stream_length)
    values = {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * stats.median(latencies),
        "latency_p99_ms": 1e3 * stats.percentile(latencies, 0.99),
        "sim_cost_s_per_req": window.first_pass_simulated_seconds / stream_length,
        "plan_regret_ratio": regret,
        "cold_first_touch_p50_ms": 1e3 * stats.median(first_touch),
        "setup_s": stats.median(setup_seconds),
        "peak_rss_mb": window.first_pass_peak_rss_kib / 1024.0,
    }
    sample_counts = {
        "throughput_rps": samples,
        "latency_p50_ms": samples,
        "latency_p99_ms": samples,
        "sim_cost_s_per_req": stream_length,
        "plan_regret_ratio": REGRET_SAMPLE,
        "cold_first_touch_p50_ms": sum(map(len, by_shape.values())),
        "setup_s": len(setup_seconds),
        "peak_rss_mb": 1,
    }
    attempted = samples + len(window.failures)
    probed = window.recorder.probes
    facts = {
        "stream_digest": stream_digest(environment.stream),
        "stream_length": stream_length,
        "passes": samples / stream_length,
        "rows_per_pass": window.pass_rows[0],
        "first_pass_io": window.first_pass_io,
        "window_wall_s": window.wall_seconds,
        "served_rps_as_clocked": samples / window.recorder.recorded_seconds(),
        "sandbox_slowdown_p50": stats.median(probed),
        "sandbox_slowdown_max": max(probed),
        "probes": len(probed),
        "samples_beyond_p99": stats.samples_beyond(stream_length, 0.99),
        "oracle_sample": ORACLE_SAMPLE,
        "request_outcomes": outcomes,
        "failed_share": len(problems) / attempted,
    }
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "values": values,
        "samples": sample_counts,
        "facts": facts,
    }
