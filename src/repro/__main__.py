"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``                 — compile, store, activate, and execute the
  motivating example end to end, narrating each step;
* ``run``                  — optimize and execute one paper query
  (``--batch-size N`` sets the records per operator advance) and print
  rows, I/O totals, and wall time;
* ``experiments [N]``      — regenerate the paper's evaluation
  (Table 1 and Figures 3-8) with N invocations per query (default 100);
* ``sql "<query>"``        — parse an embedded-SQL query against the
  demo catalog and print its static and dynamic plans;
* ``serve-batch [spec]``   — replay a service workload through the
  serving gateway and report hit rate, start-up latency
  percentiles, and speedup over optimize-per-query (``--help`` for
  flags);
* ``explain [sql]``        — print a query's optimized plan; with
  ``--analyze``, execute it and annotate every operator with
  estimated vs actual cardinality and cost plus a q-error summary;
* ``accuracy``             — replay the paper queries traced and
  report per-operator cost-model q-error distributions;
* ``chaos``                — replay the paper queries through the
  resilient query service under a named fault-injection profile and
  report retries, degradations, and result fidelity versus fault-free
  baselines (exit code 1 when any query misses its expectation).
"""


import argparse
import json
import sys
import time

from repro import (
    Bindings,
    Database,
    ReoptPolicy,
    Tracer,
    cost_model_accuracy,
    execute_midquery,
    execute_plan,
    explain_analyze,
    optimize_dynamic,
    optimize_static,
    paper_workload,
    parse_query,
    plan_to_text,
    populate_database,
    random_bindings,
    replay_spec,
    resolve_dynamic_plan,
    skewed_bindings,
)
from repro.common.errors import (
    ExecutionError,
    InjectedFaultError,
    OptimizationError,
    QueryTimeoutError,
    SnapshotError,
)
from repro.experiments import runner
from repro.frontend.sql import SqlSyntaxError
from repro.resilience.faults import FAULT_PROFILES, FaultInjector, fault_profile
from repro.service.replay import render_report, write_qps_report
from repro.workloads.queries import Workload
from repro.workloads.traffic import TrafficSpec


class _InputError(Exception):
    """A bad argument value: ``main`` prints ``<command>: <reason>``
    and exits 2."""


#: Flags several commands take, each declared once.  A command may
#: override a default (``_parser``); argparse parent parsers cannot do
#: that, because their children share one action object per flag.
_SHARED_FLAGS = {
    "--query": dict(
        type=int,
        choices=(1, 2, 3, 4, 5),
        help="paper query number (default %(default)s)",
    ),
    "--seed": dict(
        type=int,
        default=0,
        help="seed for data population, bindings and fault injection "
        "(default %(default)s)",
    ),
    "--static": dict(
        action="store_true",
        help="use the static expected-value plan instead of the dynamic "
        "plan",
    ),
    "--reopt": dict(
        metavar="SPEC",
        help="mid-query re-optimization policy: 'off' (the default), "
        "'auto' (re-decide when a pipeline breaker's observed "
        "cardinality leaves its compile-time interval), or 'always' "
        "(re-decide at every breaker)",
    ),
    "--skew": dict(
        metavar="DECLARED:ACTUAL",
        help="bind lying selectivities: declare DECLARED but make the "
        "data behave like ACTUAL, so estimates diverge only at run "
        "time (e.g. 0.02:0.6)",
    ),
    "--queries": dict(
        default="1,2,3,4,5",
        help="comma-separated paper query numbers (default all five)",
    ),
    "--json": dict(
        action="store_true",
        help="emit the report as JSON instead of the table",
    ),
}


def _parser(command, description, shared=(), **defaults):
    """A command's parser with the named shared flags added."""
    parser = argparse.ArgumentParser(
        prog="python -m repro " + command, description=description
    )
    for flag in shared:
        options = dict(_SHARED_FLAGS[flag])
        if flag[2:] in defaults:
            options["default"] = defaults[flag[2:]]
        parser.add_argument(flag, **options)
    return parser


def _queries(text):
    try:
        numbers = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _InputError("--queries must be comma-separated integers")
    if not numbers or any(n not in (1, 2, 3, 4, 5) for n in numbers):
        raise _InputError("query numbers must be between 1 and 5")
    return numbers


def _skew(text):
    """A ``DECLARED:ACTUAL`` selectivity pair."""
    parts = text.split(":")
    if len(parts) == 2:
        try:
            skew = float(parts[0]), float(parts[1])
        except ValueError:
            pass
        else:
            if all(0.0 <= selectivity <= 1.0 for selectivity in skew):
                return skew
            raise _InputError(
                "--skew selectivities must lie in [0, 1], got %s" % text
            )
    raise _InputError(
        "--skew must be DECLARED:ACTUAL (two floats, e.g. 0.02:0.6)"
    )


def _reopt(text):
    try:
        return ReoptPolicy.parse(text)
    except ExecutionError as error:
        raise _InputError(error)


#: The post-parse check: each shared flag's text -> its value, in this
#: order, before any work.
_CONVERTERS = {"queries": _queries, "skew": _skew, "reopt": _reopt}


def _paper_setup(args, populate=True):
    """``run``'s and ``explain``'s set-up: the paper query (or the SQL
    text over its catalog) and its static or dynamic plan; populating,
    also the database and the (``--skew``-lying or random) bindings."""
    workload = paper_workload(args.query, seed=args.seed)
    sql = getattr(args, "sql", None)
    if sql is not None:
        query = parse_query(sql, workload.catalog, name="cli-query")
        workload = Workload(workload.catalog, query, workload.specs, args.seed)
    optimize = optimize_static if args.static else optimize_dynamic
    plan = optimize(workload.catalog, workload.query).plan
    if not populate:
        return workload, plan, None, None
    database = Database(workload.catalog)
    populate_database(database, seed=args.seed)
    skew = getattr(args, "skew", None)
    if skew is not None:
        bindings = skewed_bindings(workload, declared=skew[0], actual=skew[1])
    else:
        bindings = random_bindings(workload, seed=args.seed)
    return workload, plan, database, bindings


def _plan_kind(args):
    return "static" if args.static else "dynamic"


_DEMO = _parser(
    "demo",
    "Compile, store, activate, and execute the motivating example end "
    "to end, narrating each step.",
)


def _demo(args):
    workload = paper_workload(2)
    catalog, query = workload.catalog, workload.query
    print("Dynamic Query Evaluation Plans — demo")
    print("query: 2-way join, both relations filtered by host variables")
    print()

    static = optimize_static(catalog, query)
    dynamic = optimize_dynamic(catalog, query)
    print(
        "compile time: static plan %d nodes, dynamic plan %d nodes "
        "(%d choose-plan operators)"
        % (static.node_count(), dynamic.node_count(),
           dynamic.choose_plan_count())
    )
    print(plan_to_text(dynamic.plan, show_cost=False))
    print()

    database = Database(catalog)
    populate_database(database, seed=0)
    for sel_r1, sel_r2 in ((0.05, 0.5), (0.9, 0.05)):
        bindings = Bindings()
        for relation, selectivity in (("R1", sel_r1), ("R2", sel_r2)):
            domain = catalog.domain_size(relation, "a")
            bindings.bind("sel_%s" % relation, selectivity)
            bindings.bind_variable("v_%s" % relation, selectivity * domain)
        chosen, report = resolve_dynamic_plan(
            dynamic.plan, catalog, query.parameter_space, bindings
        )
        executed = execute_plan(
            chosen, database, bindings, query.parameter_space
        )
        print(
            "bindings (%.2f, %.2f): chose %s in %d decisions, "
            "%d rows, %d pages read"
            % (
                sel_r1,
                sel_r2,
                chosen.operator_name(),
                report.decisions,
                executed.row_count,
                executed.io_snapshot["pages_read"],
            )
        )
    return 0


_RUN = _parser(
    "run",
    "Optimize and execute one paper query end to end.",
    ("--query", "--static", "--seed", "--reopt", "--skew"),
    query=5,
)
_RUN.add_argument(
    "--batch-size",
    type=int,
    default=None,
    help="records per operator advance; 1 is record-at-a-time "
    "(default 1024)",
)


def _run(args):
    workload, plan, database, bindings = _paper_setup(args)
    mid_report = None
    started = time.perf_counter()
    if args.reopt is not None:
        result, mid_report = execute_midquery(
            plan,
            database,
            bindings,
            workload.query.parameter_space,
            policy=args.reopt,
            batch_size=args.batch_size,
        )
    else:
        result = execute_plan(
            plan,
            database,
            bindings,
            workload.query.parameter_space,
            batch_size=args.batch_size,
        )
    wall = time.perf_counter() - started
    io = result.io_snapshot
    print(
        "run %s (%s plan, seed %d)"
        % (workload.name, _plan_kind(args), args.seed)
    )
    print(
        "  %d rows in %.6fs wall; pages read %d, written %d, "
        "records processed %d, index probes %d"
        % (
            result.row_count,
            wall,
            io["pages_read"],
            io["pages_written"],
            io["records_processed"],
            io["index_probes"],
        )
    )
    if result.decisions:
        print("  start-up decisions: %d" % len(result.decisions))
    if mid_report is not None:
        print(mid_report.render())
    return 0


_SQL = _parser(
    "sql",
    "Parse an embedded-SQL query against the demo catalog and print its "
    "static and dynamic plans.",
)
_SQL.add_argument(
    "sql", nargs="?", default=None, help='e.g. "SELECT * FROM R1 ..."'
)


def _sql(args):
    if args.sql is None:
        print("usage: python -m repro sql \"SELECT * FROM R1 ...\"")
        return 2
    workload = paper_workload(2)
    query = parse_query(args.sql, workload.catalog, name="cli-query")
    print("parsed: %r" % query)
    static = optimize_static(workload.catalog, query)
    print("static plan:")
    print(plan_to_text(static.plan))
    dynamic = optimize_dynamic(workload.catalog, query)
    print("dynamic plan:")
    print(plan_to_text(dynamic.plan))
    return 0


_SERVE_BATCH = _parser(
    "serve-batch",
    "Replay a workload through the plan-cache query service and report "
    "hit rate, start-up latency, and speedup vs optimize-per-query.  "
    "--seed, --invocations, --capacity and --shards override the "
    "spec's fields.",
    ("--seed",),
    seed=None,
)
_SERVE_BATCH.add_argument(
    "spec",
    nargs="?",
    default=None,
    help="JSON workload spec (see repro.workloads.traffic); "
    "omit for the built-in default mix",
)
for _flag, _field in (
    ("--invocations", "invocation count"),
    ("--capacity", "plan-cache capacity"),
    ("--shards", "gateway plan-cache partition count"),
):
    _SERVE_BATCH.add_argument(
        _flag, type=int, default=None, help="override the spec's " + _field
    )
_SERVE_BATCH.add_argument(
    "--no-execute",
    action="store_true",
    help="skip data execution; measure optimization and start-up only",
)
_SERVE_BATCH.add_argument(
    "--qps-report",
    metavar="PATH",
    default=None,
    help="write a JSON throughput/latency summary (qps, p50/p95/"
    "p99 request latency, hit rate, per-shard counts) to PATH",
)
_SERVE_BATCH.add_argument(
    "--snapshot",
    metavar="PATH",
    default=None,
    help="durable plan-cache snapshot file: warm-start from it "
    "when it exists and rewrite it on shutdown, so repeated "
    "replays skip re-optimizing the hot set",
)


def _serve_batch(args):
    data = {}
    try:
        if args.spec is None:
            spec = TrafficSpec.default()
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            spec = TrafficSpec.from_dict(data)
        overrides = {"requests": args.invocations, "seed": args.seed}
        spec = spec.replace(
            **{key: value for key, value in overrides.items() if value is not None}
        )
        serving = {"execute": bool(data.get("execute", True)) and not args.no_execute}
        for key, default in (("capacity", 64), ("shards", 1)):
            value = getattr(args, key)
            serving[key] = int(data.get(key, default) if value is None else value)
            if serving[key] < 1:
                raise OptimizationError("%s must be at least 1" % key)
    except (OSError, ValueError, OptimizationError) as error:
        raise _InputError("invalid workload spec: %s" % error)
    try:
        report = replay_spec(spec, snapshot=args.snapshot, **serving)
    except SnapshotError as error:
        raise _InputError("snapshot %s: %s" % (args.snapshot, error))
    print(render_report(report))
    if args.snapshot is not None:
        restored = report.restore_stats
        if restored is not None:
            print(
                "snapshot: restored %d cached plans from %s "
                "(%d skipped, %d errors)"
                % (
                    restored.restored,
                    args.snapshot,
                    restored.skipped,
                    len(restored.errors),
                )
            )
        else:
            print("snapshot: cold start (no snapshot at %s yet)" % args.snapshot)
        print("snapshot written to %s" % args.snapshot)
    if args.qps_report is not None:
        write_qps_report(report, args.qps_report)
        print("qps report written to %s" % args.qps_report)
    return 0


_EXPLAIN = _parser(
    "explain",
    "Print a query's optimized plan; with --analyze, execute it under "
    "the tracer and annotate each operator with estimated vs actual "
    "cardinality and cost.  --reopt (with --analyze) profiles the "
    "final, possibly spliced, plan and prints the re-optimization "
    "report after it.",
    ("--query", "--static", "--seed", "--reopt"),
    query=2,
)
_EXPLAIN.add_argument(
    "sql",
    nargs="?",
    default=None,
    help="SQL text parsed against the selected paper query's "
    "catalog; omit to explain the paper query itself",
)
_EXPLAIN.add_argument(
    "--analyze",
    action="store_true",
    help="execute the plan and report actual rows, cost, and "
    "q-error per operator",
)
_EXPLAIN.add_argument(
    "--wall",
    action="store_true",
    help="include wall-clock per-operator timings "
    "(non-deterministic; excluded by default)",
)
_EXPLAIN.add_argument(
    "--deadline",
    type=float,
    default=None,
    metavar="SECONDS",
    help="query deadline for --analyze; on expiry the partial "
    "trace collected before cancellation is rendered",
)
_EXPLAIN.add_argument(
    "--fault-profile",
    default=None,
    metavar="NAME",
    help="run --analyze with this fault-injection profile "
    "installed (see python -m repro chaos for the names)",
)


def _explain(args):
    if args.reopt is not None and not args.analyze:
        raise _InputError("--reopt requires --analyze")
    workload, plan, database, bindings = _paper_setup(
        args, populate=args.analyze
    )
    if not args.analyze:
        print("plan (%s):" % _plan_kind(args))
        print(plan_to_text(plan))
        return 0

    injector = None
    if args.fault_profile is not None:
        injector = database.install_fault_injector(
            FaultInjector(fault_profile(args.fault_profile), seed=args.seed)
        )
    header = "EXPLAIN ANALYZE %s (%s plan, seed %d)" % (
        workload.name, _plan_kind(args), args.seed
    )
    mid_report = None
    try:
        if args.reopt is not None:
            executed, mid_report = execute_midquery(
                plan,
                database,
                bindings,
                workload.query.parameter_space,
                policy=args.reopt,
                tracer=Tracer(),
                deadline=args.deadline,
            )
        else:
            executed = explain_analyze(
                plan,
                database,
                bindings,
                workload.query.parameter_space,
                deadline=args.deadline,
            )
    except QueryTimeoutError as error:
        print(header + " — TIMED OUT")
        io = error.io_snapshot or {}
        print(
            "  deadline %gs expired after %gs; %d rows and %d pages "
            "read before cancellation"
            % (
                error.deadline_seconds,
                error.elapsed_seconds,
                error.rows_produced,
                io.get("pages_read", 0),
            )
        )
        if error.trace is not None and error.trace.spans:
            print("partial trace:")
            print(error.trace.render(show_wall=args.wall))
        return 1
    except InjectedFaultError as error:
        print(header + " — FAILED")
        print("  %s: %s" % (type(error).__name__, error))
        print("  injector: %r" % (injector.snapshot(),))
        return 1
    print(header)
    print(executed.profile.render(show_wall=args.wall))
    if mid_report is not None:
        print(mid_report.render())
    if injector is not None:
        print("fault injector: %r" % (injector.snapshot(),))
    return 0


_ACCURACY = _parser(
    "accuracy",
    "Replay the paper queries under the tracer and report "
    "per-operator cost-model q-error distributions.",
    ("--queries", "--seed", "--static", "--json"),
)
_ACCURACY.add_argument(
    "--invocations",
    type=int,
    default=5,
    help="binding sets replayed per query (default 5)",
)


def _accuracy(args):
    report = cost_model_accuracy(
        query_numbers=args.queries,
        invocations=args.invocations,
        seed=args.seed,
        mode=_plan_kind(args),
    )
    print(report.to_json() if args.json else report.render())
    return 0


_CHAOS = _parser(
    "chaos",
    "Replay the paper queries through the resilient query service "
    "under a named fault-injection profile and check outcomes against "
    "fault-free baselines.  --reopt runs the faulty service through "
    "mid-query re-optimization while the baseline stays plain, so "
    "rows_match also checks that re-optimization preserves results.",
    ("--queries", "--seed", "--json", "--reopt", "--skew"),
)
_CHAOS.add_argument(
    "--profile",
    default="transient-and-drop",
    help="fault profile to inject (one of: %s; default "
    "transient-and-drop)" % ", ".join(sorted(FAULT_PROFILES)),
)
_CHAOS.add_argument(
    "--output",
    default=None,
    metavar="PATH",
    help="also write the JSON report to this file",
)
_SCENARIOS = _CHAOS.add_mutually_exclusive_group()
for _flag, _help in (
    (
        "--kill-shard",
        "kill a shard worker mid-replay and assert failover + "
        "supervised restart preserve results",
    ),
    (
        "--hang-shard",
        "wedge a shard worker mid-request and assert the hung request "
        "completes via failover after the supervisor escalates "
        "suspect -> down -> restart",
    ),
    (
        "--slow-shard",
        "a shard reports stalled serves; the supervisor marks it "
        "suspect and recovers it without a restart",
    ),
):
    _SCENARIOS.add_argument(
        _flag,
        dest="scenario",
        action="store_const",
        const=_flag[2:],
        help="service-tier scenario: " + _help,
    )
for _flag, _default, _help in (
    ("--shards", 3, "gateway shard count (default 3)"),
    ("--requests", 36, "traffic length (default 36)"),
    ("--inject-at", 10, "request index of the shard fault (default 10)"),
    (
        "--heal-at",
        None,
        "request index of the supervisor sweep (default inject-at + 6)",
    ),
):
    _CHAOS.add_argument(
        _flag,
        type=int,
        default=_default,
        help="service-tier scenarios' " + _help,
    )


def _chaos(args):
    from repro.resilience.chaos import run_chaos, run_service_chaos

    try:
        if args.scenario is not None:
            report = run_service_chaos(
                args.scenario,
                seed=args.seed,
                shards=args.shards,
                requests=args.requests,
                inject_at=args.inject_at,
                heal_at=args.heal_at,
            )
        else:
            report = run_chaos(
                args.profile,
                query_numbers=args.queries,
                seed=args.seed,
                reopt=args.reopt,
                skew=args.skew,
            )
    except (ExecutionError, ValueError) as error:
        raise _InputError(error)
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    print(report.to_json() if args.json else report.render())
    return 0 if report.passed else 1


#: command -> (parser, handler); a handler takes the checked arguments
#: and returns the exit code.
COMMANDS = {
    "demo": (_DEMO, _demo),
    "run": (_RUN, _run),
    "experiments": (runner.PARSER, runner.run),
    "sql": (_SQL, _sql),
    "serve-batch": (_SERVE_BATCH, _serve_batch),
    "explain": (_EXPLAIN, _explain),
    "accuracy": (_ACCURACY, _accuracy),
    "chaos": (_CHAOS, _chaos),
}


def main(argv=None):
    """Dispatch a CLI command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else "demo"
    if command not in COMMANDS:
        print(__doc__)
        return 2
    parser, handler = COMMANDS[command]
    try:
        args = parser.parse_args(argv[1:])
        for dest, convert in _CONVERTERS.items():
            if getattr(args, dest, None) is not None:
                setattr(args, dest, convert(getattr(args, dest)))
        return handler(args)
    except (_InputError, SqlSyntaxError, argparse.ArgumentError) as error:
        print("%s: %s" % (command, error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
