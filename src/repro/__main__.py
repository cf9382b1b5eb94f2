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

import sys

from repro import (
    Bindings,
    Database,
    ReoptPolicy,
    execute_midquery,
    execute_plan,
    optimize_dynamic,
    optimize_static,
    paper_workload,
    parse_query,
    plan_to_text,
    populate_database,
    resolve_dynamic_plan,
)


def _parse_skew(text, command):
    """Parse a ``DECLARED:ACTUAL`` selectivity pair; None on error."""
    parts = text.split(":")
    if len(parts) == 2:
        try:
            skew = float(parts[0]), float(parts[1])
        except ValueError:
            pass
        else:
            if all(0.0 <= selectivity <= 1.0 for selectivity in skew):
                return skew
            print(
                "%s: --skew selectivities must lie in [0, 1], got %s"
                % (command, text)
            )
            return None
    print("%s: --skew must be DECLARED:ACTUAL "
          "(two floats, e.g. 0.02:0.6)" % command)
    return None


def _parse_reopt(text, command):
    """Parse a ``--reopt`` policy spec; None (after saying why) on error."""
    from repro.common.errors import ExecutionError

    try:
        return ReoptPolicy.parse(text)
    except ExecutionError as error:
        print("%s: %s" % (command, error))
        return None


def _demo():
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


def _run(argv):
    import argparse
    import time

    from repro.workloads.bindings import random_bindings

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Optimize and execute one paper query end to end."
        ),
    )
    parser.add_argument(
        "--query",
        type=int,
        default=5,
        choices=(1, 2, 3, 4, 5),
        help="paper query number (default 5, the 10-way chain)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="records per operator advance; 1 is record-at-a-time "
        "(default 1024)",
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="execute the static expected-value plan instead of the "
        "dynamic plan",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for data population and bindings (default 0)",
    )
    parser.add_argument(
        "--reopt",
        default=None,
        metavar="SPEC",
        help="mid-query re-optimization policy: 'off' (the default), "
        "'auto' (re-decide when a pipeline breaker's observed "
        "cardinality leaves its compile-time interval), or 'always' "
        "(re-decide at every breaker)",
    )
    parser.add_argument(
        "--skew",
        default=None,
        metavar="DECLARED:ACTUAL",
        help="bind lying selectivities: declare DECLARED but make the "
        "data behave like ACTUAL, so estimates diverge only at "
        "run time (e.g. 0.02:0.6)",
    )
    args = parser.parse_args(argv)
    skew = None
    if args.skew is not None:
        skew = _parse_skew(args.skew, "run")
        if skew is None:
            return 2
    policy = None
    if args.reopt is not None:
        policy = _parse_reopt(args.reopt, "run")
        if policy is None:
            return 2

    from repro.workloads.bindings import skewed_bindings

    workload = paper_workload(args.query, seed=args.seed)
    optimize = optimize_static if args.static else optimize_dynamic
    plan = optimize(workload.catalog, workload.query).plan
    database = Database(workload.catalog)
    populate_database(database, seed=args.seed)
    if skew is not None:
        bindings = skewed_bindings(workload, declared=skew[0], actual=skew[1])
    else:
        bindings = random_bindings(workload, seed=args.seed)
    mid_report = None
    started = time.perf_counter()
    if policy is not None:
        result, mid_report = execute_midquery(
            plan,
            database,
            bindings,
            workload.query.parameter_space,
            policy=policy,
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
        % (
            workload.name,
            "static" if args.static else "dynamic",
            args.seed,
        )
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


def _serve_batch(argv):
    import argparse

    from repro.common.errors import OptimizationError, SnapshotError
    from repro.service import render_report, replay_spec
    from repro.service.replay import write_qps_report
    from repro.workloads.service import ServiceWorkloadSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-batch",
        description=(
            "Replay a workload through the plan-cache query service "
            "and report hit rate, start-up latency, and speedup vs "
            "optimize-per-query."
        ),
    )
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="JSON workload spec (see repro.workloads.service); "
        "omit for the built-in default mix",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=None,
        help="override the spec's invocation count",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="override the spec's plan-cache capacity",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's workload seed",
    )
    parser.add_argument(
        "--no-execute",
        action="store_true",
        help="skip data execution; measure optimization and start-up only",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override the spec's gateway plan-cache partition count",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="assign each invocation a Zipf-distributed tenant "
        "identity from this many tenants (0 = unattributed)",
    )
    parser.add_argument(
        "--qps-report",
        metavar="PATH",
        default=None,
        help="write a JSON throughput/latency summary (qps, p50/p95/"
        "p99 request latency, hit rate, per-shard counts) to PATH",
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        default=None,
        help="durable plan-cache snapshot file: warm-start from it "
        "when it exists and rewrite it on shutdown, so repeated "
        "replays skip re-optimizing the hot set",
    )
    args = parser.parse_args(argv)

    overrides = {
        "invocations": args.invocations,
        "capacity": args.capacity,
        "seed": args.seed,
        "shards": args.shards,
        "tenants": args.tenants,
    }
    overrides = {key: value for key, value in overrides.items()
                 if value is not None}
    if args.no_execute:
        overrides["execute"] = False
    try:
        if args.spec is None:
            spec = ServiceWorkloadSpec.default()
        else:
            spec = ServiceWorkloadSpec.load(args.spec)
        if overrides:
            spec = spec.replace(**overrides)
    except (OSError, ValueError, OptimizationError) as error:
        print("serve-batch: invalid workload spec: %s" % error)
        return 2
    try:
        report = replay_spec(spec, snapshot=args.snapshot)
    except SnapshotError as error:
        print("serve-batch: snapshot %s: %s" % (args.snapshot, error))
        return 2
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


def _explain(argv):
    import argparse

    from repro.observability.explain import explain_analyze
    from repro.workloads.queries import Workload
    from repro.workloads.bindings import random_bindings

    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description=(
            "Print a query's optimized plan; with --analyze, execute "
            "it under the tracer and annotate each operator with "
            "estimated vs actual cardinality and cost."
        ),
    )
    parser.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="SQL text parsed against the selected paper query's "
        "catalog; omit to explain the paper query itself",
    )
    parser.add_argument(
        "--query",
        type=int,
        default=2,
        choices=(1, 2, 3, 4, 5),
        help="paper query number supplying the catalog and query "
        "(default 2)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and report actual rows, cost, and "
        "q-error per operator",
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="explain the static expected-value plan instead of the "
        "dynamic plan",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for data population and bindings (default 0)",
    )
    parser.add_argument(
        "--wall",
        action="store_true",
        help="include wall-clock per-operator timings "
        "(non-deterministic; excluded by default)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="query deadline for --analyze; on expiry the partial "
        "trace collected before cancellation is rendered",
    )
    parser.add_argument(
        "--fault-profile",
        default=None,
        metavar="NAME",
        help="run --analyze with this fault-injection profile "
        "installed (see python -m repro chaos for the names)",
    )
    parser.add_argument(
        "--reopt",
        default=None,
        metavar="SPEC",
        help="run --analyze through mid-query re-optimization with "
        "this policy ('off', 'auto' or 'always'); the profile annotates the "
        "final (possibly spliced) plan and the re-optimization "
        "report follows it",
    )
    args = parser.parse_args(argv)

    policy = None
    if args.reopt is not None:
        if not args.analyze:
            print("explain: --reopt requires --analyze")
            return 2
        policy = _parse_reopt(args.reopt, "explain")
        if policy is None:
            return 2

    from repro.common.errors import InjectedFaultError, QueryTimeoutError
    from repro.observability.trace import Tracer
    from repro.resilience.faults import FaultInjector, fault_profile

    workload = paper_workload(args.query, seed=args.seed)
    if args.sql is not None:
        query = parse_query(args.sql, workload.catalog, name="cli-query")
        workload = Workload(
            workload.catalog, query, workload.specs, args.seed
        )
    optimize = optimize_static if args.static else optimize_dynamic
    result = optimize(workload.catalog, workload.query)

    if not args.analyze:
        print("plan (%s):" % ("static" if args.static else "dynamic"))
        print(plan_to_text(result.plan))
        return 0

    database = Database(workload.catalog)
    populate_database(database, seed=args.seed)
    injector = None
    if args.fault_profile is not None:
        injector = database.install_fault_injector(
            FaultInjector(fault_profile(args.fault_profile), seed=args.seed)
        )
    bindings = random_bindings(workload, seed=args.seed)
    header = "EXPLAIN ANALYZE %s (%s plan, seed %d)" % (
        workload.name, "static" if args.static else "dynamic", args.seed
    )
    mid_report = None
    try:
        if policy is not None:
            executed, mid_report = execute_midquery(
                result.plan,
                database,
                bindings,
                workload.query.parameter_space,
                policy=policy,
                tracer=Tracer(),
                deadline=args.deadline,
            )
        else:
            executed = explain_analyze(
                result.plan,
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


def _accuracy(argv):
    import argparse

    from repro.observability.accuracy import cost_model_accuracy

    parser = argparse.ArgumentParser(
        prog="python -m repro accuracy",
        description=(
            "Replay the paper queries under the tracer and report "
            "per-operator cost-model q-error distributions."
        ),
    )
    parser.add_argument(
        "--queries",
        default="1,2,3,4,5",
        help="comma-separated paper query numbers (default all five)",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=5,
        help="binding sets replayed per query (default 5)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for data population and bindings (default 0)",
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="profile the static expected-value plans instead of the "
        "dynamic plans",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the table",
    )
    args = parser.parse_args(argv)

    try:
        numbers = tuple(
            int(part) for part in args.queries.split(",") if part.strip()
        )
    except ValueError:
        print("accuracy: --queries must be comma-separated integers")
        return 2
    if not numbers or any(n not in (1, 2, 3, 4, 5) for n in numbers):
        print("accuracy: query numbers must be between 1 and 5")
        return 2

    report = cost_model_accuracy(
        query_numbers=numbers,
        invocations=args.invocations,
        seed=args.seed,
        mode="static" if args.static else "dynamic",
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0


def _chaos_service(scenario, args):
    from repro.common.errors import ExecutionError
    from repro.resilience.chaos import run_service_chaos

    try:
        report = run_service_chaos(
            scenario,
            seed=args.seed,
            shards=args.shards,
            requests=args.requests,
            inject_at=args.inject_at,
            heal_at=args.heal_at,
        )
    except (ExecutionError, ValueError) as error:
        print("chaos: %s" % error)
        return 2
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    print(report.to_json() if args.json else report.render())
    return 0 if report.passed else 1


def _chaos(argv):
    import argparse

    from repro.common.errors import ExecutionError
    from repro.resilience.chaos import run_chaos
    from repro.resilience.faults import FAULT_PROFILES

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Replay the paper queries through the resilient query "
            "service under a named fault-injection profile and check "
            "outcomes against fault-free baselines."
        ),
    )
    parser.add_argument(
        "--profile",
        default="transient-and-drop",
        help="fault profile to inject (one of: %s; default "
        "transient-and-drop)" % ", ".join(sorted(FAULT_PROFILES)),
    )
    parser.add_argument(
        "--queries",
        default="1,2,3,4,5",
        help="comma-separated paper query numbers (default all five)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for data, bindings, and fault injection (default 0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the deterministic JSON report instead of the table",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the JSON report to this file",
    )
    parser.add_argument(
        "--reopt",
        default=None,
        metavar="SPEC",
        help="run the faulty service through mid-query "
        "re-optimization with this policy ('off', 'auto' or 'always'); the "
        "baseline stays plain, so rows_match also checks that "
        "re-optimization preserves results",
    )
    parser.add_argument(
        "--skew",
        default=None,
        metavar="DECLARED:ACTUAL",
        help="replace random bindings with lying selectivities "
        "(e.g. 0.02:0.6) so re-decisions actually switch plans",
    )
    scenario_group = parser.add_mutually_exclusive_group()
    scenario_group.add_argument(
        "--kill-shard",
        action="store_true",
        help="service-tier scenario: kill a shard worker mid-replay "
        "and assert failover + supervised restart preserve results",
    )
    scenario_group.add_argument(
        "--hang-shard",
        action="store_true",
        help="service-tier scenario: wedge a shard worker mid-request "
        "and assert the hung request completes via failover after the "
        "supervisor escalates suspect -> down -> restart",
    )
    scenario_group.add_argument(
        "--slow-shard",
        action="store_true",
        help="service-tier scenario: a shard reports stalled serves; "
        "the supervisor marks it suspect and recovers it without a "
        "restart",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="gateway shard count for the service-tier scenarios "
        "(default 3)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=36,
        help="traffic length for the service-tier scenarios "
        "(default 36)",
    )
    parser.add_argument(
        "--inject-at",
        type=int,
        default=10,
        help="request index at which the shard fault fires "
        "(default 10)",
    )
    parser.add_argument(
        "--heal-at",
        type=int,
        default=None,
        help="request index at which the supervisor sweeps "
        "(default inject-at + 6)",
    )
    args = parser.parse_args(argv)

    scenario = None
    if args.kill_shard:
        scenario = "kill-shard"
    elif args.hang_shard:
        scenario = "hang-shard"
    elif args.slow_shard:
        scenario = "slow-shard"
    if scenario is not None:
        return _chaos_service(scenario, args)

    try:
        numbers = tuple(
            int(part) for part in args.queries.split(",") if part.strip()
        )
    except ValueError:
        print("chaos: --queries must be comma-separated integers")
        return 2
    if not numbers or any(n not in (1, 2, 3, 4, 5) for n in numbers):
        print("chaos: query numbers must be between 1 and 5")
        return 2
    skew = None
    if args.skew is not None:
        skew = _parse_skew(args.skew, "chaos")
        if skew is None:
            return 2

    try:
        report = run_chaos(
            args.profile,
            query_numbers=numbers,
            seed=args.seed,
            reopt=args.reopt,
            skew=skew,
        )
    except ExecutionError as error:
        print("chaos: %s" % error)
        return 2
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    print(report.to_json() if args.json else report.render())
    return 0 if report.passed else 1


def _experiments(argv):
    from repro.experiments.runner import main as run_experiments

    return run_experiments(argv)


def _sql(argv):
    if not argv:
        print("usage: python -m repro sql \"SELECT * FROM R1 ...\"")
        return 2
    workload = paper_workload(2)
    query = parse_query(argv[0], workload.catalog, name="cli-query")
    print("parsed: %r" % query)
    static = optimize_static(workload.catalog, query)
    print("static plan:")
    print(plan_to_text(static.plan))
    dynamic = optimize_dynamic(workload.catalog, query)
    print("dynamic plan:")
    print(plan_to_text(dynamic.plan))
    return 0


def main(argv=None):
    """Dispatch a CLI command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else "demo"
    if command == "demo":
        return _demo()
    if command == "run":
        return _run(argv[1:])
    if command == "experiments":
        return _experiments(argv[1:])
    if command == "sql":
        return _sql(argv[1:])
    if command == "serve-batch":
        return _serve_batch(argv[1:])
    if command == "explain":
        return _explain(argv[1:])
    if command == "accuracy":
        return _accuracy(argv[1:])
    if command == "chaos":
        return _chaos(argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
