"""Executor throughput: batch mode vs record-at-a-time.

The batch engine exists to cut interpreter dispatch, not simulated
I/O — both executors charge identical page/record totals (held by the
differential suite in ``tests/test_vectorized.py``), so the quantity
to gate on is record throughput: records processed per wall-clock
second on the same plan over the same data.

This bench runs the static plans of all five paper queries through
the row and batch engines and asserts the acceptance bars:

* query 5 (the 10-way chain): batch >= 2x row;
* query 1 (single-relation index scan, where per-batch overhead once
  made batching a *pessimization*): batch >= 1x row — no query may
  regress by switching modes.

Both sides execute the same binding sweep and are timed in strictly
alternating repetitions, compared min-to-min, so machine drift hits
both engines equally instead of deciding the verdict.

``REPRO_BENCH_N`` scales the repetition count (floor 5).
"""

from time import perf_counter

from conftest import bench_invocations, write_and_print, write_json_results

from repro import (
    Database,
    execute_plan,
    optimize_static,
    paper_workload,
    populate_database,
)
from repro.workloads import binding_series

#: Batch-over-row acceptance bar on the largest paper query.
MIN_SPEEDUP = 2.0

#: No mode may fall below row-mode throughput on the smallest query.
MIN_SMALL_QUERY_SPEEDUP = 1.0

#: The paper query the large bar is gated on (10-way chain join).
GATED_QUERY = 5

#: The paper query the no-regression bar is gated on (1-way scan).
SMALL_QUERY = 1

#: Binding sets swept per timed repetition.
BINDING_SETS = 5

#: Execution modes measured, in sweep order.
MODES = ("row", "batch")


def _sweep_seconds(plan, database, bindings_list, parameter_space, mode):
    """Wall seconds to execute ``plan`` once per binding set."""
    started = perf_counter()
    for bindings in bindings_list:
        execute_plan(
            plan, database, bindings, parameter_space, execution_mode=mode
        )
    return perf_counter() - started


def _measure_query(number, repetitions):
    """Min-of-reps per-mode timings for one paper query's static plan."""
    workload = paper_workload(number)
    plan = optimize_static(workload.catalog, workload.query).plan
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    bindings_list = binding_series(workload, count=BINDING_SETS, seed=5)
    space = workload.query.parameter_space
    # Records processed and rows returned are mode-independent; take
    # them from untimed runs (which also warm every code path).
    results = {
        mode: execute_plan(
            plan, database, bindings_list[0], space, execution_mode=mode
        )
        for mode in MODES
    }
    for mode in MODES[1:]:
        assert results[mode].io_snapshot == results["row"].io_snapshot
    records_per_sweep = 0
    for bindings in bindings_list:
        before = database.io_stats.snapshot()["records_processed"]
        execute_plan(plan, database, bindings, space, execution_mode="row")
        records_per_sweep += (
            database.io_stats.snapshot()["records_processed"] - before
        )

    seconds = {mode: float("inf") for mode in MODES}
    for _ in range(repetitions):
        for mode in MODES:
            seconds[mode] = min(
                seconds[mode],
                _sweep_seconds(plan, database, bindings_list, space, mode),
            )
    measurement = {
        "query": workload.name,
        "rows": results["row"].row_count,
        "records": records_per_sweep,
    }
    for mode in MODES:
        measurement["%s_seconds" % mode] = seconds[mode]
        measurement["%s_throughput" % mode] = records_per_sweep / seconds[mode]
    measurement["speedup"] = seconds["row"] / seconds["batch"]
    return measurement


def render_table(measurements):
    """The row/batch comparison table as printable text."""
    lines = [
        "executor record throughput: batch vs row "
        "(static plans, %d binding sets, min-of-reps)" % BINDING_SETS,
        "",
        "  %-8s %8s %10s %12s %12s %8s"
        % ("query", "rows", "records", "row-sec", "batch-sec", "batch-x"),
    ]
    for m in measurements:
        lines.append(
            "  %-8s %8d %10d %12.6f %12.6f %7.2fx"
            % (
                m["query"],
                m["rows"],
                m["records"],
                m["row_seconds"],
                m["batch_seconds"],
                m["speedup"],
            )
        )
    return "\n".join(lines)


def test_batch_throughput(results_dir):
    repetitions = max(5, bench_invocations() // 2)
    measurements = [
        _measure_query(number, repetitions) for number in (1, 2, 3, 4, 5)
    ]

    write_and_print(results_dir, "vectorized", render_table(measurements))
    records = []
    for m in measurements:
        for metric, value in (
            ("batch_record_throughput", m["batch_throughput"]),
            ("row_record_throughput", m["row_throughput"]),
            ("batch_over_row_speedup", m["speedup"]),
        ):
            records.append(
                {
                    "name": "vectorized_%s" % m["query"],
                    "metric": metric,
                    "value": value,
                    "unit": "records/s" if "throughput" in metric else "x",
                }
            )
    write_json_results(results_dir, "vectorized", records)

    by_query = {m["query"]: m for m in measurements}
    gated = by_query["query%d" % GATED_QUERY]
    small = by_query["query%d" % SMALL_QUERY]
    assert gated["speedup"] >= MIN_SPEEDUP, (
        "batch mode only %.2fx the row engine's record throughput on "
        "%s (bar: %.1fx)" % (gated["speedup"], gated["query"], MIN_SPEEDUP)
    )
    assert small["speedup"] >= MIN_SMALL_QUERY_SPEEDUP, (
        "batch mode regressed to %.2fx of the row engine on %s "
        "(bar: %.1fx)"
        % (small["speedup"], small["query"], MIN_SMALL_QUERY_SPEEDUP)
    )
