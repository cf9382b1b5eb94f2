"""Cooperative cancellation lands exactly at iterator boundaries.

Deadlines are checked at operator open and at every batch step of
the engine's drive loop, never inside an operator.  Under a
:class:`~repro.resilience.deadline.CountingClock` each check advances
the clock by one second, so a ``Deadline(k)`` expires on the ``k``-th
check and these tests can pin *where* cancellation happens:

* a mid-run expiry stops within one batch — the partial row count is
  an exact prefix sum of the fault-free batch sizes;
* the raised error's I/O snapshot equals the database counter delta,
  so no work goes unaccounted;
* a zero deadline expires at open, before any row is produced;
* the engine closed the plan on the way out: the same database runs
  the same plan again, fault-free, to completion.

The matrix is batch size 1 (record-granular) / 4 × traced/untraced.
"""

import pytest

from repro.catalog import populate_database
from repro.common.errors import QueryTimeoutError
from repro.executor.engine import ExecutionContext, execute_plan
from repro.executor.vectorized import build_batch_iterator
from repro.observability import Tracer
from repro.optimizer.optimizer import optimize_dynamic
from repro.resilience import CountingClock, Deadline
from repro.storage.database import Database
from repro.workloads import paper_workload, random_bindings

QUERY_NUMBER = 2
DATA_SEED = 11
BATCH_SIZE = 4
#: 1 is record-at-a-time: the deadline is checked at every step.
BATCH_SIZES = (1, BATCH_SIZE)


@pytest.fixture(scope="module")
def setup():
    workload = paper_workload(QUERY_NUMBER)
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    bindings = random_bindings(workload, seed=0, run_index=0)
    return workload, plan, bindings


def fresh_database(workload):
    database = Database(workload.catalog)
    populate_database(database, seed=DATA_SEED)
    return database


def run(workload, plan, bindings, batch_size, deadline=None, tracer=None,
        database=None):
    if database is None:
        database = fresh_database(workload)
    return execute_plan(
        plan,
        database,
        bindings,
        workload.query.parameter_space,
        tracer=tracer,
        batch_size=batch_size,
        deadline=deadline,
    )


def count_checks(workload, plan, bindings, batch_size):
    """Deadline checks a fault-free run performs, and its row count."""
    clock = CountingClock()
    deadline = Deadline(10.0**9, clock=clock)
    result = run(workload, plan, bindings, batch_size, deadline=deadline)
    # The constructor reads the clock once; every check reads once.
    return int(clock.now) - 1, result.row_count


def batch_prefix_sums(workload, plan, bindings, batch_size):
    """Cumulative row counts at every batch boundary, fault-free."""
    database = fresh_database(workload)
    context = ExecutionContext(
        database,
        bindings,
        workload.query.parameter_space,
        batch_size=batch_size,
    )
    root = build_batch_iterator(plan, context)
    sums, total = [0], 0
    for batch in root.batches():
        total += len(batch)
        sums.append(total)
    return sums


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=("record", "batch"))
def test_mid_run_expiry_stops_at_a_boundary(setup, batch_size, traced):
    workload, plan, bindings = setup
    checks, total_rows = count_checks(workload, plan, bindings, batch_size)
    assert total_rows > 0 and checks > 3

    database = fresh_database(workload)
    before = database.io_stats.snapshot()
    tracer = Tracer() if traced else None
    # Expire two checks before the run would have completed: inside
    # the drive loop, after some results but before the last ones.
    deadline = Deadline(checks - 2, clock=CountingClock())
    with pytest.raises(QueryTimeoutError) as excinfo:
        run(workload, plan, bindings, batch_size, deadline=deadline,
            tracer=tracer, database=database)
    error = excinfo.value

    assert 0 < error.rows_produced < total_rows
    # Cancellation never splits a batch: the partial count is an exact
    # prefix of the fault-free batch sizes.
    assert error.rows_produced in batch_prefix_sums(
        workload, plan, bindings, batch_size
    )

    # Every page and record the aborted run touched is accounted for.
    after = database.io_stats.snapshot()
    assert error.io_snapshot == {
        key: after[key] - before[key] for key in after
    }

    if traced:
        assert error.trace is not None
        assert error.trace.spans
    else:
        assert error.trace is None

    # The engine closed the plan tree on the way out: the same
    # database runs the same plan to completion afterwards.
    rerun = run(workload, plan, bindings, batch_size, database=database)
    assert rerun.row_count == total_rows


def test_zero_deadline_expires_at_open(setup):
    workload, plan, bindings = setup
    deadline = Deadline(0, clock=CountingClock())
    with pytest.raises(QueryTimeoutError) as excinfo:
        run(workload, plan, bindings, None, deadline=deadline)
    error = excinfo.value
    assert error.rows_produced == 0
    assert error.elapsed_seconds >= error.deadline_seconds


def test_no_deadline_means_no_checks(setup):
    workload, plan, bindings = setup
    result = run(workload, plan, bindings, None, deadline=None)
    assert result.row_count > 0


def partial_trace_via_explain(setup, batch_size):
    from repro.observability.explain import explain_analyze

    workload, plan, bindings = setup
    database = fresh_database(workload)
    checks, _ = count_checks(workload, plan, bindings, batch_size)
    with pytest.raises(QueryTimeoutError) as excinfo:
        explain_analyze(
            plan,
            database,
            bindings,
            workload.query.parameter_space,
            batch_size=batch_size,
            deadline=Deadline(checks - 2, clock=CountingClock()),
        )
    error = excinfo.value
    assert error.trace is not None
    assert [span.label() for span, _depth in error.trace.walk()]
    assert error.rows_produced in batch_prefix_sums(
        workload, plan, bindings, batch_size
    )


def test_timeout_error_carries_partial_trace_via_explain(setup):
    # Record-granular: one deadline check per step.
    partial_trace_via_explain(setup, 1)


def test_timeout_error_carries_partial_trace_via_explain_batch(setup):
    partial_trace_via_explain(setup, BATCH_SIZE)
