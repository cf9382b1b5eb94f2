"""Differential tests: batch execution must equal row execution.

The vectorized engine re-implements every physical operator, so the
highest-risk bug is a silent semantic divergence — different rows,
different simulated I/O, or different start-up decisions than the
record-at-a-time Volcano path.  These tests execute every paper query
in both modes from identically populated databases, across static and
dynamic plans and with tracing on and off, and require byte-identical
result rows, identical ``IOStatistics`` totals, and identical
choose-plan decisions.

Batch-boundary edge cases run separately: empty input, a result
smaller than one batch, batch size 1 (degenerating to row-at-a-time
granularity), and a final partial batch.
"""

import pytest

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import FileScan, HashJoin, Materialized
from repro.catalog import populate_database
from repro.common.errors import ExecutionError, OptimizationError
from repro.cost.parameters import Bindings
from repro.executor.engine import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_EXECUTION_MODE,
    EXECUTION_MODES,
    ExecutionContext,
    execute_plan,
)
from repro.executor.predicates import (
    compile_batch_mask,
    compile_batch_predicate,
    compile_predicate,
)
from repro.executor.vectorized import build_batch_iterator
from repro.observability import Tracer
from repro.optimizer.optimizer import optimize_dynamic, optimize_static
from repro.storage.database import Database
from repro.storage.records import Record
from repro.workloads import binding_series, paper_workload

PAPER_QUERIES = (1, 2, 3, 4, 5)
PLAN_KINDS = ("static", "dynamic")


def _optimize(workload, kind):
    if kind == "static":
        return optimize_static(workload.catalog, workload.query).plan
    return optimize_dynamic(workload.catalog, workload.query).plan


def _run(workload, plan, bindings, mode, tracer=None, batch_size=None):
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    return execute_plan(
        plan,
        database,
        bindings,
        workload.query.parameter_space,
        tracer=tracer,
        execution_mode=mode,
        batch_size=batch_size,
    )


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_batch_matches_row(number, kind, traced):
    workload = paper_workload(number)
    plan = _optimize(workload, kind)
    for bindings in binding_series(workload, count=2, seed=5):
        row = _run(
            workload, plan, bindings, "row",
            tracer=Tracer() if traced else None,
        )
        batch = _run(
            workload, plan, bindings, "batch",
            tracer=Tracer() if traced else None,
        )

        assert batch.records == row.records
        assert batch.io_snapshot == row.io_snapshot
        assert batch.decisions == row.decisions


@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_batch_trace_reports_exact_rows(number, kind):
    """Batch spans advance by batch length: cardinalities stay exact."""
    workload = paper_workload(number)
    plan = _optimize(workload, kind)
    bindings = binding_series(workload, count=1, seed=5)[0]
    row = _run(workload, plan, bindings, "row", tracer=Tracer())
    batch = _run(workload, plan, bindings, "batch", tracer=Tracer())

    assert len(batch.trace.roots) == 1
    root = batch.trace.roots[0]
    assert root.rows == batch.row_count
    assert root.pages_read == batch.io_snapshot["pages_read"]
    assert root.records_processed == batch.io_snapshot["records_processed"]

    # Span-by-span, the batch trace reports the same per-operator rows
    # as the row trace (same tree shape, same cardinalities).
    row_spans = [(s.operator, s.rows) for s, _ in row.trace.walk()]
    batch_spans = [(s.operator, s.rows) for s, _ in batch.trace.walk()]
    assert batch_spans == row_spans


# ----------------------------------------------------------------------
# Batch-boundary edge cases
# ----------------------------------------------------------------------


def _edge_workload():
    """Query 2 (two-way join) — small enough to sweep batch sizes."""
    return paper_workload(2)


@pytest.mark.parametrize("batch_size", (1, 2, 3, 7, 64, 1024))
def test_batch_size_sweep_preserves_results(batch_size):
    """Any batch size — including 1 — yields the row-mode results.

    Covers the partial-final-batch case: the result cardinalities are
    not multiples of most of these sizes, so the last batch is short.
    """
    workload = _edge_workload()
    plan = _optimize(workload, "dynamic")
    bindings = binding_series(workload, count=1, seed=5)[0]
    row = _run(workload, plan, bindings, "row")
    batch = _run(workload, plan, bindings, "batch", batch_size=batch_size)
    assert batch.records == row.records
    assert batch.io_snapshot == row.io_snapshot
    assert batch.decisions == row.decisions


def test_empty_input_produces_no_batches():
    """A selection no record satisfies flows empty batches end to end."""
    workload = _edge_workload()
    plan = _optimize(workload, "static")
    bindings = binding_series(workload, count=1, seed=5)[0]
    # Rebind every selection variable below any stored value, so every
    # scan's filter rejects all records.
    for name in list(bindings._variables):
        bindings.bind_variable(name, -1)
    for name in bindings.parameter_names():
        if name.startswith("sel_"):
            bindings.bind(name, 0.0)
    row = _run(workload, plan, bindings, "row")
    batch = _run(workload, plan, bindings, "batch")
    assert row.records == []
    assert batch.records == []
    assert batch.io_snapshot == row.io_snapshot


def test_result_smaller_than_one_batch():
    """The whole result fits inside a single (default-size) batch."""
    workload = _edge_workload()
    plan = _optimize(workload, "static")
    bindings = binding_series(workload, count=1, seed=5)[0]
    batch = _run(workload, plan, bindings, "batch")
    assert 0 < batch.row_count < DEFAULT_BATCH_SIZE


def test_batch_iterator_emits_multiple_nonempty_batches():
    """A small batch size splits the result into several full batches.

    ``batch_size`` is a target, not a hard cap — operators with
    fan-out (a join emitting a duplicate block) may overshoot rather
    than split mid-unit — but no operator may emit an *empty* batch,
    and a size far below the result cardinality must produce more than
    one batch whose concatenation is the row-mode result.
    """
    workload = _edge_workload()
    plan = _optimize(workload, "static")
    bindings = binding_series(workload, count=1, seed=5)[0]
    row = _run(workload, plan, bindings, "row")
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    context = ExecutionContext(
        database,
        bindings,
        workload.query.parameter_space,
        execution_mode="batch",
        batch_size=4,
    )
    batches = list(build_batch_iterator(plan, context).batches())
    assert len(batches) > 1
    assert all(batch for batch in batches)  # no empty batches emitted
    flattened = [record for batch in batches for record in batch]
    assert flattened == row.records


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------


def test_invalid_execution_mode_rejected(capsys):
    from repro.__main__ import main

    workload = _edge_workload()
    database = Database(workload.catalog)
    # "compiled" named a third engine once; it is now just another
    # unknown mode, rejected with the error that lists the valid ones.
    for mode in ("columnar", "compiled"):
        with pytest.raises(ExecutionError) as excinfo:
            ExecutionContext(database, execution_mode=mode)
        assert repr(EXECUTION_MODES) in str(excinfo.value)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--execution-mode", mode])
        assert exit_info.value.code == 2
        assert "invalid choice: %r" % mode in capsys.readouterr().err
    assert EXECUTION_MODES == ("row", "batch")


def test_invalid_batch_size_rejected():
    workload = _edge_workload()
    database = Database(workload.catalog)
    with pytest.raises(ExecutionError):
        ExecutionContext(database, execution_mode="batch", batch_size=0)


def test_context_defaults():
    workload = _edge_workload()
    database = Database(workload.catalog)
    context = ExecutionContext(database)
    assert context.execution_mode == DEFAULT_EXECUTION_MODE == "batch"
    assert context.batch_size == DEFAULT_BATCH_SIZE


def test_service_execution_mode_default_and_override():
    """The service default applies; per-request mode overrides it."""
    from repro.service import QueryService, ServiceRequest

    workload = _edge_workload()
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    bindings = binding_series(workload, count=1, seed=5)[0]
    with QueryService(
        database, max_workers=1, execution_mode="batch"
    ) as service:
        default_result = service.run(workload.query, bindings)
        row_result = service.run(
            workload.query, bindings, execution_mode="row"
        )
        batched = service.run_batch(
            [
                ServiceRequest(
                    workload.query, bindings, execution_mode="row"
                )
            ]
        )
    assert default_result.execution is not None
    assert default_result.execution.records == row_result.execution.records
    assert batched[0].execution.records == row_result.execution.records


def test_service_rejects_invalid_mode():
    from repro.service import QueryService, ServiceRequest

    workload = _edge_workload()
    database = Database(workload.catalog)
    bindings = binding_series(workload, count=1, seed=5)[0]
    for mode in ("columnar", "compiled"):
        with pytest.raises(ExecutionError) as excinfo:
            QueryService(database, execution_mode=mode)
        assert repr(EXECUTION_MODES) in str(excinfo.value)
        with pytest.raises(ExecutionError):
            ServiceRequest(workload.query, bindings, execution_mode=mode)
    with pytest.raises(ExecutionError):
        ServiceRequest(workload.query, bindings, reopt_policy="sometimes")
    # A bad per-request mode or re-optimization spec is refused at the
    # request boundary, bare (not wrapped as a served-and-failed
    # request), before the cache or the optimizer sees the query.
    with QueryService(database, max_workers=1) as service:
        for option in ({"execution_mode": "compiled"}, {"reopt_policy": "sometimes"}):
            with pytest.raises(ExecutionError) as excinfo:
                service.run(workload.query, bindings, **option)
            assert type(excinfo.value) is ExecutionError
            with pytest.raises(ExecutionError) as excinfo:
                service.submit(workload.query, bindings, **option)
            assert type(excinfo.value) is ExecutionError
        assert len(service.cache) == 0
        assert service.cache.stats_snapshot()["lookups"] == 0
        assert service.stats().requests == 0


def test_workload_spec_execution_mode_roundtrip():
    from repro.workloads.service import ServiceWorkloadSpec

    spec = ServiceWorkloadSpec.from_dict(
        {
            "queries": [{"relations": 2}],
            "invocations": 4,
            "execution_mode": "batch",
        }
    )
    assert spec.execution_mode == "batch"
    assert spec.replace(execution_mode="row").execution_mode == "row"
    unnamed = ServiceWorkloadSpec.from_dict({"queries": [{"relations": 2}]})
    assert unnamed.execution_mode == DEFAULT_EXECUTION_MODE
    with pytest.raises(Exception):
        spec.replace(execution_mode="columnar")
    with pytest.raises(OptimizationError) as excinfo:
        ServiceWorkloadSpec.from_dict(
            {"queries": [{"relations": 2}], "execution_mode": "compiled"}
        )
    assert repr(EXECUTION_MODES) in str(excinfo.value)


# ----------------------------------------------------------------------
# Kernels: operator-specialised batch predicates and the hash probe
# ----------------------------------------------------------------------

_PREDICATE_BATCHES = {
    # attribute asked for -> records; "exact" hits the field dict's key,
    # the other two miss it (KeyError) and suffix-match instead.
    "exact": ("R.a", [Record({"R.a": value, "R.b": -value}) for value in range(7)]),
    "qualified-over-bare": ("R.a", [Record({"a": value}) for value in range(7)]),
    "bare-over-qualified": ("a", [Record({"R.a": value}) for value in range(7)]),
}


@pytest.mark.parametrize("shape", sorted(_PREDICATE_BATCHES))
@pytest.mark.parametrize("op", list(ComparisonOp), ids=lambda op: op.name)
def test_batch_predicate_kernels_match_the_row_closure(op, shape):
    attribute, batch = _PREDICATE_BATCHES[shape]
    bindings = Bindings()
    bindings.bind_variable("v", 3)
    for operand in (3, UserVariable("v")):
        predicate = SelectionPredicate(
            Comparison(attribute, op, operand), known_selectivity=0.5
        )
        qualifies = compile_predicate(predicate, bindings)
        filter_batch = compile_batch_predicate(predicate, bindings)
        mask_batch = compile_batch_mask(predicate, bindings)
        assert filter_batch(batch) == [r for r in batch if qualifies(r)]
        assert mask_batch(batch) == [qualifies(r) for r in batch]
        assert filter_batch([]) == [] and mask_batch([]) == []
        # Exact-key records first, so a miss strikes mid-comprehension:
        # the batch falls back as a whole and still agrees.
        mixed = _PREDICATE_BATCHES["exact"][1] + batch
        assert filter_batch(mixed) == [r for r in mixed if qualifies(r)]
        assert mask_batch(mixed) == [qualifies(r) for r in mixed]


@pytest.mark.parametrize("op", list(ComparisonOp), ids=lambda op: op.name)
def test_batch_predicate_kernels_defer_the_unbound_operand_error(op):
    _, batch = _PREDICATE_BATCHES["exact"]
    predicate = Comparison("R.a", op, UserVariable("v"))
    filter_batch = compile_batch_predicate(predicate, Bindings())  # no error yet
    with pytest.raises(ExecutionError) as by_row:
        compile_predicate(predicate, Bindings())(batch[0])
    with pytest.raises(ExecutionError) as by_batch:
        filter_batch(batch)
    assert str(by_batch.value) == str(by_row.value)
    # No mask: the caller falls back to the row closure and its error.
    assert compile_batch_mask(predicate, Bindings()) is None


def _hash_join_both_modes(build, probe, predicates, batch_size=None):
    workload = _edge_workload()
    plan = HashJoin(
        Materialized(build, FileScan("A")),
        Materialized(probe, FileScan("B")),
        predicates,
    )
    results = {}
    for mode in EXECUTION_MODES:
        database = Database(workload.catalog)
        results[mode] = execute_plan(
            plan, database, execution_mode=mode, batch_size=batch_size
        )
        assert results[mode].io_snapshot == database.io_stats.snapshot()
    return results["row"], results["batch"]


@pytest.mark.parametrize("batch_size", (None, 1, 3))
@pytest.mark.parametrize("secondary", (False, True), ids=("plain", "secondary"))
def test_hash_probe_matches_row_mode(secondary, batch_size):
    # Keys 1 and 2 repeat on both sides, 3 is build-only, 4 probe-only;
    # "tag" is on both sides, so the merged record must take the probe
    # side's value and keep the build side's position for it.
    build = [
        Record({"A.k": key, "A.j": index % 2, "tag": "build-%d" % index})
        for index, key in enumerate((1, 2, 1, 3, 2, 2))
    ]
    probe = [
        Record({"B.k": key, "tag": "probe-%d" % index, "B.j": index % 2})
        for index, key in enumerate((2, 4, 1, 2, 4, 1, 1))
    ]
    predicates = [JoinPredicate("B.k", "A.k")]
    if secondary:
        predicates.append(JoinPredicate("A.j", "B.j"))
    row, batch = _hash_join_both_modes(build, probe, predicates, batch_size)

    assert batch.records == row.records
    assert batch.io_snapshot == row.io_snapshot
    assert [list(r.keys()) for r in batch.records] == [
        list(r.keys()) for r in row.records
    ]
    expected = sum(
        1
        for p in probe
        for b in build
        if b["A.k"] == p["B.k"] and (not secondary or b["A.j"] == p["B.j"])
    )
    assert batch.row_count == expected > 0
    for record in batch.records:
        assert record["tag"].startswith("probe-")
        assert list(record.keys()) == ["A.k", "A.j", "tag", "B.k", "B.j"]
