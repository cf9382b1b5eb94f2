"""One engine, any batch size: the same rows, order, I/O and decisions.

``batch_size`` changes only *when* work happens, never *what* work
happens.  Two things hold that here.  A frozen table: what the deleted
record-at-a-time engine returned and charged for every paper query,
which the one engine must reproduce at every batch size.  And a grid over batch size x shared buffer pool:
rows, row order, choose-plan decisions and every I/O counter are equal
in every cell, except ``pages_read`` under a shared LRU pool, which
depends on how operators' page accesses interleave — i.e. on the batch
size — and is only bounded by the unpooled count.

Batch-boundary edge cases run separately: empty input, a result
smaller than one batch, batch size 1 (record-at-a-time granularity),
and a final partial batch.
"""

import functools
from itertools import compress

import pytest

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import (
    FileScan,
    Filter,
    HashJoin,
    Materialized,
    MergeJoin,
    Sort,
)
from repro.catalog import populate_database
from repro.common.errors import ExecutionError
from repro.cost.parameters import Bindings
from repro.executor.engine import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    execute_plan,
)
from repro.executor.predicates import compile_batch_mask, compile_batch_predicate
from repro.executor.vectorized import build_batch_iterator
from repro.observability import Tracer
from repro.optimizer.optimizer import optimize_dynamic, optimize_static
from repro.resilience.chaos import rows_digest
from repro.storage.database import Database
from repro.storage.records import Layout
from repro.workloads import binding_series, paper_workload, random_bindings
from tests._layouts import LayoutRecorder
from tests._reference import reference_rows

PAPER_QUERIES = (1, 2, 3, 4, 5)
PLAN_KINDS = ("static", "dynamic")
#: ``None`` is the engine default (:data:`DEFAULT_BATCH_SIZE`).
BATCH_SIZES = (1, 3, None)
IO_KEYS = ("pages_read", "pages_written", "records_processed", "index_probes")

#: What the record-at-a-time engine charged, captured at the last
#: commit that had it (b46c6bb): paper query x plan kind, data seed 11,
#: ``random_bindings(workload, seed=0)``, no buffer pool — in
#: :data:`IO_KEYS` order.
ROW_ENGINE_IO = {
    (1, "static"): (116, 0, 113, 1),
    (1, "dynamic"): (138, 0, 1100, 0),
    (2, "static"): (254, 0, 279, 43),
    (2, "dynamic"): (275, 0, 2878, 0),
    (3, "static"): (482, 0, 682, 74),
    (3, "dynamic"): (550, 0, 5830, 0),
    (4, "static"): (544, 0, 645, 104),
    (4, "dynamic"): (566, 0, 4112, 37),
    (5, "static"): (818, 0, 923, 168),
    (5, "dynamic"): (735, 0, 5930, 46),
}

#: ``rows_digest`` of what it returned (the same for both plan kinds).
ROW_ENGINE_ROWS = {
    1: "f6c2e3c400c48dffb07ae26bda94d6f4e8cf8fea843f498284b17b62025430ee",
    2: "c83e1f22f71bc403ed98963aa0543d0df0502b5b74d1d02265f55dbcfad30409",
    3: "7401e08965a1ff209881590cc2e473550b84ff7b13ec9f8135ecbdbaa1b906ae",
    4: "4bfe11ad5ad293d51f936c0c1676504050d356e92b0f864948796e8cbc176c96",
    5: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def _optimize(workload, kind):
    if kind == "static":
        return optimize_static(workload.catalog, workload.query).plan
    return optimize_dynamic(workload.catalog, workload.query).plan


def _run(workload, plan, bindings, tracer=None, batch_size=None,
         use_buffer_pool=False):
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    return execute_plan(
        plan,
        database,
        bindings,
        workload.query.parameter_space,
        use_buffer_pool=use_buffer_pool,
        tracer=tracer,
        batch_size=batch_size,
    )


@functools.lru_cache(maxsize=None)
def _frozen_case(number, kind):
    """The frozen table's workload, plan, bindings and a default run."""
    workload = paper_workload(number)
    plan = _optimize(workload, kind)
    bindings = random_bindings(workload, seed=0)
    return workload, plan, bindings, _run(workload, plan, bindings)


def _frozen_io(number, kind):
    return dict(zip(IO_KEYS, ROW_ENGINE_IO[number, kind]))


@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_frozen_rows_are_the_reference_rows(number):
    """The frozen digests are right, not merely what an engine said."""
    workload, _plan, bindings, _default = _frozen_case(number, "static")
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    expected = reference_rows(workload, database, bindings)
    assert rows_digest(expected) == ROW_ENGINE_ROWS[number]


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_batch_matches_row(number, kind, traced):
    """Default batches, traced or not, reproduce the row engine."""
    workload, plan, bindings, default = _frozen_case(number, kind)
    result = _run(
        workload, plan, bindings, tracer=Tracer() if traced else None
    )
    assert result.io_snapshot == _frozen_io(number, kind)
    assert rows_digest(result.records) == ROW_ENGINE_ROWS[number]
    assert result.records == default.records
    assert result.decisions == default.decisions


@pytest.mark.parametrize("pooled", (False, True), ids=("unpooled", "pooled"))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_batch_size_moves_only_pooled_pages_read(number, batch_size, pooled):
    """Every batch size reproduces the row engine; a shared pool may
    save page reads, by an amount that depends on the batch size."""
    for kind in PLAN_KINDS:
        workload, plan, bindings, default = _frozen_case(number, kind)
        result = _run(
            workload, plan, bindings,
            batch_size=batch_size, use_buffer_pool=pooled,
        )
        assert result.records == default.records  # same rows, same order
        assert rows_digest(result.records) == ROW_ENGINE_ROWS[number]
        assert result.decisions == default.decisions
        io, frozen = dict(result.io_snapshot), _frozen_io(number, kind)
        if pooled:
            assert io.pop("pages_read") <= frozen.pop("pages_read")
        assert io == frozen, kind


@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_batch_trace_reports_exact_rows(number, kind):
    """Batch spans advance by batch length: cardinalities stay exact."""
    workload = paper_workload(number)
    plan = _optimize(workload, kind)
    bindings = binding_series(workload, count=1, seed=5)[0]
    single = _run(workload, plan, bindings, tracer=Tracer(), batch_size=1)
    batch = _run(workload, plan, bindings, tracer=Tracer())

    assert len(batch.trace.roots) == 1
    root = batch.trace.roots[0]
    assert root.rows == batch.row_count
    assert root.pages_read == batch.io_snapshot["pages_read"]
    assert root.records_processed == batch.io_snapshot["records_processed"]

    # Span-by-span, a trace reports the same per-operator rows whether
    # an advance moves one record or a thousand (same tree shape, same
    # cardinalities).
    single_spans = [(s.operator, s.rows) for s, _ in single.trace.walk()]
    batch_spans = [(s.operator, s.rows) for s, _ in batch.trace.walk()]
    assert batch_spans == single_spans


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("number", PAPER_QUERIES)
def test_every_operator_emits_one_layout(number, kind, batch_size):
    """Kernels index tuples by positions resolved once on their input's
    layout, so every operator has one layout object, emits only values
    tuples as wide as it, and the result's records are on the root's."""
    workload, plan, bindings, default = _frozen_case(number, kind)
    recorder = LayoutRecorder()
    result = _run(workload, plan, bindings, tracer=recorder, batch_size=batch_size)
    assert result.records == default.records
    assert recorder.emitting()
    assert recorder.mismatched() == []
    root = recorder.root().layout
    assert all(record._layout is root for record in result.records)


# ----------------------------------------------------------------------
# Batch-boundary edge cases
# ----------------------------------------------------------------------


def _edge_workload():
    """Query 2 (two-way join) — small enough to sweep batch sizes."""
    return paper_workload(2)


@pytest.mark.parametrize("batch_size", (1, 2, 3, 7, 64, 1024))
def test_batch_size_sweep_preserves_results(batch_size):
    """Any batch size — including 1 — yields the same results.

    Covers the partial-final-batch case: the result cardinalities are
    not multiples of most of these sizes, so the last batch is short.
    """
    workload = _edge_workload()
    plan = _optimize(workload, "dynamic")
    bindings = binding_series(workload, count=1, seed=5)[0]
    single = _run(workload, plan, bindings, batch_size=1)
    batch = _run(workload, plan, bindings, batch_size=batch_size)
    assert batch.records == single.records
    assert batch.io_snapshot == single.io_snapshot
    assert batch.decisions == single.decisions


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
    single = _run(workload, plan, bindings, batch_size=1)
    batch = _run(workload, plan, bindings)
    assert single.records == []
    assert batch.records == []
    assert batch.io_snapshot == single.io_snapshot


def test_result_smaller_than_one_batch():
    """The whole result fits inside a single (default-size) batch."""
    workload = _edge_workload()
    plan = _optimize(workload, "static")
    bindings = binding_series(workload, count=1, seed=5)[0]
    batch = _run(workload, plan, bindings)
    assert 0 < batch.row_count < DEFAULT_BATCH_SIZE


def test_batch_iterator_emits_multiple_nonempty_batches():
    """A small batch size splits the result into several full batches.

    ``batch_size`` is a target, not a hard cap — operators with
    fan-out (a join emitting a duplicate block) may overshoot rather
    than split mid-unit — but no operator may emit an *empty* batch,
    and a size far below the result cardinality must produce more than
    one batch whose concatenation is the default-size result.
    """
    workload = _edge_workload()
    plan = _optimize(workload, "static")
    bindings = binding_series(workload, count=1, seed=5)[0]
    whole = _run(workload, plan, bindings)
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    context = ExecutionContext(
        database,
        bindings,
        workload.query.parameter_space,
        batch_size=4,
    )
    root = build_batch_iterator(plan, context)
    batches = list(root.batches())
    assert len(batches) > 1
    assert all(batch for batch in batches)  # no empty batches emitted
    flattened = [row for batch in batches for row in batch]
    assert flattened == [record._values for record in whole.records]
    assert root.layout.records(flattened) == whole.records


# ----------------------------------------------------------------------
# Batch-size plumbing
# ----------------------------------------------------------------------


def test_invalid_batch_size_rejected():
    workload = _edge_workload()
    database = Database(workload.catalog)
    with pytest.raises(ExecutionError):
        ExecutionContext(database, batch_size=0)


def test_context_defaults():
    workload = _edge_workload()
    database = Database(workload.catalog)
    context = ExecutionContext(database)
    assert context.batch_size == DEFAULT_BATCH_SIZE


# ----------------------------------------------------------------------
# Kernels: operator-specialised batch predicates and the hash probe
# ----------------------------------------------------------------------

def _batch(names, rows):
    """Value tuples and the layout they are read through, as every
    engine batch is."""
    return Layout(names), [tuple(row) for row in rows]


_PREDICATE_BATCHES = {
    # attribute asked for -> (layout, rows); "exact" is a name of the
    # layout, the other two resolve to a position by suffix match.
    "exact": ("R.a", _batch(("R.a", "R.b"), [(v, -v) for v in range(7)])),
    "qualified-over-bare": ("R.a", _batch(("a",), [(v,) for v in range(7)])),
    "bare-over-qualified": ("a", _batch(("R.a",), [(v,) for v in range(7)])),
}


@pytest.mark.parametrize("shape", sorted(_PREDICATE_BATCHES))
@pytest.mark.parametrize("op", list(ComparisonOp), ids=lambda op: op.name)
def test_batch_predicate_kernels_match_the_row_closure(op, shape):
    """Kernels compiled for a layout select what the interpreted
    per-record predicate selects on the same rows as Records."""
    attribute, (layout, rows) = _PREDICATE_BATCHES[shape]
    bindings = Bindings()
    bindings.bind_variable("v", 3)
    for operand in (3, UserVariable("v")):
        predicate = SelectionPredicate(
            Comparison(attribute, op, operand), known_selectivity=0.5
        )
        # The same rows on another layout, the attribute one place
        # further right: kernels compiled for it pick the other position.
        shifted = Layout(("X.z",) + layout.names)
        shifted_rows = [(-100, *row) for row in rows]
        for on, batch in ((layout, rows), (shifted, shifted_rows)):
            filter_batch = compile_batch_predicate(predicate, bindings, on)
            mask_batch = compile_batch_mask(predicate, bindings, on)
            qualifies = [predicate.evaluate(r, bindings) for r in on.records(batch)]
            assert filter_batch(batch) == list(compress(batch, qualifies))
            assert mask_batch(batch) == qualifies
            assert filter_batch([]) == [] and mask_batch([]) == []


@pytest.mark.parametrize("op", list(ComparisonOp), ids=lambda op: op.name)
def test_batch_predicate_kernels_defer_the_unbound_operand_error(op):
    _, (layout, rows) = _PREDICATE_BATCHES["exact"]
    predicate = Comparison("R.a", op, UserVariable("v"))
    with pytest.raises(ExecutionError) as by_row:
        predicate.evaluate(layout.record(rows[0]), Bindings())
    for compile_batch in (compile_batch_predicate, compile_batch_mask):
        kernel = compile_batch(predicate, Bindings(), layout)  # no error yet
        assert kernel([]) == []  # nor on an empty batch
        with pytest.raises(ExecutionError) as by_batch:
            kernel(rows)
        assert str(by_batch.value) == str(by_row.value)


_A = Layout(("A.k", "A.j", "C.k"))
_B = Layout(("B.k", "B.j"))
_AB = _A.merged(_B)[0]


def _selection(attribute, operand=1):
    return SelectionPredicate(
        Comparison(attribute, ComparisonOp.EQ, operand), known_selectivity=0.5
    )


#: case -> (plan over inputs a and b, the layout and attribute whose
#: ``Record`` indexing gives the expected error, or ``None`` for the
#: unbound variable).  "k" matches A.k and C.k: ambiguous.
_DEFERRED_ERRORS = {
    "filter-absent": (lambda a, b: Filter(a, _selection("A.zzz")), (_A, "A.zzz")),
    "filter-ambiguous": (lambda a, b: Filter(a, _selection("k")), (_A, "k")),
    "filter-unbound": (
        lambda a, b: Filter(a, _selection("A.k", UserVariable("v"))),
        None,
    ),
    "hash-key-absent": (
        lambda a, b: HashJoin(a, b, [JoinPredicate("A.zzz", "B.k")]),
        (_A, "A.zzz"),
    ),
    "hash-key-ambiguous": (
        lambda a, b: HashJoin(a, b, [JoinPredicate("B.k", "k")]),
        (_A, "k"),
    ),
    "merge-key-absent": (
        lambda a, b: MergeJoin(a, b, [JoinPredicate("A.k", "B.zzz")]),
        (_B, "B.zzz"),
    ),
    "merge-key-ambiguous": (
        lambda a, b: MergeJoin(a, b, [JoinPredicate("B.k", "k")]),
        (_A, "k"),
    ),
    "sort-key-absent": (lambda a, b: Sort(a, "A.zzz"), (_A, "A.zzz")),
    "sort-key-ambiguous": (lambda a, b: Sort(a, "k"), (_A, "k")),
    "secondary-absent": (
        lambda a, b: HashJoin(
            a, b, [JoinPredicate("A.k", "B.k"), JoinPredicate("A.j", "B.zzz")]
        ),
        (_AB, "B.zzz"),
    ),
    "secondary-ambiguous": (
        lambda a, b: HashJoin(
            a, b, [JoinPredicate("A.k", "B.k"), JoinPredicate("k", "B.j")]
        ),
        (_AB, "k"),
    ),
}


@pytest.mark.parametrize("case", sorted(_DEFERRED_ERRORS))
def test_unresolvable_names_raise_only_on_a_non_empty_input(case):
    """An attribute a layout lacks or matches twice, or an unbound
    variable, is resolved at open but raises only when a kernel meets a
    tuple — with the message ``Record`` indexing (or the interpreted
    operand) raises."""
    make, expected = _DEFERRED_ERRORS[case]
    if expected is None:
        with pytest.raises(ExecutionError) as reference:
            UserVariable("v").resolve(Bindings())
    else:
        layout, attribute = expected
        with pytest.raises(ExecutionError) as reference:
            layout.record((0,) * len(layout.names))[attribute]
    database = Database(_edge_workload().catalog)

    def run(a_rows, b_rows):
        plan = make(
            Materialized(a_rows, FileScan("A"), _A),
            Materialized(b_rows, FileScan("B"), _B),
        )
        return execute_plan(plan, database, batch_size=1)

    assert run([], []).records == []
    with pytest.raises(ExecutionError) as raised:
        run([(1, 0, 5), (2, 1, 6)], [(1, 0), (2, 1)])
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("batch_size", (None, 1, 3))
@pytest.mark.parametrize("secondary", (False, True), ids=("plain", "secondary"))
def test_hash_probe_matches_row_mode(secondary, batch_size):
    # Keys 1 and 2 repeat on both sides, 3 is build-only, 4 probe-only;
    # "tag" is on both sides, so the merged record must take the probe
    # side's value and keep the build side's position for it.
    build_layout, build_rows = _batch(
        ("A.k", "A.j", "tag"),
        [
            (key, index % 2, "build-%d" % index)
            for index, key in enumerate((1, 2, 1, 3, 2, 2))
        ],
    )
    probe_layout, probe_rows = _batch(
        ("B.k", "tag", "B.j"),
        [
            (key, "probe-%d" % index, index % 2)
            for index, key in enumerate((2, 4, 1, 2, 4, 1, 1))
        ],
    )
    build = build_layout.records(build_rows)
    probe = probe_layout.records(probe_rows)
    predicates = [JoinPredicate("B.k", "A.k")]
    if secondary:
        predicates.append(JoinPredicate("A.j", "B.j"))
    plan = HashJoin(
        Materialized(build_rows, FileScan("A"), build_layout),
        Materialized(probe_rows, FileScan("B"), probe_layout),
        predicates,
    )
    database = Database(_edge_workload().catalog)
    batch = execute_plan(plan, database, batch_size=batch_size)
    assert batch.io_snapshot == database.io_stats.snapshot()

    # Record at a time: each probe record against the build records in
    # build order, the probe side's fields merged over the build side's.
    expected = [
        b.merged_with(p)
        for p in probe
        for b in build
        if b["A.k"] == p["B.k"] and (not secondary or b["A.j"] == p["B.j"])
    ]
    assert batch.records == expected
    assert len(expected) > 0
    # Build, probe and output records are each charged once.
    assert batch.io_snapshot["records_processed"] == (
        len(build) + len(probe) + len(expected)
    )
    for record in batch.records:
        assert record["tag"].startswith("probe-")
        assert list(record.keys()) == ["A.k", "A.j", "tag", "B.k", "B.j"]
