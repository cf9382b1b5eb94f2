"""The Volcano iterator protocol: open / next-batch / close semantics."""

import pytest

from repro.algebra.physical import FileScan, Filter
from repro.common.errors import ExecutionError
from repro.executor.engine import ExecutionContext
from repro.executor.vectorized import build_batch_iterator
from repro.workloads import random_bindings


@pytest.fixture()
def context(workload1, database1):
    bindings = random_bindings(workload1, seed=0)
    return ExecutionContext(
        database1, bindings, workload1.query.parameter_space, batch_size=1
    )


class TestProtocol:
    def test_open_is_idempotent(self, context):
        iterator = build_batch_iterator(FileScan("R1"), context)
        iterator.open()
        stream = iterator._stream
        iterator.open()
        assert iterator._stream is stream

    def test_explicit_next_calls(self, context, workload1):
        stream = build_batch_iterator(FileScan("R1"), context).batches()
        first = next(stream)
        second = next(stream)
        assert first and second and first is not second
        count = len(first) + len(second)
        while True:
            try:
                count += len(next(stream))
            except StopIteration:
                break
        assert count == workload1.catalog.cardinality("R1")

    def test_close_then_reopen_restarts(self, context, workload1):
        iterator = build_batch_iterator(FileScan("R1"), context)
        first_run = [record for batch in iterator for record in batch]
        iterator.close()
        second_run = [record for batch in iterator for record in batch]
        assert first_run == second_run
        assert len(first_run) == workload1.catalog.cardinality("R1")

    def test_iteration_protocol(self, context):
        iterator = build_batch_iterator(FileScan("R1"), context)
        assert iter(iterator) is iterator._stream

    def test_unknown_operator_rejected(self, context):
        class Bogus:
            def inputs(self):
                return ()

        with pytest.raises(ExecutionError):
            build_batch_iterator(Bogus(), context)

    def test_filter_streams_lazily(self, context, workload1):
        # Pulling a single batch must not scan the whole relation.
        predicate = workload1.query.selection_for("R1")
        domain = workload1.catalog.domain_size("R1", "a")
        context.bindings.bind_variable("v_R1", domain)  # everything passes
        before = context.io_stats.pages_read
        iterator = build_batch_iterator(
            Filter(FileScan("R1"), predicate), context
        )
        next(iterator.batches())
        pages_touched = context.io_stats.pages_read - before
        total_pages = workload1.catalog.statistics("R1").pages
        assert pages_touched < total_pages / 2
