"""Plan execution: contexts, results, and the ``execute_plan`` entry.

Execution works on *any* physical plan: static plans run directly;
dynamic plans make their choose-plan decisions at open time through
:func:`~repro.executor.startup.resolve_dynamic_plan`, one pass of the
plan's compiled decision program under the context's bindings, exactly
as in the paper's start-up architecture.  The context's run-time cost
model only feeds the per-operator profile of a traced run.
"""

import time

from repro.common.errors import ExecutionError, QueryTimeoutError
from repro.cost.formulas import CostModel
from repro.cost.parameters import (
    Bindings,
    MEMORY_PARAMETER,
    ParameterSpace,
    Valuation,
)
from repro.executor.vectorized import DEFAULT_BATCH_SIZE, build_batch_iterator
from repro.resilience.deadline import Deadline


class ExecutionContext:
    """Everything iterators need: data, bindings, memory and limits."""

    def __init__(self, database, bindings=None, parameter_space=None,
                 use_buffer_pool=False, tracer=None, batch_size=None,
                 deadline=None):
        self.database = database
        self.bindings = bindings if bindings is not None else Bindings()
        self.parameter_space = (
            parameter_space if parameter_space is not None else ParameterSpace()
        )
        batch_size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        #: Target records per operator advance (1 = record-at-a-time).
        self.batch_size = batch_size
        #: Optional :class:`~repro.observability.trace.Tracer`; iterators
        #: record per-operator spans when one is attached.
        self.tracer = tracer
        #: Optional :class:`~repro.resilience.deadline.Deadline`
        #: (accepts plain seconds); iterators check it at open and the
        #: drive loop checks it at every batch boundary.
        self.deadline = Deadline.ensure(deadline)
        self._cost_model = None
        #: choose-plan decisions made during this execution:
        #: list of (choose_plan_node, chosen_alternative)
        self.decisions = []
        if use_buffer_pool:
            from repro.storage.buffer import BufferPool

            #: LRU pool sized by the run-time memory grant ([MaL89]).
            self.buffer_pool = BufferPool(
                self.memory_pages,
                fault_injector=getattr(database, "fault_injector", None),
            )
        else:
            self.buffer_pool = None

    @property
    def io_stats(self):
        """The database's shared I/O accounting."""
        return self.database.io_stats

    @property
    def memory_pages(self):
        """Memory available to hash joins and sorts, in pages.

        An installed fault injector may report a *smaller* grant once
        a memory-drop stage has fired — the mid-query divergence the
        service's degradation path re-decides choose-plans under.
        """
        if self.bindings.has_parameter(MEMORY_PARAMETER):
            pages = int(self.bindings.parameter(MEMORY_PARAMETER))
        elif MEMORY_PARAMETER in self.parameter_space:
            pages = int(self.parameter_space.get(MEMORY_PARAMETER).expected)
        else:
            pages = 64
        injector = getattr(self.database, "fault_injector", None)
        if injector is not None:
            pages = injector.current_memory_pages(pages)
        return pages

    @property
    def cost_model(self):
        """Memoizing run-time cost model (lazy); a traced run's profile reads it."""
        if self._cost_model is None:
            valuation = Valuation.runtime(self.parameter_space, self.bindings)
            self._cost_model = CostModel(self.database.catalog, valuation)
        return self._cost_model

    def record_decision(self, choose_plan_node, chosen):
        """Log a choose-plan decision for :attr:`ExecutionResult.decisions`."""
        self.decisions.append((choose_plan_node, chosen))


class ExecutionResult:
    """Records produced plus the accounting of the run."""

    def __init__(self, records, io_snapshot, decisions, elapsed_seconds,
                 trace=None, profile=None):
        self.records = records
        self.io_snapshot = io_snapshot
        self.decisions = decisions
        self.elapsed_seconds = elapsed_seconds
        #: :class:`~repro.observability.trace.ExecutionTrace` of the
        #: run, or ``None`` when executed without a tracer.
        self.trace = trace
        #: :class:`~repro.observability.explain.ExecutionProfile` with
        #: per-operator estimated-vs-actual figures, or ``None``.
        self.profile = profile

    @property
    def row_count(self):
        """Number of result records."""
        return len(self.records)

    def simulated_seconds(self):
        """Fold the I/O counters into simulated seconds."""
        from repro.common.units import CPU_COST_WEIGHT, IO_TIME_PER_PAGE

        pages = self.io_snapshot["pages_read"] + self.io_snapshot["pages_written"]
        return (
            pages * IO_TIME_PER_PAGE
            + self.io_snapshot["records_processed"] * CPU_COST_WEIGHT
        )

    def __repr__(self):
        return "ExecutionResult(%d rows, io=%r)" % (self.row_count, self.io_snapshot)


def execute_plan(plan, database, bindings=None, parameter_space=None,
                 use_buffer_pool=False, tracer=None, batch_size=None,
                 deadline=None):
    """Run a physical plan to completion and return the result.

    Unbound user variables in predicates raise
    :class:`~repro.common.errors.ExecutionError`; supply them via
    ``bindings``.  With ``use_buffer_pool=True`` heap-page accesses go
    through an LRU pool sized by the memory grant, so repeated fetches
    of hot pages cost no I/O (the [MaL89] refinement).

    The one engine (:mod:`repro.executor.vectorized`) moves
    ``batch_size`` value tuples per operator advance
    (:data:`~repro.executor.vectorized.DEFAULT_BATCH_SIZE` when
    ``None``; less than 1 raises ``ExecutionError``); the root's tuples
    become the result's :class:`~repro.storage.records.Record` objects,
    on the root operator's layout, inside the timed run.  Every batch size
    produces identical result rows, row order and choose-plan
    decisions, and identical simulated I/O except ``pages_read`` under
    ``use_buffer_pool=True``; ``batch_size=1`` is record-at-a-time
    execution.

    With a :class:`~repro.observability.trace.Tracer` every operator
    records a span and the result carries a ``trace`` and a per-operator
    estimated-vs-actual ``profile``; tracing never changes the records
    produced or the simulated I/O charged (the differential tests'
    invariant).

    ``deadline`` (seconds, or a prebuilt
    :class:`~repro.resilience.deadline.Deadline`) arms cooperative
    cancellation: iterators check it once at open and the drive loop
    checks it at every batch boundary — so an expiry is noticed up to
    ``batch_size`` records late; ``batch_size=1`` checks at every
    record.
    Expiry raises :class:`~repro.common.errors.QueryTimeoutError`
    carrying the rows produced so far, the I/O charged so far, and the
    partial trace when a tracer is attached; the plan's iterators are
    closed before the error propagates, so no operator state leaks.
    """
    if plan is None:
        raise ExecutionError("cannot execute an empty plan")
    context = ExecutionContext(database, bindings, parameter_space,
                               use_buffer_pool=use_buffer_pool,
                               tracer=tracer,
                               batch_size=batch_size,
                               deadline=deadline)
    started = time.perf_counter()
    layout, rows, delta = drive(plan, context)
    records = layout.records(rows)
    elapsed = time.perf_counter() - started
    result = ExecutionResult(records, delta, list(context.decisions), elapsed)
    if tracer is not None:
        from repro.observability.explain import build_profile

        result.trace = tracer.trace()
        result.profile = build_profile(result.trace, context.cost_model)
    return result


def drive(plan, context):
    """Run ``plan`` to completion under ``context``.

    Returns ``(layout, rows, io)``: the root operator's
    :class:`~repro.storage.records.Layout`, its value tuples in order,
    and the I/O charged.  This is :func:`execute_plan` before result
    assembly; a mid-query checkpoint keeps what it returns as it is.
    A :class:`~repro.common.errors.QueryTimeoutError` carries the rows
    produced, the I/O charged and (with a tracer) the trace so far.
    """
    deadline = context.deadline
    before = context.io_stats.snapshot()
    rows = []
    try:
        root = build_batch_iterator(plan, context)
        if deadline is None:
            for batch in root.batches():
                rows.extend(batch)
        else:
            stream = root.batches()
            try:
                while True:
                    deadline.check()
                    batch = next(stream, None)
                    if batch is None:
                        break
                    rows.extend(batch)
            finally:
                root.close()
    except QueryTimeoutError as error:
        after = context.io_stats.snapshot()
        error.rows_produced = len(rows)
        error.io_snapshot = {key: after[key] - before[key] for key in after}
        if context.tracer is not None:
            error.trace = context.tracer.trace()
        raise
    after = context.io_stats.snapshot()
    return root.layout, rows, {key: after[key] - before[key] for key in after}
