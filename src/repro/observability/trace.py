"""Structured execution tracing for the Volcano executor.

A :class:`Tracer` collects one :class:`OperatorSpan` per iterator
instance in an executed plan tree, plus one :class:`TraceEvent` per
noted occurrence.  A span accumulates the operator's *inclusive*
work: rows produced, simulated I/O charged to the shared
:class:`~repro.storage.iostats.IOStatistics` while the operator's
stream was advancing (which covers its whole subtree, exactly like
the cost model's inclusive cost formulas), and wall-clock seconds.
Exclusive figures are derived by subtracting child spans.

Observer effect: tracing must never change what a plan computes or
charges.  Spans only *read* the I/O counters (snapshot deltas around
each generator advance) and never write to them; the differential
tests in ``tests/test_observability_differential.py`` hold this
invariant across all five paper queries.

Disabled cost: execution contexts carry ``tracer=None`` by default.
The only instrumentation on that path is one ``is None`` test per
iterator *open* (not per record), so tracing adds no measurable
overhead when off — asserted by ``benchmarks/bench_service_cache.py``.
"""

from time import perf_counter


def q_error(estimate, actual, floor=1.0):
    """The q-error of a cardinality estimate: ``max(est/act, act/est)``.

    Both quantities are floored (at one row by default) so empty and
    near-empty results produce finite, comparable errors; a perfect
    estimate scores 1.0 and the measure is symmetric in over- and
    under-estimation, following the standard definition of Moerkotte
    et al. and its use in adaptive-cost-model work.
    """
    est = max(float(estimate), floor)
    act = max(float(actual), floor)
    if est >= act:
        return est / act
    return act / est


class OperatorSpan:
    """Inclusive accounting of one operator instance in one execution."""

    __slots__ = (
        "index",
        "parent_index",
        "plan",
        "operator",
        "detail",
        "rows",
        "wall_seconds",
        "pages_read",
        "pages_written",
        "records_processed",
        "index_probes",
        "children",
        "exhausted",
    )

    def __init__(self, index, parent_index, plan):
        self.index = index
        self.parent_index = parent_index
        self.plan = plan
        self.operator = plan.operator_name()
        self.detail = _operator_detail(plan)
        self.rows = 0
        self.wall_seconds = 0.0
        self.pages_read = 0
        self.pages_written = 0
        self.records_processed = 0
        self.index_probes = 0
        #: Indices of child spans, in open order.
        self.children = []
        #: True once the operator's stream raised ``StopIteration``.
        self.exhausted = False

    @property
    def total_pages(self):
        """Pages read plus written inside this operator's subtree."""
        return self.pages_read + self.pages_written

    def simulated_seconds(self):
        """Inclusive simulated cost, folded like ``IOStatistics``."""
        from repro.common.units import CPU_COST_WEIGHT, IO_TIME_PER_PAGE

        return (
            self.total_pages * IO_TIME_PER_PAGE
            + self.records_processed * CPU_COST_WEIGHT
        )

    def label(self):
        """Operator name plus its node-local detail."""
        if self.detail:
            return "%s %s" % (self.operator, self.detail)
        return self.operator

    def __repr__(self):
        return "OperatorSpan(%s, rows=%d, pages=%d)" % (
            self.label(),
            self.rows,
            self.total_pages,
        )


class TraceEvent:
    """One discrete, levelled occurrence noted during a traced activity.

    Events record things spans cannot: a promoted plan, a retry after
    an injected fault, a mid-run plan degradation.  ``level`` is
    ``"info"`` or ``"warn"``; ``meta`` carries free-form details.
    """

    __slots__ = ("name", "level", "meta")

    def __init__(self, name, level="info", meta=None):
        self.name = name
        self.level = level
        self.meta = dict(meta or {})

    def __repr__(self):
        return "TraceEvent(%s, %s)" % (self.name, self.level)


class _TracedBatchStream:
    """Iterator wrapper accumulating span counters per advance.

    Around every ``next`` on the underlying generator the wrapper
    snapshots the shared I/O counters and the clock, and makes its
    span the tracer's *current* span so operators opened inside the
    advance (children pulled for the first time, choose-plan's chosen
    alternative) link to it as their parent.  One advance covers a
    whole batch and rows advance by the batch's length, so spans
    report *exact* record counts — ``explain --analyze`` cardinalities
    and q-error reports are identical at every batch size; only the
    per-advance wall-clock granularity differs.
    """

    __slots__ = ("_tracer", "_span", "_stream", "_io")

    def __init__(self, tracer, span, stream, io_stats):
        self._tracer = tracer
        self._span = span
        self._stream = stream
        self._io = io_stats

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = self._span
        io = self._io
        previous = tracer._current
        tracer._current = span
        pages_read = io.pages_read
        pages_written = io.pages_written
        records = io.records_processed
        probes = io.index_probes
        started = perf_counter()
        try:
            batch = next(self._stream)
        except StopIteration:
            span.exhausted = True
            raise
        finally:
            span.wall_seconds += perf_counter() - started
            span.pages_read += io.pages_read - pages_read
            span.pages_written += io.pages_written - pages_written
            span.records_processed += io.records_processed - records
            span.index_probes += io.index_probes - probes
            tracer._current = previous
        span.rows += len(batch)
        return batch


class Tracer:
    """Collects operator spans and events for one traced activity.

    A tracer is single-execution, single-thread state (like an
    :class:`~repro.executor.engine.ExecutionContext`); concurrent
    executions each get their own tracer.
    """

    def __init__(self):
        self.spans = []
        self.events = []
        self._current = None

    # ------------------------------------------------------------------
    # Operator spans (driven by repro.executor.vectorized)
    # ------------------------------------------------------------------

    def begin_operator(self, plan):
        """Open a span for a plan node under the current parent."""
        parent = self._current
        span = OperatorSpan(
            len(self.spans),
            parent.index if parent is not None else None,
            plan,
        )
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span.index)
        return span

    def instrument_batches(self, iterator):
        """Open a span for an iterator and wrap its batch stream.

        Called by :meth:`BatchPlanIterator.open
        <repro.executor.vectorized.BatchPlanIterator>` exactly once per
        iterator.  The ``_produce_batches`` call itself runs under the
        span too, because several operators (merge join, choose-plan)
        do real work — including opening children — while producing
        their stream.
        """
        span = self.begin_operator(iterator.plan)
        io = iterator.io_stats
        previous = self._current
        self._current = span
        pages_read = io.pages_read
        pages_written = io.pages_written
        records = io.records_processed
        probes = io.index_probes
        started = perf_counter()
        try:
            stream = iterator._produce_batches()
        finally:
            span.wall_seconds += perf_counter() - started
            span.pages_read += io.pages_read - pages_read
            span.pages_written += io.pages_written - pages_written
            span.records_processed += io.records_processed - records
            span.index_probes += io.index_probes - probes
            self._current = previous
        return _TracedBatchStream(self, span, stream, io)

    # ------------------------------------------------------------------
    # Events (driven by the service's resilience paths)
    # ------------------------------------------------------------------

    def event(self, name, level="info", **meta):
        """Record one discrete :class:`TraceEvent`; returns it."""
        event = TraceEvent(name, level, meta)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def trace(self):
        """The collected operator spans as an :class:`ExecutionTrace`."""
        return ExecutionTrace(self.spans, self.events)

    def __repr__(self):
        return "Tracer(%d spans, %d events)" % (len(self.spans), len(self.events))


class ExecutionTrace:
    """The span forest of one execution, with derived aggregates."""

    def __init__(self, spans, events=()):
        self.spans = list(spans)
        self.events = list(events)

    @property
    def roots(self):
        """Spans with no parent (one per executed plan root)."""
        return [span for span in self.spans if span.parent_index is None]

    def exclusive(self, span):
        """Span counters minus the inclusive counters of its children.

        Returns a dict with ``wall_seconds``, ``pages_read``,
        ``pages_written``, ``records_processed``, and ``index_probes``.
        Clamped at zero: a child opened eagerly inside the parent's
        produce step is measured by both windows, never negatively.
        """
        children = [self.spans[index] for index in span.children]
        return {
            "wall_seconds": max(
                0.0,
                span.wall_seconds - sum(c.wall_seconds for c in children),
            ),
            "pages_read": max(
                0, span.pages_read - sum(c.pages_read for c in children)
            ),
            "pages_written": max(
                0, span.pages_written - sum(c.pages_written for c in children)
            ),
            "records_processed": max(
                0,
                span.records_processed
                - sum(c.records_processed for c in children),
            ),
            "index_probes": max(
                0, span.index_probes - sum(c.index_probes for c in children)
            ),
        }

    def walk(self):
        """Yield ``(span, depth)`` in execution-tree order."""
        index_children = {span.index: span.children for span in self.spans}

        def visit(span, depth):
            yield span, depth
            for child_index in index_children[span.index]:
                yield from visit(self.spans[child_index], depth + 1)

        for root in self.roots:
            yield from visit(root, 0)

    def render(self, show_wall=False):
        """Indented textual rendering of the span forest."""
        lines = []
        for span, depth in self.walk():
            line = "%s%s  rows=%d pages=%d records=%d" % (
                "  " * depth,
                span.label(),
                span.rows,
                span.total_pages,
                span.records_processed,
            )
            if show_wall:
                line += " wall=%.6fs" % span.wall_seconds
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return "ExecutionTrace(%d spans)" % len(self.spans)


def _operator_detail(plan):
    """Node-local description used in span labels (deterministic)."""
    relation = getattr(plan, "relation_name", None)
    if relation is not None:
        attribute = getattr(plan, "attribute", None)
        if attribute is not None:
            return "%s.%s" % (relation, attribute)
        return relation
    inner = getattr(plan, "inner_relation", None)
    if inner is not None:
        return "%s.%s" % (inner, getattr(plan, "inner_attribute", "?"))
    alternatives = getattr(plan, "alternatives", None)
    if alternatives is not None:
        return "(%d alternatives)" % len(alternatives)
    attribute = getattr(plan, "attribute", None)
    if attribute is not None:
        return "on %s" % attribute
    return ""
