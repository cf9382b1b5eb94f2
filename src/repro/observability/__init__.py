"""Operator-level observability: tracing, metrics, and accuracy telemetry.

The paper's entire argument rests on the optimizer's cost functions
being re-evaluated at start-up time — yet nothing in the seed repo
checked how close those predictions land to what the Volcano executor
actually charges to :class:`~repro.storage.iostats.IOStatistics`.
This package closes that estimated-vs-actual feedback loop:

* :mod:`.trace` — a low-overhead structured tracer.  Every iterator in
  :mod:`repro.executor.vectorized` records an open/next/close span
  (rows produced, pages charged, per-operator wall time) when a
  :class:`Tracer` is attached to the execution context; with no tracer
  the per-operator check is a single ``is None`` test at ``open`` time
  and the per-batch path is completely untouched.
* :mod:`.metrics` — a read-only :class:`MetricsRegistry` of
  counters, gauges, and histograms that read, at scrape time, what the
  serving gateway :class:`~repro.service.sharding.ShardedQueryService`
  already counts (cache hit/miss, start-up latency histograms,
  re-optimization counts), exportable as JSON and Prometheus text
  format.
* :mod:`.explain` — ``EXPLAIN ANALYZE``: execute a plan under a
  tracer and render the operator tree annotated with estimated vs
  actual cardinality and cost, plus a q-error summary
  (``python -m repro explain --analyze``).
* :mod:`.accuracy` — a cost-model accuracy report replaying the five
  paper queries and emitting per-operator q-error distributions, the
  feedback signal a future adaptive re-optimization layer consumes
  (``python -m repro accuracy``).

``explain`` and ``accuracy`` sit above the executor and optimizer, so
they are *not* imported here — import the submodules directly.  This
module stays a leaf dependency that low layers (iterators, search) can
import without cycles.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import (
    ExecutionTrace,
    OperatorSpan,
    Tracer,
    q_error,
)

__all__ = [
    "Counter",
    "ExecutionTrace",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorSpan",
    "Tracer",
    "q_error",
]
