"""``EXPLAIN ANALYZE``: estimated vs actual figures per operator.

:func:`explain_analyze` executes a plan under a
:class:`~repro.observability.trace.Tracer` and pairs every operator
span with the cost model's prediction for that very node *under the
run-time valuation* — the same re-evaluated cost functions the
choose-plan decision procedures use at start-up time.  The rendered
tree therefore shows exactly how far the quantities the paper's whole
argument rests on land from what the executor actually charges:

* **cardinality**: estimated output rows vs rows the operator
  produced, summarized as a q-error (symmetric ratio, 1.0 = perfect);
* **cost**: estimated (inclusive) seconds vs the simulated seconds of
  the operator's subtree, folded from the I/O counters with the same
  machine constants as :meth:`IOStatistics.estimated_seconds
  <repro.storage.iostats.IOStatistics.estimated_seconds>`.

Renderings are deterministic for a fixed workload seed (no wall-clock
values unless explicitly requested), which is what the golden-file
tests pin down.
"""

from repro.executor.engine import execute_plan
from repro.observability.trace import Tracer, q_error


class OperatorProfile:
    """One operator's estimated-vs-actual record."""

    __slots__ = (
        "span",
        "depth",
        "estimated_rows",
        "estimated_cost",
        "actual_rows",
        "actual_seconds",
    )

    def __init__(self, span, depth, estimated_rows, estimated_cost):
        self.span = span
        self.depth = depth
        #: Estimated output cardinality (an Interval, or None when the
        #: cost model cannot evaluate the node under this valuation).
        self.estimated_rows = estimated_rows
        #: Estimated inclusive cost interval in seconds, or None.
        self.estimated_cost = estimated_cost
        self.actual_rows = span.rows
        #: Inclusive simulated seconds, folded from the span's counters.
        self.actual_seconds = span.simulated_seconds()

    @property
    def cardinality_q_error(self):
        """q-error of the cardinality estimate (None when unestimated)."""
        if self.estimated_rows is None:
            return None
        return q_error(self.estimated_rows.midpoint, self.actual_rows)

    def __repr__(self):
        return "OperatorProfile(%s, est=%r, act=%d)" % (
            self.span.label(),
            self.estimated_rows,
            self.actual_rows,
        )


class ExecutionProfile:
    """Per-operator profiles of one traced execution, renderable."""

    def __init__(self, operators, trace):
        self.operators = list(operators)
        self.trace = trace

    def cardinality_q_errors(self):
        """All defined per-operator cardinality q-errors."""
        return [
            profile.cardinality_q_error
            for profile in self.operators
            if profile.cardinality_q_error is not None
        ]

    def max_q_error(self):
        """Worst cardinality q-error across operators (1.0 when empty)."""
        errors = self.cardinality_q_errors()
        return max(errors) if errors else 1.0

    def mean_q_error(self):
        """Mean cardinality q-error across operators (1.0 when empty)."""
        errors = self.cardinality_q_errors()
        return sum(errors) / len(errors) if errors else 1.0

    def render(self, show_wall=False):
        """The annotated operator tree plus a q-error summary."""
        lines = []
        for profile in self.operators:
            span = profile.span
            line = "%s%s" % ("  " * profile.depth, span.label())
            if profile.estimated_rows is not None:
                line += "  rows est=%s act=%d q=%.2f" % (
                    _fmt_interval(profile.estimated_rows),
                    profile.actual_rows,
                    profile.cardinality_q_error,
                )
            else:
                line += "  rows est=? act=%d" % profile.actual_rows
            if profile.estimated_cost is not None:
                line += "  cost est=%s act=%.6g" % (
                    _fmt_interval(profile.estimated_cost),
                    profile.actual_seconds,
                )
            else:
                line += "  cost est=? act=%.6g" % profile.actual_seconds
            line += "  pages=%d" % span.total_pages
            if show_wall:
                line += " wall=%.6fs" % span.wall_seconds
            lines.append(line)
        lines.append("")
        lines.append(
            "q-error (cardinality): max=%.2f mean=%.2f over %d operators"
            % (self.max_q_error(), self.mean_q_error(), len(self.operators))
        )
        return "\n".join(lines)

    def __repr__(self):
        return "ExecutionProfile(%d operators, max q=%.2f)" % (
            len(self.operators),
            self.max_q_error(),
        )


def build_profile(trace, cost_model):
    """Pair every span of a trace with the cost model's estimates.

    ``cost_model`` must carry the *run-time* valuation of the
    execution (the engine's lazily built
    :attr:`~repro.executor.engine.ExecutionContext.cost_model`), so
    estimates are the exact quantities the start-up decision
    procedures computed.  Nodes the model cannot evaluate under this
    valuation (unbound parameters, foreign operators) profile with
    ``None`` estimates rather than failing the execution.
    """
    operators = []
    for span, depth in trace.walk():
        try:
            result = cost_model.evaluate(span.plan)
            estimated_rows = result.cardinality
            estimated_cost = result.cost
        except Exception:
            estimated_rows = None
            estimated_cost = None
        operators.append(
            OperatorProfile(span, depth, estimated_rows, estimated_cost)
        )
    return ExecutionProfile(operators, trace)


def explain_analyze(plan, database, bindings=None, parameter_space=None,
                    use_buffer_pool=False, batch_size=None, deadline=None):
    """Execute ``plan`` under a fresh tracer; returns the result.

    The returned :class:`~repro.executor.engine.ExecutionResult`
    carries ``trace`` and ``profile``; render the latter for the
    classic ``EXPLAIN ANALYZE`` view.  Dynamic plans work directly —
    the choose-plan operators resolve at open time and the trace shows
    the chosen alternative beneath them.  Spans report exact row
    counts at every ``batch_size``, so the rendered cardinalities and
    q-errors do not depend on it.

    ``deadline`` (seconds or a prebuilt deadline) arms cooperative
    cancellation; on expiry the raised
    :class:`~repro.common.errors.QueryTimeoutError` still carries the
    *partial* trace, so a timed-out query remains explainable.
    """
    return execute_plan(
        plan,
        database,
        bindings,
        parameter_space,
        use_buffer_pool=use_buffer_pool,
        tracer=Tracer(),
        batch_size=batch_size,
        deadline=deadline,
    )


def _fmt_interval(interval):
    """Compact deterministic rendering of an interval annotation."""
    if interval.is_point:
        return "%.6g" % interval.lower
    return "[%.6g, %.6g]" % (interval.lower, interval.upper)
