"""Cost-model accuracy telemetry over the paper's five queries.

"Adaptive Cost Model for Query Optimization" (Vasilenko et al.) and
"Revisiting Runtime Dynamic Optimization" (Pavlopoulou et al.) both
identify the estimated-vs-actual feedback loop as the prerequisite for
any adaptive re-optimization.  This module produces that signal for
the reproduction: it replays the five paper queries under seeded
random bindings, executes the optimized plans with the tracer on, and
aggregates per-operator cardinality q-errors into distributions a
future mid-query re-optimization layer can consume.

``python -m repro accuracy`` renders the report;
:meth:`AccuracyReport.to_json` exports it for external tooling.
"""

import json

from repro.catalog import populate_database
from repro.observability.explain import explain_analyze
from repro.optimizer.optimizer import optimize_dynamic, optimize_static
from repro.common.stats import percentile
from repro.storage import Database
from repro.workloads import binding_series, paper_workload

#: The paper's query numbers, replayed by default.
PAPER_QUERY_NUMBERS = (1, 2, 3, 4, 5)


class OperatorObservation:
    """One operator's estimate-vs-actual pair from one invocation."""

    __slots__ = ("query", "operator", "detail", "estimated_rows",
                 "actual_rows", "q_error")

    def __init__(self, query, profile):
        self.query = query
        self.operator = profile.span.operator
        self.detail = profile.span.detail
        self.estimated_rows = (
            profile.estimated_rows.midpoint
            if profile.estimated_rows is not None
            else None
        )
        self.actual_rows = profile.actual_rows
        self.q_error = profile.cardinality_q_error

    def __repr__(self):
        return "OperatorObservation(%s %s, q=%s)" % (
            self.query,
            self.operator,
            "%.2f" % self.q_error if self.q_error is not None else "?",
        )


class QueryAccuracy:
    """All observations of one query across its replayed invocations."""

    def __init__(self, query_name, invocations, observations):
        self.query_name = query_name
        self.invocations = invocations
        self.observations = list(observations)

    def q_errors(self):
        """Defined q-errors across all operators and invocations."""
        return [
            observation.q_error
            for observation in self.observations
            if observation.q_error is not None
        ]

    def __repr__(self):
        return "QueryAccuracy(%s, %d observations)" % (
            self.query_name,
            len(self.observations),
        )


class Distribution:
    """Summary statistics of one q-error sample set."""

    __slots__ = ("count", "mean", "p50", "p90", "max")

    def __init__(self, values):
        values = list(values)
        self.count = len(values)
        if values:
            self.mean = sum(values) / len(values)
            self.p50 = percentile(values, 0.50)
            self.p90 = percentile(values, 0.90)
            self.max = max(values)
        else:
            self.mean = self.p50 = self.p90 = self.max = 0.0

    def as_dict(self):
        """The statistics as a plain dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "max": self.max,
        }

    def __repr__(self):
        return "Distribution(n=%d, p50=%.2f, max=%.2f)" % (
            self.count,
            self.p50,
            self.max,
        )


class AccuracyReport:
    """Per-query and per-operator q-error distributions."""

    def __init__(self, queries, mode, invocations, seed):
        self.queries = list(queries)
        self.mode = mode
        self.invocations = invocations
        self.seed = seed

    def observations(self):
        """Every observation across every replayed query."""
        for query in self.queries:
            yield from query.observations

    def by_operator(self):
        """Operator name -> :class:`Distribution` of q-errors."""
        samples = {}
        for observation in self.observations():
            if observation.q_error is None:
                continue
            samples.setdefault(observation.operator, []).append(
                observation.q_error
            )
        return {
            operator: Distribution(values)
            for operator, values in sorted(samples.items())
        }

    def by_query(self):
        """Query name -> :class:`Distribution` of q-errors."""
        return {
            query.query_name: Distribution(query.q_errors())
            for query in self.queries
        }

    def overall(self):
        """One distribution over every observation."""
        return Distribution(
            observation.q_error
            for observation in self.observations()
            if observation.q_error is not None
        )

    def render(self):
        """A fixed-width text report of the distributions."""
        lines = [
            "cost-model accuracy (%s plans, %d invocations/query, seed=%d)"
            % (self.mode, self.invocations, self.seed),
            "",
            "%-14s %6s %8s %8s %8s %8s"
            % ("per query", "n", "mean", "p50", "p90", "max"),
        ]
        for name, dist in self.by_query().items():
            lines.append(
                "%-14s %6d %8.2f %8.2f %8.2f %8.2f"
                % (name, dist.count, dist.mean, dist.p50, dist.p90, dist.max)
            )
        lines.append("")
        lines.append(
            "%-14s %6s %8s %8s %8s %8s"
            % ("per operator", "n", "mean", "p50", "p90", "max")
        )
        for operator, dist in self.by_operator().items():
            lines.append(
                "%-14s %6d %8.2f %8.2f %8.2f %8.2f"
                % (operator, dist.count, dist.mean, dist.p50, dist.p90,
                   dist.max)
            )
        overall = self.overall()
        lines.append("")
        lines.append(
            "overall: n=%d mean=%.2f p50=%.2f p90=%.2f max=%.2f"
            % (overall.count, overall.mean, overall.p50, overall.p90,
               overall.max)
        )
        return "\n".join(lines)

    def to_json(self, indent=None):
        """The report as a JSON string (for the adaptive layer)."""
        payload = {
            "mode": self.mode,
            "invocations": self.invocations,
            "seed": self.seed,
            "overall": self.overall().as_dict(),
            "by_query": {
                name: dist.as_dict() for name, dist in self.by_query().items()
            },
            "by_operator": {
                name: dist.as_dict()
                for name, dist in self.by_operator().items()
            },
        }
        return json.dumps(payload, indent=indent)

    def __repr__(self):
        return "AccuracyReport(%d queries, overall=%r)" % (
            len(self.queries),
            self.overall(),
        )


def cost_model_accuracy(
    query_numbers=PAPER_QUERY_NUMBERS,
    invocations=5,
    seed=0,
    mode="dynamic",
):
    """Replay paper queries traced and report q-error distributions.

    ``mode`` selects the plan kind replayed: ``"dynamic"`` executes
    the dynamic plan (choose-plan decisions resolve at open time, so
    the estimates profiled are the start-up re-evaluations), while
    ``"static"`` executes the traditional expected-value plan.
    """
    if mode == "dynamic":
        optimize = optimize_dynamic
    elif mode == "static":
        optimize = optimize_static
    else:
        raise ValueError("accuracy mode must be 'dynamic' or 'static'")
    queries = []
    for number in query_numbers:
        workload = paper_workload(number, seed=seed)
        database = Database(workload.catalog)
        populate_database(database, seed=seed)
        plan = optimize(workload.catalog, workload.query).plan
        observations = []
        for bindings in binding_series(workload, count=invocations, seed=seed):
            result = explain_analyze(
                plan,
                database,
                bindings,
                workload.query.parameter_space,
            )
            observations.extend(
                OperatorObservation(workload.name, profile)
                for profile in result.profile.operators
            )
        queries.append(
            QueryAccuracy(workload.name, invocations, observations)
        )
    return AccuracyReport(queries, mode, invocations, seed)
