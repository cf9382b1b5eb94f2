"""Choosing a compilation strategy (the paper's open characterization).

Section 6 closes: "we do not advocate to use dynamic plans at all
times and for all queries ... We plan on characterizing those cases
more thoroughly in the future."  This module provides that
characterization as an advisor usable at compile time: given a query,
the catalogs, and the expected number of invocations, it estimates the
total effort of the three scenarios — using only compile-time
information — and recommends one.

Estimates, in the paper's Figure 3 notation:

* ``a``/``e`` — measured optimization times (static/dynamic);
* ``b``/``f`` — activation: catalog validation + module read, plus for
  dynamic plans a measured decision pass as the query service runs it
  — the compiled program (scaled to the simulated machine, see
  :mod:`repro.cost.calibration`);
* ``c`` — the static plan's cost interval midpoint under the
  compile-time bounds (its expected execution over the parameter
  range);
* ``g = d`` — the dynamic plan's cost envelope midpoint (the expected
  execution of the per-binding optimum).

These are estimates, not measurements over true bindings — exactly the
information an optimizer has when it must pick a strategy.
"""

from repro.common.units import CATALOG_VALIDATION_SECONDS
from repro.cost.calibration import DEFAULT_CPU_SCALE
from repro.cost.formulas import CostModel
from repro.cost.parameters import Bindings, Valuation
from repro.executor.access_module import AccessModule
from repro.executor.decision import CompiledDecision
from repro.optimizer.optimizer import optimize_dynamic, optimize_static


class StrategyRecommendation:
    """The advisor's verdict with its per-strategy estimates."""

    def __init__(self, strategy, totals, per_invocation, components,
                 invocations):
        self.strategy = strategy
        self.totals = totals
        self.per_invocation = per_invocation
        self.components = components
        self.invocations = invocations

    def rationale(self):
        """A one-paragraph justification of the recommendation."""
        ordered = sorted(self.totals.items(), key=lambda item: item[1])
        lines = [
            "for %d expected invocation(s), estimated total efforts are:"
            % self.invocations
        ]
        for name, total in ordered:
            lines.append("  %-22s %.3f s" % (name, total))
        lines.append("recommended: %s" % self.strategy)
        return "\n".join(lines)

    def __repr__(self):
        return "StrategyRecommendation(%s, N=%d)" % (
            self.strategy,
            self.invocations,
        )


def recommend_strategy(catalog, query, expected_invocations=100,
                       cpu_scale=DEFAULT_CPU_SCALE):
    """Estimate the three scenarios' costs and recommend a strategy.

    Returns a :class:`StrategyRecommendation` whose ``strategy`` is one
    of ``"static"``, ``"dynamic"``, ``"run-time optimization"``.
    """
    invocations = max(1, int(expected_invocations))

    static_result = optimize_static(catalog, query)
    dynamic_result = optimize_dynamic(catalog, query)
    a = static_result.statistics.optimization_seconds * cpu_scale
    e = dynamic_result.statistics.optimization_seconds * cpu_scale

    static_module = AccessModule.from_plan(static_result.plan, query.name)
    dynamic_module = AccessModule.from_plan(dynamic_result.plan, query.name)
    b = CATALOG_VALIDATION_SECONDS + static_module.read_seconds()

    # One decision pass at the expected bindings, for the CPU estimate.
    _, report = CompiledDecision(
        dynamic_result.plan, catalog, query.parameter_space
    ).choose(Bindings())
    f = (
        CATALOG_VALIDATION_SECONDS
        + dynamic_module.read_seconds()
        + report.cpu_seconds * cpu_scale
    )

    bounds_model = CostModel(catalog, Valuation.bounds(query.parameter_space))
    c = bounds_model.evaluate(static_result.plan).cost.midpoint
    g = bounds_model.evaluate(dynamic_result.plan).cost.midpoint

    totals = {
        "static": a + invocations * (b + c),
        "dynamic": e + invocations * (f + g),
        "run-time optimization": invocations * (a + g),
    }
    per_invocation = {
        "static": b + c,
        "dynamic": f + g,
        "run-time optimization": a + g,
    }
    components = {
        "a": a,
        "b": b,
        "c": c,
        "e": e,
        "f": f,
        "g": g,
        "static_nodes": static_module.node_count,
        "dynamic_nodes": dynamic_module.node_count,
    }
    strategy = min(totals, key=lambda name: totals[name])
    # With no uncertainty the dynamic plan degenerates; prefer the
    # simpler static plan on (near-)ties.
    if totals[strategy] >= totals["static"] * 0.999:
        strategy = "static"
    return StrategyRecommendation(
        strategy, totals, per_invocation, components, invocations
    )
