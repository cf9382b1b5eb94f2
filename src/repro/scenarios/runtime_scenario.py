"""Scenario 2: complete optimization at run time ("brute force").

Every invocation optimizes the query from scratch with the true
bindings — no activation cost (the plan goes straight from optimizer
to executor), but the full optimization time ``a`` is paid each time.
"""

from repro.optimizer.config import OptimizerConfig
from repro.optimizer.optimizer import optimize_runtime
from repro.scenarios.scenario import (
    InvocationRecord,
    ScenarioResult,
    predicted_execution_seconds,
)


class RunTimeOptimizationScenario:
    """Re-optimize with actual bindings before every invocation."""

    name = "run-time-optimization"

    def __init__(self, workload, config=None, cpu_scale=1.0):
        self.workload = workload
        self.config = config if config is not None else OptimizerConfig.static()
        #: measured-CPU to simulated-seconds factor (see cost.calibration)
        self.cpu_scale = float(cpu_scale)
        self.last_result = None

    def invoke(self, bindings):
        """One invocation: optimize (measured) then execute (predicted)."""
        result = optimize_runtime(
            self.workload.catalog,
            self.workload.query,
            bindings,
            self.config,
        )
        self.last_result = result
        execution = predicted_execution_seconds(
            result.plan,
            self.workload.catalog,
            self.workload.query.parameter_space,
            bindings,
        )
        return InvocationRecord(
            result.statistics.optimization_seconds * self.cpu_scale,
            0.0,
            execution,
        )

    def run_series(self, binding_series):
        """All invocations of a binding series, aggregated."""
        invocations = [self.invoke(bindings) for bindings in binding_series]
        nodes = self.last_result.node_count() if self.last_result else 0
        return ScenarioResult(self.name, 0.0, invocations, nodes)
