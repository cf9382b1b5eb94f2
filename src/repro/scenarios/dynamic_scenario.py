"""Scenario 3: dynamic plans (the paper's proposal).

Optimize once into a dynamic plan with choose-plan operators; every
invocation activates the module — catalog validation, module read
(larger than a static module), choose-plan decision procedures (CPU,
measured) — and executes the chosen alternative.
"""

from repro.common.units import CATALOG_VALIDATION_SECONDS
from repro.executor.access_module import AccessModule
from repro.executor.startup import resolve_dynamic_plan
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.optimizer import optimize_dynamic
from repro.scenarios.scenario import (
    InvocationRecord,
    ScenarioResult,
    predicted_execution_seconds,
)


class DynamicPlanScenario:
    """Compile once into a dynamic plan, choose at start-up time."""

    name = "dynamic"

    def __init__(self, workload, config=None, cpu_scale=1.0):
        self.workload = workload
        self.config = config if config is not None else OptimizerConfig.dynamic()
        #: measured-CPU to simulated-seconds factor (see cost.calibration)
        self.cpu_scale = float(cpu_scale)
        self.result = optimize_dynamic(workload.catalog, workload.query, self.config)
        self.module = AccessModule.from_plan(
            self.result.plan, workload.query.name
        )
        self.last_report = None
        self.last_chosen = None

    @property
    def plan(self):
        """The dynamic plan (with choose-plan operators)."""
        return self.result.plan

    def invoke(self, bindings):
        """One invocation: activate (decide) then execute (predicted)."""
        chosen, report = resolve_dynamic_plan(
            self.plan,
            self.workload.catalog,
            self.workload.query.parameter_space,
            bindings,
        )
        self.last_report = report
        self.last_chosen = chosen
        activation = (
            CATALOG_VALIDATION_SECONDS
            + self.module.read_seconds()
            + report.cpu_seconds * self.cpu_scale
        )
        execution = predicted_execution_seconds(
            chosen,
            self.workload.catalog,
            self.workload.query.parameter_space,
            bindings,
        )
        return InvocationRecord(0.0, activation, execution)

    def run_series(self, binding_series):
        """All invocations of a binding series, aggregated."""
        invocations = [self.invoke(bindings) for bindings in binding_series]
        return ScenarioResult(
            self.name,
            self.result.statistics.optimization_seconds * self.cpu_scale,
            invocations,
            self.module.node_count,
            extra={
                "choose_plan_count": self.result.choose_plan_count(),
                "optimizer_statistics": self.result.statistics.as_dict(),
            },
        )
