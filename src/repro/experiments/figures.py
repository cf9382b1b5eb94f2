"""Reproduction of every table and figure in the paper's Section 6.

The x-axis of Figures 4-8 is the number of uncertain variables: the
five queries contribute 1, 2, 4, 6, and 10 uncertain selectivities;
the "selectivities and memory" series adds one more uncertain variable
per query.
"""

from repro.experiments.results import ExperimentSettings, FigureResult
from repro.optimizer.config import OptimizerConfig
from repro.scenarios.breakeven import (
    breakeven_runtime_vs_dynamic,
    breakeven_static_vs_dynamic,
)
from repro.scenarios.dynamic_scenario import DynamicPlanScenario
from repro.scenarios.runtime_scenario import RunTimeOptimizationScenario
from repro.scenarios.static_scenario import StaticPlanScenario
from repro.workloads.bindings import binding_series
from repro.workloads.queries import paper_workload

#: Series labels matching the paper's legends.
SERIES_SEL = "selectivities"
SERIES_SEL_MEM = "selectivities and memory"


class _Bundle:
    """Scenario results for one (query, memory-uncertainty) cell."""

    def __init__(self, workload, static, dynamic, runtime,
                 static_scenario, dynamic_scenario):
        self.workload = workload
        self.static = static
        self.dynamic = dynamic
        self.runtime = runtime
        self.static_scenario = static_scenario
        self.dynamic_scenario = dynamic_scenario

    @property
    def uncertain_variables(self):
        """X-axis value: uncertain parameter count of the query."""
        return self.workload.query.uncertain_variable_count()


class ExperimentContext:
    """Shared, lazily computed scenario results for all figures.

    Running the three scenarios once per (query, memory) cell and
    reusing them across Figures 4-8 mirrors the paper's single
    experimental campaign and keeps the harness affordable.
    """

    def __init__(self, settings=None):
        self.settings = settings if settings is not None else ExperimentSettings()
        self._bundles = {}

    def bundle(self, query_number, memory_uncertain):
        """Scenario results for one cell, computed on first use."""
        key = (query_number, memory_uncertain)
        cached = self._bundles.get(key)
        if cached is not None:
            return cached
        settings = self.settings
        workload = paper_workload(
            query_number, memory_uncertain=memory_uncertain, seed=settings.seed
        )
        series = binding_series(
            workload, count=settings.invocations, seed=settings.binding_seed
        )
        # The paper prototype keeps exactly-equal plans "in the most
        # naive manner"; Figure 6 reports its plan sizes.
        static = OptimizerConfig.static(keep_equal_cost_plans=True)
        dynamic = OptimizerConfig.dynamic(keep_equal_cost_plans=True)
        static_scenario = StaticPlanScenario(
            workload, static, cpu_scale=settings.cpu_scale
        )
        dynamic_scenario = DynamicPlanScenario(
            workload, dynamic, cpu_scale=settings.cpu_scale
        )
        runtime_scenario = RunTimeOptimizationScenario(
            workload, static, cpu_scale=settings.cpu_scale
        )
        bundle = _Bundle(
            workload,
            static_scenario.run_series(series),
            dynamic_scenario.run_series(series),
            runtime_scenario.run_series(series),
            static_scenario,
            dynamic_scenario,
        )
        self._bundles[key] = bundle
        return bundle

    def cells(self):
        """All (query_number, memory_uncertain) cells, paper order."""
        for memory_uncertain in (False, True):
            for query_number in self.settings.query_numbers:
                yield query_number, memory_uncertain


def _context(settings_or_context):
    if isinstance(settings_or_context, ExperimentContext):
        return settings_or_context
    return ExperimentContext(settings_or_context)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


def table1_algebra():
    """The logical and physical algebra of the prototype (Table 1)."""
    return {
        "Get-Set": ["File-Scan", "B-tree-Scan"],
        "Select": ["Filter", "Filter-B-tree-Scan"],
        "Join": ["Hash-Join", "Merge-Join", "Index-Join"],
        "Sort Order (enforcer)": ["Sort"],
        "Plan Robustness (enforcer)": ["Choose-Plan"],
    }


# ----------------------------------------------------------------------
# Figure 3 — the three optimization scenarios
# ----------------------------------------------------------------------


def figure3_scenarios(settings=None, query_number=3):
    """Total run-time effort of the three scenarios over N invocations.

    Validates the paper's inequalities: dynamic plans beat static plans
    (``e + N f + sum g  <  a + N b + sum c``) and beat run-time
    optimization (``e + N f + sum g  <  N a + sum d``) for non-trivial
    queries.
    """
    context = _context(settings)
    figure = FigureResult(
        "figure3",
        "Alternative optimization scenarios (total effort, N invocations)",
        "scenario",
        "total seconds (compile + run time)",
        "dynamic plans win overall once N exceeds the break-even point",
    )
    bundle = context.bundle(query_number, False)
    for name, result in (
        ("static", bundle.static),
        ("run-time optimization", bundle.runtime),
        ("dynamic plans", bundle.dynamic),
    ):
        figure.add_point(
            name,
            bundle.workload.name,
            bundle.uncertain_variables,
            result.total_effort(),
            compile_seconds=result.compile_seconds,
            average_execution=result.average_execution_seconds,
            average_activation=result.average_activation_seconds,
        )
    figure.add_note(
        "g_i = d_i check: dynamic avg execution %.4f vs run-time "
        "optimization avg execution %.4f"
        % (
            bundle.dynamic.average_execution_seconds,
            bundle.runtime.average_execution_seconds,
        )
    )
    return figure


# ----------------------------------------------------------------------
# Figure 4 — execution times of static and dynamic plans
# ----------------------------------------------------------------------


def figure4_execution_times(settings=None):
    """Average execution times, static vs dynamic plans (Figure 4)."""
    context = _context(settings)
    figure = FigureResult(
        "figure4",
        "Execution times of static and dynamic plans",
        "number of uncertain variables",
        "average run time [sec]",
        "static plans not competitive; gap grows from ~5x (query 1) to "
        "~24x (query 5); memory uncertainty accentuates the difference",
    )
    for query_number, memory_uncertain in context.cells():
        bundle = context.bundle(query_number, memory_uncertain)
        label = SERIES_SEL_MEM if memory_uncertain else SERIES_SEL
        figure.add_point(
            "static, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            bundle.static.average_execution_seconds,
        )
        figure.add_point(
            "dynamic, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            bundle.dynamic.average_execution_seconds,
            ratio=bundle.static.average_execution_seconds
            / max(bundle.dynamic.average_execution_seconds, 1e-12),
        )
    return figure


# ----------------------------------------------------------------------
# Figure 5 — optimization times
# ----------------------------------------------------------------------


def figure5_optimization_times(settings=None):
    """Optimization time, static vs dynamic plans (Figure 5).

    Reported in *measured* CPU seconds of this prototype (the paper
    also reports truly measured times); the interesting quantity is the
    dynamic/static ratio, which the paper bounds by a factor of 3.
    """
    context = _context(settings)
    figure = FigureResult(
        "figure5",
        "Optimization time for static and dynamic plans",
        "number of uncertain variables",
        "optimize time [sec, measured]",
        "dynamic-plan optimization slower, but within a factor of ~3, "
        "due to weakened branch-and-bound pruning; memory uncertainty "
        "adds little",
    )
    scale = context.settings.cpu_scale
    for query_number, memory_uncertain in context.cells():
        bundle = context.bundle(query_number, memory_uncertain)
        label = SERIES_SEL_MEM if memory_uncertain else SERIES_SEL
        static_seconds = bundle.static.compile_seconds / scale
        dynamic_seconds = bundle.dynamic.compile_seconds / scale
        figure.add_point(
            "static, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            static_seconds,
        )
        figure.add_point(
            "dynamic, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            dynamic_seconds,
            ratio=dynamic_seconds / max(static_seconds, 1e-12),
        )
    return figure


# ----------------------------------------------------------------------
# Figure 6 — plan sizes
# ----------------------------------------------------------------------


def figure6_plan_sizes(settings=None):
    """Plan sizes (operator nodes in the DAG), static vs dynamic."""
    context = _context(settings)
    figure = FigureResult(
        "figure6",
        "Plan sizes for static and dynamic plans",
        "number of uncertain variables",
        "number of plan nodes",
        "dynamic plans orders of magnitude larger (paper: 21 vs 14,090 "
        "nodes for query 5); uncertain memory barely increases sizes",
    )
    for query_number, memory_uncertain in context.cells():
        bundle = context.bundle(query_number, memory_uncertain)
        label = SERIES_SEL_MEM if memory_uncertain else SERIES_SEL
        figure.add_point(
            "static, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            bundle.static.plan_nodes,
        )
        figure.add_point(
            "dynamic, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            bundle.dynamic.plan_nodes,
            choose_plans=bundle.dynamic.extra.get("choose_plan_count"),
        )
    return figure


# ----------------------------------------------------------------------
# Figure 7 — start-up times of dynamic plans
# ----------------------------------------------------------------------


def figure7_startup_times(settings=None):
    """Start-up CPU times for dynamic plans (Figure 7).

    The CPU effort of evaluating every choose-plan decision procedure,
    with shared subplans costed once; parallels plan size.  Both raw
    measured seconds and simulated-machine seconds are reported.
    """
    context = _context(settings)
    figure = FigureResult(
        "figure7",
        "Start-up times for dynamic plans, CPU only",
        "number of uncertain variables",
        "start-up CPU time [sec]",
        "start-up CPU parallels plan size and stays small relative to "
        "the execution-time savings (paper: 5.8 s for the most complex "
        "plan vs 186 s saved)",
    )
    scale = context.settings.cpu_scale
    for query_number, memory_uncertain in context.cells():
        bundle = context.bundle(query_number, memory_uncertain)
        label = SERIES_SEL_MEM if memory_uncertain else SERIES_SEL
        # Average decision CPU over all invocations: activation minus
        # the fixed catalog-validation and module-read components.
        module = bundle.dynamic_scenario.module
        from repro.common.units import CATALOG_VALIDATION_SECONDS

        scaled_cpu = (
            bundle.dynamic.average_activation_seconds
            - CATALOG_VALIDATION_SECONDS
            - module.read_seconds()
        )
        report = bundle.dynamic_scenario.last_report
        figure.add_point(
            "dynamic, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            max(scaled_cpu, 0.0),
            measured_seconds=max(scaled_cpu, 0.0) / scale,
            decisions=report.decisions if report else 0,
            cost_evaluations=report.cost_evaluations if report else 0,
            module_io_seconds=module.read_seconds(),
        )
    figure.add_note(
        "values are measured CPU seconds times cpu_scale=%s "
        "(simulated-machine calibration)" % context.settings.cpu_scale
    )
    return figure


# ----------------------------------------------------------------------
# Figure 8 — run-time optimization versus dynamic plans
# ----------------------------------------------------------------------


def figure8_runtime_vs_dynamic(settings=None):
    """Per-invocation run-time effort: run-time optimization vs dynamic
    plans (Figure 8), plus the break-even points of Section 6."""
    context = _context(settings)
    figure = FigureResult(
        "figure8",
        "Run-time optimization versus dynamic plans",
        "number of uncertain variables",
        "per-invocation run-time effort [sec]",
        "dynamic plans cheaper per invocation for all but the simplest "
        "queries (factor >2 for query 5); break-even after 2-4 "
        "invocations",
    )
    for query_number, memory_uncertain in context.cells():
        bundle = context.bundle(query_number, memory_uncertain)
        label = SERIES_SEL_MEM if memory_uncertain else SERIES_SEL
        runtime_effort = bundle.runtime.average_run_time_effort
        dynamic_effort = bundle.dynamic.average_run_time_effort
        figure.add_point(
            "run-time optimization, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            runtime_effort,
        )
        figure.add_point(
            "dynamic, %s" % label,
            bundle.workload.name,
            bundle.uncertain_variables,
            dynamic_effort,
            ratio=runtime_effort / max(dynamic_effort, 1e-12),
            breakeven_vs_runtime=breakeven_runtime_vs_dynamic(
                bundle.runtime, bundle.dynamic
            ),
            breakeven_vs_static=breakeven_static_vs_dynamic(
                bundle.static, bundle.dynamic
            ),
        )
    return figure

