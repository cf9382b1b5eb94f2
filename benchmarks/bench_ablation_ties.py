"""Ablation: tie handling and the multipoint comparison heuristic.

Section 3 discusses two situations where seemingly incomparable plans
need not both be kept: exactly-equal costs (e.g. the two merge-join
orders) and consistently-dominated plans.  The paper's prototype keeps
everything ("the most naive manner"); the optimizer's default drops the
exactly-equal plans (``keep_equal_cost_plans=False``: a merge join's
commuted twin is never built), and it additionally implements the
proposed multipoint-sampling heuristic, measured here over the paper
form.  This bench quantifies what each choice costs in plan size, checks
that dropping the ties changes no decision, and verifies the heuristic
does not hurt plan quality on sampled bindings.
"""

from conftest import write_and_print

from repro.executor import resolve_dynamic_plan
from repro.optimizer import OptimizerConfig, optimize_dynamic
from repro.scenarios import predicted_execution_seconds
from repro.workloads import binding_series, paper_workload


def _average_cost(result, workload, series):
    total = 0.0
    for bindings in series:
        chosen, _ = resolve_dynamic_plan(
            result.plan, workload.catalog,
            workload.query.parameter_space, bindings,
        )
        total += predicted_execution_seconds(
            chosen, workload.catalog,
            workload.query.parameter_space, bindings,
        )
    return total / len(series)


def test_ablation_tie_handling(benchmark, results_dir):
    workload = paper_workload(3)
    series = binding_series(workload, count=15, seed=31)

    multipoint = OptimizerConfig.dynamic(
        multipoint_heuristic=True,
        multipoint_samples=7,
        keep_equal_cost_plans=True,
    )
    configurations = [
        (
            "paper (keep everything)",
            OptimizerConfig.dynamic(keep_equal_cost_plans=True),
        ),
        ("drop equal-cost ties", OptimizerConfig.dynamic()),
        ("multipoint heuristic", multipoint),
    ]

    lines = [
        "=" * 72,
        "ABLATION — tie handling and multipoint heuristic (query 3)",
        "paper: both kept naively to present the technique conservatively",
        "-" * 72,
        "%26s  %8s  %14s  %14s"
        % ("configuration", "nodes", "mp-pruned", "avg exec [s]"),
    ]
    costs = {}
    for name, config in configurations:
        result = optimize_dynamic(workload.catalog, workload.query, config)
        average = _average_cost(result, workload, series)
        costs[name] = (result, average)
        lines.append(
            "%26s  %8d  %14d  %14.4f"
            % (
                name,
                result.node_count(),
                result.statistics.pruned_by_multipoint,
                average,
            )
        )
    write_and_print(results_dir, "ablation_ties", "\n".join(lines))

    baseline_result, baseline_cost = costs["paper (keep everything)"]
    ties_result, ties_cost = costs["drop equal-cost ties"]
    heuristic_result, heuristic_cost = costs["multipoint heuristic"]
    # Dropping exact ties shrinks the plan and changes no decision.
    assert ties_result.node_count() < baseline_result.node_count()
    assert ties_cost == baseline_cost
    # The heuristic shrinks the plan without degrading sampled quality
    # by more than a whisker (it is a heuristic; exact loss is 0 here).
    assert heuristic_result.node_count() <= baseline_result.node_count()
    assert heuristic_cost <= baseline_cost * 1.10

    benchmark(
        lambda: optimize_dynamic(workload.catalog, workload.query, multipoint)
    )
