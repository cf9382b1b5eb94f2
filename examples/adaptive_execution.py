"""Run-time decisions with observed cardinalities (Section 7).

Start-up-time resolution can only be as good as the parameter values
it is given.  If the selectivity *estimates* are wrong — here the
application claims 5 % but the data delivers 90 % — every start-up
decision is fooled.  The paper's future-work sketch evaluates subplans
into temporary results so their actual properties can drive the
remaining decisions; ``execute_midquery`` with
``ReoptPolicy("always")`` implements it at every pipeline breaker.

Run:  python examples/adaptive_execution.py
"""

from repro import (
    Database,
    ReoptPolicy,
    execute_midquery,
    optimize_dynamic,
    paper_workload,
    populate_database,
    resolve_dynamic_plan,
)
from repro.executor.midquery import strip_checkpoints
from repro.scenarios import predicted_execution_seconds
from repro.workloads import skewed_bindings


def main():
    workload = paper_workload(3)
    catalog, query = workload.catalog, workload.query
    space = query.parameter_space
    database = Database(catalog)
    populate_database(database, seed=0)

    dynamic = optimize_dynamic(catalog, query)
    claimed, actual = 0.05, 0.9
    lied = skewed_bindings(workload, declared=claimed, actual=actual)
    truth = skewed_bindings(workload, declared=actual, actual=actual)

    print(
        "4-way join; estimates claim selectivity %.2f, data delivers %.2f"
        % (claimed, actual)
    )
    print()

    fooled, _ = resolve_dynamic_plan(dynamic.plan, catalog, space, lied)
    fooled_cost = predicted_execution_seconds(fooled, catalog, space, truth)
    print(
        "start-up resolution (trusts the estimates): true cost %.1fs"
        % fooled_cost
    )

    result, report = execute_midquery(
        dynamic.plan, database, lied, space, policy=ReoptPolicy("always")
    )
    final_cost = predicted_execution_seconds(
        strip_checkpoints(report.final_plan), catalog, space, truth
    )
    print(
        "re-deciding at every breaker (%d drained, %d records): "
        "true cost %.1fs" % (
            report.checkpoints,
            report.checkpoint_records,
            final_cost,
        )
    )

    optimal, _ = resolve_dynamic_plan(dynamic.plan, catalog, space, truth)
    optimal_cost = predicted_execution_seconds(optimal, catalog, space, truth)
    print("perfect information would achieve:        true cost %.1fs" % optimal_cost)
    print()
    print(
        "recovered %.0f%% of the estimation-error penalty"
        % (
            100.0
            * (fooled_cost - final_cost)
            / max(fooled_cost - optimal_cost, 1e-9)
        )
    )
    print(report.render())
    print("result rows: %d (identical under every strategy)" % result.row_count)


if __name__ == "__main__":
    main()
