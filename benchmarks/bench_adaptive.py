"""Extension bench: run-time decisions with observed cardinalities
(the Section 7 future-work direction).

Scenario: the selectivity *estimates* handed to start-up time are
wrong (they claim 0.05, the data delivers 0.9).  Plain start-up
resolution trusts them and picks a plan that is catastrophic under the
true parameters; ``execute_midquery`` with ``ReoptPolicy("always")``
drains each pipeline breaker, observes its actual cardinality, counts
the predicates it has not drained in their B-trees, and re-decides the
rest of the plan.

Every reported number is a deterministic cost-model figure (the final
plan's true cost with its checkpoints stripped, and the run's simulated
seconds), so the gate cannot flap.
"""

from conftest import write_and_print

from repro.catalog import populate_database
from repro.executor import resolve_dynamic_plan
from repro.executor.midquery import ReoptPolicy, execute_midquery, strip_checkpoints
from repro.optimizer import optimize_dynamic
from repro.scenarios import predicted_execution_seconds
from repro.storage import Database
from repro.workloads import paper_workload, skewed_bindings


def test_adaptive_execution_recovery(results_dir):
    workload = paper_workload(3)
    database = Database(workload.catalog)
    populate_database(database, seed=0)
    space = workload.query.parameter_space
    dynamic = optimize_dynamic(workload.catalog, workload.query)

    claimed, actual = 0.05, 0.9
    lied = skewed_bindings(workload, declared=claimed, actual=actual)
    truth = skewed_bindings(workload, declared=actual, actual=actual)

    def true_cost(plan):
        return predicted_execution_seconds(plan, workload.catalog, space, truth)

    fooled_cost = true_cost(
        resolve_dynamic_plan(dynamic.plan, workload.catalog, space, lied)[0]
    )
    optimal_cost = true_cost(
        resolve_dynamic_plan(dynamic.plan, workload.catalog, space, truth)[0]
    )
    result, report = execute_midquery(
        dynamic.plan, database, lied, space, policy=ReoptPolicy("always")
    )
    final_cost = true_cost(strip_checkpoints(report.final_plan))

    lines = [
        "=" * 72,
        "EXTENSION — run-time decisions with observed cardinalities "
        "(Section 7)",
        "scenario: estimates claim selectivity %.2f, data delivers %.2f"
        % (claimed, actual),
        "-" * 72,
        "fooled start-up plan, true cost  : %8.2f s" % fooled_cost,
        "re-decided final plan, true cost : %8.2f s" % final_cost,
        "true optimum                     : %8.2f s" % optimal_cost,
        "whole run, simulated             : %8.2f s" % result.simulated_seconds(),
        "breakers drained                 : %d (%d records), %d switch(es), "
        "%d index-only probe(s)"
        % (
            report.checkpoints,
            report.checkpoint_records,
            report.switches,
            report.probes,
        ),
    ]
    write_and_print(results_dir, "adaptive", "\n".join(lines))

    assert final_cost < fooled_cost * 0.8
    assert optimal_cost <= final_cost + 1e-9
