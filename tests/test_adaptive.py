"""Recovery from misestimated selectivities (the Section 7 extension).

Estimates say 'tiny', data says 'more than half the relation'.
Start-up resolution trusts the estimates; re-deciding at every pipeline
breaker (``execute_midquery`` under ``ReoptPolicy("always")``) observes
the actual cardinalities and corrects the join-level decision without
changing the rows returned.
"""

from repro.executor import resolve_dynamic_plan
from repro.executor.midquery import (
    ReoptPolicy,
    execute_midquery,
    strip_checkpoints,
)
from repro.optimizer import optimize_dynamic
from repro.workloads import skewed_bindings

from tests._reference import reference_rows, row_multiset


class TestRecoveryFromMisestimation:
    def test_adaptive_recovers_join_structure_on_two_way(self, workload2,
                                                         database2):
        # On query 2 the fooled plan is an index join; observing R2's
        # real selection cardinality must lead the re-decided plan to
        # the join operator the true optimum uses.
        workload, database = workload2, database2
        space = workload.query.parameter_space
        dynamic = optimize_dynamic(workload.catalog, workload.query)
        lied = skewed_bindings(workload, declared=0.02, actual=0.6)
        truth = skewed_bindings(workload, declared=0.6, actual=0.6)
        optimal_plan, _ = resolve_dynamic_plan(
            dynamic.plan, workload.catalog, space, truth
        )
        _, report = execute_midquery(
            dynamic.plan, database, lied, space, policy=ReoptPolicy("always")
        )
        final_plan = strip_checkpoints(report.final_plan)
        assert final_plan.operator_name() == optimal_plan.operator_name()

    def test_adaptive_row_results_still_correct_under_lies(self, workload2,
                                                           database2):
        lied = skewed_bindings(workload2, declared=0.02, actual=0.6)
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        result, _ = execute_midquery(
            dynamic.plan,
            database2,
            lied,
            workload2.query.parameter_space,
            policy=ReoptPolicy("always"),
        )
        keys = ["R1.a", "R2.a"]
        expected = reference_rows(workload2, database2, lied)
        assert row_multiset(result.records, keys) == row_multiset(
            expected, keys
        )
