"""Start-up machinery: activation, decision procedures, reports."""

import pytest

from repro.common.units import CATALOG_VALIDATION_SECONDS
from repro.executor import activate_plan, resolve_dynamic_plan
from repro.executor.startup import StartupReport
from repro.optimizer import optimize_dynamic, optimize_static
from repro.workloads import random_bindings


class TestResolveDynamicPlan:
    def test_resolved_plan_has_no_choose_operators(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        chosen, report = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert chosen.choose_plan_count() == 0
        assert report.decisions > 0

    def test_decisions_counted_once_per_choose_node(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        _, report = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        # Shared choose-plan nodes are resolved at most once each.
        assert report.decisions <= dynamic.plan.choose_plan_count()

    def test_shared_subplans_costed_once(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        _, report = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        # DAG sharing: evaluations bounded by distinct node count.
        assert report.cost_evaluations <= dynamic.plan.node_count()

    def test_different_bindings_different_choices(self, workload1):
        dynamic = optimize_dynamic(workload1.catalog, workload1.query)
        domain = workload1.catalog.domain_size("R1", "a")
        low = random_bindings(workload1, seed=0)
        low.bind("sel_R1", 0.01).bind_variable("v_R1", 0.01 * domain)
        high = random_bindings(workload1, seed=0)
        high.bind("sel_R1", 0.95).bind_variable("v_R1", 0.95 * domain)
        chosen_low, _ = resolve_dynamic_plan(
            dynamic.plan, workload1.catalog,
            workload1.query.parameter_space, low,
        )
        chosen_high, _ = resolve_dynamic_plan(
            dynamic.plan, workload1.catalog,
            workload1.query.parameter_space, high,
        )
        assert chosen_low.signature() != chosen_high.signature()

    def test_resolution_deterministic(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=9)
        a, _ = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        b, _ = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert a.signature() == b.signature()


class TestActivatePlan:
    def test_static_plan_activation_has_no_decisions(self, workload2):
        static = optimize_static(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        plan, report = activate_plan(
            static.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert plan is static.plan
        assert report.decisions == 0
        assert report.cpu_seconds == 0.0
        assert report.io_seconds > 0

    def test_dynamic_activation_total_includes_validation(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        _, report = activate_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert report.total_seconds >= CATALOG_VALIDATION_SECONDS
        assert report.node_count == dynamic.plan.node_count()

    def test_dynamic_module_io_larger_than_static(self, workload2):
        static = optimize_static(workload2.catalog, workload2.query)
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=1)
        _, static_report = activate_plan(
            static.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        _, dynamic_report = activate_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert dynamic_report.io_seconds > static_report.io_seconds


class TestStartupReport:
    def test_repr_and_fields(self):
        report = StartupReport(
            decisions=3, cost_evaluations=10, cpu_seconds=0.01,
            io_seconds=0.002, node_count=20,
        )
        assert "decisions=3" in repr(report)
        assert report.total_seconds == pytest.approx(
            CATALOG_VALIDATION_SECONDS + 0.012
        )
