"""Projection: Table 1's Project row, a ``QuerySpec.projection``, end to end."""

import pytest

from repro.algebra.physical import Project as PhysicalProject
from repro.common.errors import PlanError
from repro.executor import AccessModule, execute_plan, resolve_dynamic_plan
from repro.frontend import parse_query
from repro.optimizer import QuerySpec, optimize_dynamic, optimize_static
from repro.workloads import random_bindings


@pytest.fixture(scope="module")
def projected_query(workload2):
    return QuerySpec(
        list(workload2.query.relations),
        dict(workload2.query.selections),
        list(workload2.query.join_predicates),
        name="projected",
        projection=("R1.a", "R2.c"),
    )


class TestPhysicalProject:
    def test_requires_attributes(self):
        from repro.algebra.physical import FileScan

        with pytest.raises(PlanError):
            PhysicalProject(FileScan("R"), [])

    def test_optimizer_places_project_on_top(self, workload2,
                                              projected_query):
        for optimize in (optimize_static, optimize_dynamic):
            result = optimize(workload2.catalog, projected_query)
            assert isinstance(result.plan, PhysicalProject)
            assert result.plan.attributes == ("R1.a", "R2.c")

    def test_projection_adds_no_alternatives(self, workload2,
                                             projected_query):
        projected = optimize_dynamic(workload2.catalog, projected_query)
        plain = optimize_dynamic(workload2.catalog, workload2.query)
        assert projected.node_count() == plain.node_count() + 1
        assert projected.choose_plan_count() == plain.choose_plan_count()

    def test_serialization_round_trip(self, workload2, projected_query):
        result = optimize_dynamic(workload2.catalog, projected_query)
        module = AccessModule.from_plan(result.plan, "projected")
        rebuilt = module.materialize()
        assert rebuilt.signature() == result.plan.signature()

    def test_resolution_keeps_projection(self, workload2, projected_query):
        result = optimize_dynamic(workload2.catalog, projected_query)
        bindings = random_bindings(workload2, seed=3)
        chosen, _ = resolve_dynamic_plan(
            result.plan, workload2.catalog,
            projected_query.parameter_space, bindings,
        )
        assert isinstance(chosen, PhysicalProject)
        assert chosen.choose_plan_count() == 0


class TestProjectedExecution:
    def test_records_contain_only_projected_fields(self, workload2,
                                                   database2,
                                                   projected_query):
        result = optimize_dynamic(workload2.catalog, projected_query)
        bindings = random_bindings(workload2, seed=3)
        executed = execute_plan(
            result.plan, database2, bindings, projected_query.parameter_space
        )
        assert executed.row_count > 0
        for record in executed.records:
            assert sorted(record.keys()) == ["R1.a", "R2.c"]

    def test_row_count_matches_unprojected(self, workload2, database2,
                                           projected_query):
        bindings = random_bindings(workload2, seed=3)
        projected = optimize_dynamic(workload2.catalog, projected_query)
        plain = optimize_dynamic(workload2.catalog, workload2.query)
        projected_rows = execute_plan(
            projected.plan, database2, bindings,
            projected_query.parameter_space,
        ).row_count
        plain_rows = execute_plan(
            plain.plan, database2, bindings, workload2.query.parameter_space
        ).row_count
        assert projected_rows == plain_rows


class TestSqlProjection:
    def test_select_list_parsed(self, workload2):
        spec = parse_query(
            "SELECT R1.a, R2.c FROM R1, R2 WHERE R1.b = R2.c",
            workload2.catalog,
        )
        assert spec.projection == ("R1.a", "R2.c")

    def test_sql_projected_execution(self, workload2, database2):
        spec = parse_query(
            "SELECT R2.a FROM R1, R2 WHERE R1.a < :v AND R1.b = R2.c",
            workload2.catalog,
        )
        result = optimize_static(workload2.catalog, spec)
        from repro.cost.parameters import Bindings

        domain = workload2.catalog.domain_size("R1", "a")
        bindings = Bindings().bind("sel_R1", 0.4).bind_variable(
            "v", 0.4 * domain
        )
        executed = execute_plan(
            result.plan, database2, bindings, spec.parameter_space
        )
        for record in executed.records:
            assert sorted(record.keys()) == ["R2.a"]
