"""Access modules: serialization round-trips, sizes, and read times."""

import pytest

from repro.common.units import PLAN_NODE_BYTES, DISK_BANDWIDTH_BYTES_PER_SEC
from repro.executor import AccessModule, execute_plan, resolve_dynamic_plan
from repro.optimizer import optimize_dynamic, optimize_static
from repro.workloads import make_join_workload, random_bindings


class TestRoundTrip:
    def test_static_plan_round_trip(self, workload2):
        static = optimize_static(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(static.plan, "q2")
        rebuilt = module.materialize()
        assert rebuilt.signature() == static.plan.signature()

    def test_dynamic_plan_round_trip(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(dynamic.plan, "q2")
        rebuilt = module.materialize()
        assert rebuilt.signature() == dynamic.plan.signature()

    def test_round_trip_preserves_dag_sharing(self, workload3):
        dynamic = optimize_dynamic(workload3.catalog, workload3.query)
        module = AccessModule.from_plan(dynamic.plan, "q3")
        rebuilt = module.materialize()
        assert rebuilt.node_count() == dynamic.plan.node_count()
        assert rebuilt.tree_node_count() == dynamic.plan.tree_node_count()

    def test_bytes_round_trip(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(dynamic.plan, "q2")
        reloaded = AccessModule.from_bytes(module.to_bytes())
        assert reloaded.node_count == module.node_count
        assert (
            reloaded.materialize().signature() == dynamic.plan.signature()
        )

    def test_from_plan_keeps_the_dict_it_serialized(self, workload3, monkeypatch):
        """``from_plan`` does not parse the bytes it just produced, and
        the module it returns equals one parsed from those bytes."""
        from repro.executor import access_module

        dynamic = optimize_dynamic(workload3.catalog, workload3.query)
        with monkeypatch.context() as patch:
            patch.setattr(
                access_module.json, "loads", lambda *a, **k: pytest.fail("parsed")
            )
            module = AccessModule.from_plan(dynamic.plan, "q3")
        reloaded = AccessModule.from_bytes(module.to_bytes())
        assert module._data == reloaded._data
        assert module.node_count == reloaded.node_count == dynamic.plan.node_count()
        assert module.query_name == reloaded.query_name == "q3"
        rebuilt = module.materialize()
        assert rebuilt.signature() == reloaded.materialize().signature()
        assert AccessModule.from_plan(rebuilt, "q3").to_bytes() == module.to_bytes()

    def test_round_trip_through_topologies(self):
        for topology in ("chain", "star", "cycle"):
            workload = make_join_workload(4, topology=topology, seed=1)
            dynamic = optimize_dynamic(workload.catalog, workload.query)
            module = AccessModule.from_plan(dynamic.plan, topology)
            assert (
                module.materialize().signature() == dynamic.plan.signature()
            )

    def test_materialized_plan_still_executes(self, workload2, database2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=4)
        module = AccessModule.from_plan(dynamic.plan, "q2")
        rebuilt = module.materialize()
        original = execute_plan(
            dynamic.plan, database2, bindings, workload2.query.parameter_space
        )
        reloaded = execute_plan(
            rebuilt, database2, bindings, workload2.query.parameter_space
        )
        assert original.row_count == reloaded.row_count

    def test_materialized_plan_resolves_identically(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=4)
        rebuilt = AccessModule.from_plan(dynamic.plan, "q2").materialize()
        chosen_a, _ = resolve_dynamic_plan(
            dynamic.plan, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        chosen_b, _ = resolve_dynamic_plan(
            rebuilt, workload2.catalog,
            workload2.query.parameter_space, bindings,
        )
        assert chosen_a.signature() == chosen_b.signature()


class TestMetadata:
    def test_node_count_matches_plan(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(dynamic.plan, "q2")
        assert module.node_count == dynamic.plan.node_count()

    def test_read_seconds_uses_paper_formula(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(dynamic.plan, "q2")
        expected = (
            module.node_count * PLAN_NODE_BYTES / DISK_BANDWIDTH_BYTES_PER_SEC
        )
        assert module.read_seconds() == pytest.approx(expected)

    def test_query_name_preserved(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        module = AccessModule.from_plan(dynamic.plan, "my-query")
        assert module.query_name == "my-query"
        assert AccessModule.from_bytes(module.to_bytes()).query_name == "my-query"

    def test_byte_size_positive_and_proportional(self, workload1, workload3):
        small = AccessModule.from_plan(
            optimize_dynamic(workload1.catalog, workload1.query).plan, "q1"
        )
        large = AccessModule.from_plan(
            optimize_dynamic(workload3.catalog, workload3.query).plan, "q3"
        )
        assert 0 < small.byte_size < large.byte_size
