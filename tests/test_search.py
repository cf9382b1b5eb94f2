"""The search engine: static mode, dynamic mode, pruning, enforcers."""

import pytest

from repro.algebra.physical import (
    ChoosePlan,
    HashJoin,
    MergeJoin,
    Sort,
)
from repro.cost.formulas import CostModel
from repro.cost.parameters import Valuation
from repro.optimizer import (
    OptimizerConfig,
    OptimizerMode,
    optimize_dynamic,
    optimize_exhaustive,
    optimize_static,
)
from tests._fingerprints import compute_fingerprints, load_golden


class TestStaticMode:
    def test_single_plan_no_choose_operators(self, workload2):
        result = optimize_static(workload2.catalog, workload2.query)
        assert result.plan.choose_plan_count() == 0
        assert result.cost.is_point

    def test_query1_picks_index_scan_at_default_selectivity(self, workload1):
        # The motivating example: at the traditional 0.05 default the
        # index scan looks cheapest, which is what makes static plans
        # fragile at large selectivities.
        result = optimize_static(workload1.catalog, workload1.query)
        operators = [n.operator_name() for n in result.plan.walk_unique()]
        assert "Filter-B-tree-Scan" in operators

    def test_static_config_validation(self, workload1):
        with pytest.raises(ValueError):
            optimize_static(
                workload1.catalog,
                workload1.query,
                OptimizerConfig.dynamic(),
            )

    def test_statistics_populated(self, workload2):
        result = optimize_static(workload2.catalog, workload2.query)
        stats = result.statistics
        assert stats.groups_created > 0
        assert stats.mexprs_total > 0
        assert stats.candidates_considered > 0
        assert stats.cost_evaluations > 0
        assert stats.optimization_seconds > 0

    def test_logical_alternatives_count(self, workload2):
        result = optimize_static(workload2.catalog, workload2.query)
        assert result.logical_alternatives() == 2  # paper: query 2 has 2


class TestDynamicMode:
    def test_root_is_choose_plan(self, workload2):
        result = optimize_dynamic(workload2.catalog, workload2.query)
        assert isinstance(result.plan, ChoosePlan)
        assert result.choose_plan_count() >= 1

    def test_cost_is_interval(self, workload2):
        result = optimize_dynamic(workload2.catalog, workload2.query)
        assert not result.cost.is_point
        assert result.cost.lower >= 0

    def test_dynamic_plan_larger_than_static(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        static = optimize_static(workload2.catalog, workload2.query)
        assert dynamic.node_count() > static.node_count()

    def test_query1_contains_both_scan_alternatives(self, workload1):
        # Figure 1(b): file scan and index scan linked by choose-plan.
        result = optimize_dynamic(workload1.catalog, workload1.query)
        operators = [n.operator_name() for n in result.plan.walk_unique()]
        assert "File-Scan" in operators
        assert "Filter-B-tree-Scan" in operators
        assert "Choose-Plan" in operators

    def test_query2_contains_both_build_sides(self, workload2):
        # Figure 2: hash joins with both build sides in one dynamic plan.
        result = optimize_dynamic(workload2.catalog, workload2.query)
        hash_joins = [
            node
            for node in result.plan.walk_unique()
            if isinstance(node, HashJoin)
        ]
        assert len(hash_joins) >= 2
        builds = set()
        for join in hash_joins:
            relations = frozenset(
                getattr(n, "relation_name", None)
                for n in join.build.walk_unique()
                if getattr(n, "relation_name", None)
            )
            builds.add(relations)
        assert len(builds) >= 2  # both relations appear as build side

    def test_dynamic_plan_is_dag_with_sharing(self, workload3):
        result = optimize_dynamic(workload3.catalog, workload3.query)
        assert result.plan.tree_node_count() > result.plan.node_count()

    def test_choose_plan_cost_below_alternatives(self, workload2):
        result = optimize_dynamic(workload2.catalog, workload2.query)
        model = CostModel(
            workload2.catalog, Valuation.bounds(workload2.query.parameter_space)
        )
        root = result.plan
        root_cost = model.evaluate(root).cost
        overhead = model.choose_plan_overhead
        for alternative in root.alternatives:
            alt_cost = model.evaluate(alternative).cost
            assert root_cost.lower <= alt_cost.lower + overhead + 1e-9
            assert root_cost.upper <= alt_cost.upper + overhead + 1e-9


class TestExhaustiveMode:
    def test_exhaustive_contains_dynamic(self, workload2):
        exhaustive = optimize_exhaustive(workload2.catalog, workload2.query)
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        assert exhaustive.node_count() >= dynamic.node_count()

    def test_exhaustive_mode_flag(self):
        config = OptimizerConfig.exhaustive()
        assert config.is_exhaustive
        assert config.mode is OptimizerMode.EXHAUSTIVE


class TestBranchAndBound:
    def test_pruning_does_not_change_dynamic_plan_cost(self, workload3):
        with_bnb = optimize_dynamic(
            workload3.catalog, workload3.query,
            OptimizerConfig.dynamic(branch_and_bound=True),
        )
        without_bnb = optimize_dynamic(
            workload3.catalog, workload3.query,
            OptimizerConfig.dynamic(branch_and_bound=False),
        )
        # Branch-and-bound "is not a heuristic": identical results.
        assert with_bnb.cost == without_bnb.cost
        assert with_bnb.plan.signature() == without_bnb.plan.signature()

    def test_pruning_does_not_change_static_plan(self, workload3):
        with_bnb = optimize_static(
            workload3.catalog, workload3.query,
            OptimizerConfig.static(branch_and_bound=True),
        )
        without_bnb = optimize_static(
            workload3.catalog, workload3.query,
            OptimizerConfig.static(branch_and_bound=False),
        )
        assert with_bnb.cost == without_bnb.cost
        assert with_bnb.plan.signature() == without_bnb.plan.signature()

    def test_static_pruning_is_more_effective_than_interval_pruning(
        self, workload3
    ):
        static = optimize_static(workload3.catalog, workload3.query)
        dynamic = optimize_dynamic(workload3.catalog, workload3.query)
        # Weakened pruning: dynamic keeps strictly more candidates.
        static_kept = (
            static.statistics.candidates_considered
            - static.statistics.pruned_by_bound
            - static.statistics.pruned_by_dominance
        )
        dynamic_kept = (
            dynamic.statistics.candidates_considered
            - dynamic.statistics.pruned_by_bound
            - dynamic.statistics.pruned_by_dominance
        )
        assert dynamic_kept > static_kept


class TestMultipointHeuristic:
    def test_heuristic_shrinks_or_preserves_plan(self, workload2):
        baseline = optimize_dynamic(workload2.catalog, workload2.query)
        pruned = optimize_dynamic(
            workload2.catalog, workload2.query,
            OptimizerConfig.dynamic(
                multipoint_heuristic=True, multipoint_samples=7
            ),
        )
        assert pruned.node_count() <= baseline.node_count()

    def test_heuristic_counts_pruning(self, workload3):
        result = optimize_dynamic(
            workload3.catalog, workload3.query,
            OptimizerConfig.dynamic(
                multipoint_heuristic=True, multipoint_samples=5
            ),
        )
        # On a 4-way join something is always multipoint-prunable.
        assert result.statistics.pruned_by_multipoint >= 0


class TestSortEnforcer:
    def test_merge_join_inputs_sorted(self, workload2):
        result = optimize_dynamic(workload2.catalog, workload2.query)
        model = CostModel(
            workload2.catalog, Valuation.bounds(workload2.query.parameter_space)
        )
        for node in result.plan.walk_unique():
            if isinstance(node, MergeJoin):
                primary = node.predicate
                left_orders = model.evaluate(node.left).sort_orders
                right_orders = model.evaluate(node.right).sort_orders
                assert (
                    primary.left_attribute in left_orders
                    or primary.right_attribute in left_orders
                )
                assert (
                    primary.left_attribute in right_orders
                    or primary.right_attribute in right_orders
                )

    def test_sort_nodes_appear_in_dynamic_plans(self, workload2):
        result = optimize_dynamic(workload2.catalog, workload2.query)
        assert any(
            isinstance(node, Sort) for node in result.plan.walk_unique()
        )


class TestGoldenFingerprints:
    """Plans, cost bounds and search counters of 59 optimizations are
    pinned to the bit (see ``tests/_fingerprints.py``): a change that
    makes the optimizer faster must leave every one of them alone."""

    def test_every_case_reproduces_its_golden_fingerprint(self):
        golden = load_golden()
        computed = compute_fingerprints()
        assert sorted(computed) == sorted(golden)
        differing = [name for name in golden if computed[name] != golden[name]]
        assert not differing, "fingerprints moved: %s" % ", ".join(differing)
