"""Optimizer configuration and CPU-time calibration."""

import pytest

from repro.cost.calibration import (
    DEFAULT_CPU_SCALE,
    PAPER_EVALUATION_RATE,
    derive_cpu_scale,
    measure_evaluation_rate,
)
from repro.optimizer import OptimizerConfig, OptimizerMode, optimize_dynamic


class TestOptimizerConfig:
    def test_factory_modes(self):
        assert OptimizerConfig.static().mode is OptimizerMode.STATIC
        assert OptimizerConfig.dynamic().mode is OptimizerMode.DYNAMIC
        assert OptimizerConfig.exhaustive().mode is OptimizerMode.EXHAUSTIVE

    def test_is_static_flags(self):
        assert OptimizerConfig.static().is_static
        assert not OptimizerConfig.dynamic().is_static
        assert OptimizerConfig.exhaustive().is_exhaustive

    def test_defaults_match_paper_prototype_except_equal_cost_ties(self):
        config = OptimizerConfig.dynamic()
        assert config.branch_and_bound
        # The one departure: the prototype keeps exactly-equal plans "in
        # the most naive manner"; the default drops them (commuted
        # merge-join twins, point ties), which no decision can pick.
        assert not config.keep_equal_cost_plans
        assert not config.multipoint_heuristic  # paper leaves it off

    def test_overrides_via_factories(self):
        config = OptimizerConfig.dynamic(branch_and_bound=False)
        assert not config.branch_and_bound

    def test_choose_plan_overhead_flows_into_costs(self, workload1):
        cheap = optimize_dynamic(
            workload1.catalog, workload1.query,
            OptimizerConfig.dynamic(choose_plan_overhead=0.0),
        )
        pricey = optimize_dynamic(
            workload1.catalog, workload1.query,
            OptimizerConfig.dynamic(choose_plan_overhead=1.0),
        )
        assert pricey.cost.lower > cheap.cost.lower


class TestCalibration:
    def test_paper_rate_constant(self):
        # 14,090 cost evaluations in 5.8 seconds (Section 6).
        assert PAPER_EVALUATION_RATE == pytest.approx(14090 / 5.8)

    def test_measured_rate_positive(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        rate = measure_evaluation_rate(
            workload2.catalog, dynamic.plan,
            workload2.query.parameter_space, repetitions=5,
        )
        assert rate > 0

    def test_derived_scale_at_least_one(self, workload2):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        scale = derive_cpu_scale(
            workload2.catalog, dynamic.plan,
            workload2.query.parameter_space, repetitions=5,
        )
        assert scale >= 1.0

    def test_default_scale_order_of_magnitude(self):
        # A constant, documented calibration: hundreds, not millions.
        assert 10 <= DEFAULT_CPU_SCALE <= 10_000
