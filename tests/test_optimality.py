"""The paper's central guarantee: g_i = d_i.

A dynamic plan, resolved at start-up time against any run-time
bindings, must execute the *same-cost* plan a full run-time
optimization would have produced (Section 3, "Guarantees of
Optimality").  We verify this over many random bindings for several
query sizes and topologies, plus the exhaustive-plan variant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.physical import ChoosePlan, MergeJoin
from repro.executor import resolve_dynamic_plan
from repro.optimizer import (
    OptimizerConfig,
    optimize_dynamic,
    optimize_exhaustive,
    optimize_runtime,
)
from repro.scenarios import predicted_execution_seconds
from repro.workloads import (
    binding_series,
    make_join_workload,
    paper_workload,
    random_bindings,
)


def _chosen_cost(dynamic_result, workload, bindings):
    chosen, _report = resolve_dynamic_plan(
        dynamic_result.plan,
        workload.catalog,
        workload.query.parameter_space,
        bindings,
    )
    return predicted_execution_seconds(
        chosen, workload.catalog, workload.query.parameter_space, bindings
    )


def _optimal_cost(workload, bindings):
    result = optimize_runtime(workload.catalog, workload.query, bindings)
    return predicted_execution_seconds(
        result.plan, workload.catalog, workload.query.parameter_space, bindings
    )


def _assert_guarantee(workload, count=12, seed=11):
    dynamic = optimize_dynamic(workload.catalog, workload.query)
    for bindings in binding_series(workload, count=count, seed=seed):
        chosen = _chosen_cost(dynamic, workload, bindings)
        optimal = _optimal_cost(workload, bindings)
        assert chosen == pytest.approx(optimal, rel=1e-9), (
            "dynamic plan chose cost %r but run-time optimization achieves %r"
            % (chosen, optimal)
        )


class TestOptimalityGuarantee:
    def test_query1(self, workload1):
        _assert_guarantee(workload1, count=20)

    def test_query2(self, workload2):
        _assert_guarantee(workload2, count=15)

    def test_query3(self, workload3):
        _assert_guarantee(workload3, count=8)

    def test_query2_with_memory_uncertainty(self, workload2_mem):
        _assert_guarantee(workload2_mem, count=10)

    def test_star_topology(self, star_workload):
        _assert_guarantee(star_workload, count=6)

    def test_cycle_topology(self):
        _assert_guarantee(make_join_workload(4, topology="cycle"), count=5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_query2_hypothesis_bindings(self, workload2, seed):
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        bindings = random_bindings(workload2, seed=seed)
        chosen = _chosen_cost(dynamic, workload2, bindings)
        optimal = _optimal_cost(workload2, bindings)
        assert chosen == pytest.approx(optimal, rel=1e-9)


class TestExhaustivePlanOptimality:
    """The exhaustive plan includes absolutely all plans, so it too
    must achieve the run-time optimum (and never beat it)."""

    def test_exhaustive_matches_runtime_optimum(self, workload2):
        exhaustive = optimize_exhaustive(workload2.catalog, workload2.query)
        for bindings in binding_series(workload2, count=8, seed=3):
            chosen = _chosen_cost(exhaustive, workload2, bindings)
            optimal = _optimal_cost(workload2, bindings)
            assert chosen == pytest.approx(optimal, rel=1e-9)

    def test_dynamic_never_beats_exhaustive(self, workload2):
        # Sanity: pruning only removes plans that are never optimal.
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        exhaustive = optimize_exhaustive(workload2.catalog, workload2.query)
        for bindings in binding_series(workload2, count=8, seed=4):
            dynamic_cost = _chosen_cost(dynamic, workload2, bindings)
            exhaustive_cost = _chosen_cost(exhaustive, workload2, bindings)
            assert dynamic_cost == pytest.approx(exhaustive_cost, rel=1e-9)


class TestStaticPlanSuboptimality:
    """Static plans must be no better than dynamic plans anywhere, and
    strictly worse somewhere (otherwise the whole exercise is moot)."""

    def test_static_never_beats_dynamic(self, workload2):
        from repro.optimizer import optimize_static

        static = optimize_static(workload2.catalog, workload2.query)
        dynamic = optimize_dynamic(workload2.catalog, workload2.query)
        strictly_worse = 0
        for bindings in binding_series(workload2, count=15, seed=5):
            static_cost = predicted_execution_seconds(
                static.plan,
                workload2.catalog,
                workload2.query.parameter_space,
                bindings,
            )
            dynamic_cost = _chosen_cost(dynamic, workload2, bindings)
            assert static_cost >= dynamic_cost - 1e-9
            if static_cost > dynamic_cost * 1.05:
                strictly_worse += 1
        assert strictly_worse > 0


class TestDynamicPlanContainsRuntimeChoice:
    """Stronger structural check: the plan picked by run-time
    optimization is (cost-)equivalent to an alternative reachable in
    the dynamic plan, for every binding."""

    def test_runtime_plan_cost_reachable(self, workload1):
        dynamic = optimize_dynamic(workload1.catalog, workload1.query)
        for bindings in binding_series(workload1, count=25, seed=6):
            runtime = optimize_runtime(
                workload1.catalog, workload1.query, bindings
            )
            chosen, _ = resolve_dynamic_plan(
                dynamic.plan,
                workload1.catalog,
                workload1.query.parameter_space,
                bindings,
            )
            runtime_cost = predicted_execution_seconds(
                runtime.plan,
                workload1.catalog,
                workload1.query.parameter_space,
                bindings,
            )
            chosen_cost = predicted_execution_seconds(
                chosen,
                workload1.catalog,
                workload1.query.parameter_space,
                bindings,
            )
            assert chosen_cost == pytest.approx(runtime_cost, rel=1e-9)


@st.composite
def tie_workloads(draw):
    """A paper query, or a chain, star or cycle join of 3-6 relations
    over drawn selectivity bounds (never a point: a query with nothing
    uncertain has exact point ties, which only the paper form keeps)."""
    memory_uncertain = draw(st.booleans())
    if draw(st.booleans()):
        return paper_workload(
            draw(st.integers(1, 5)), memory_uncertain=memory_uncertain, seed=0
        )
    low = draw(st.floats(0.0, 0.5))
    high = draw(st.floats(low + 0.01, 1.0))
    return make_join_workload(
        draw(st.integers(3, 6)),
        topology=draw(st.sampled_from(["chain", "star", "cycle"])),
        memory_uncertain=memory_uncertain,
        selectivity_bounds=(low, high),
    )


def _repeated_alternatives(plan):
    """Choose-plan alternatives that compute an earlier alternative's
    cost function: one operator kind, the same predicate set (or node
    parameters), and the same input objects, as a set for a merge join
    (its formula is symmetric) and in order otherwise (a hash join
    builds on its left input)."""
    repeated = []
    for node in plan.walk_unique():
        if not isinstance(node, ChoosePlan):
            continue
        seen = set()
        for alternative in node.alternatives:
            inputs = tuple(map(id, alternative.inputs()))
            key = (
                type(alternative),
                frozenset(inputs) if type(alternative) is MergeJoin else inputs,
                frozenset(getattr(alternative, "predicates", ()))
                or alternative._local_signature(),
            )
            if key in seen:
                repeated.append(alternative)
            seen.add(key)
    return repeated


class TestEqualCostPlansDropped:
    """The default config drops what the paper form keeps "in the most
    naive manner" and no decision can pick: the same root cost to the
    bit, the same choose-plans, the same static plan under any bindings,
    and no choose-plan alternative that repeats another's cost function
    (each commuted merge-join twin, in the paper form)."""

    @settings(max_examples=25, deadline=None)
    @given(
        workload=tie_workloads(),
        binding_seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    )
    def test_same_decisions_fewer_nodes(self, workload, binding_seeds):
        catalog, query = workload.catalog, workload.query
        default = optimize_dynamic(catalog, query)
        paper = optimize_dynamic(
            catalog, query, OptimizerConfig.dynamic(keep_equal_cost_plans=True)
        )
        assert repr(default.cost.lower) == repr(paper.cost.lower)
        assert repr(default.cost.upper) == repr(paper.cost.upper)
        assert default.choose_plan_count() == paper.choose_plan_count()
        assert default.node_count() <= paper.node_count()
        assert _repeated_alternatives(default.plan) == []
        for seed in binding_seeds:
            bindings = random_bindings(workload, seed=seed)
            chosen = [
                resolve_dynamic_plan(
                    result.plan, catalog, query.parameter_space, bindings
                )[0].digest()
                for result in (default, paper)
            ]
            assert chosen[0] == chosen[1]
